"""Field tower arithmetic, supports, and F_q linear algebra."""

import pytest

from conftest import make_rng, rand_elem, rand_independent, rand_nonzero

from rankdec import (
    FieldCtx,
    NotPrimePower,
    ReducibleModulus,
    col_support,
    ext,
    field_create,
    fqm_rank,
    kernel_basis,
    rank,
    rank_weight,
    row_support,
    rref,
    solve,
    subspace_elements,
    subspace_from_vectors,
    subspace_perp,
)
from rankdec.channel import _random_full_rank_fq


# ---------------------------------------------------------------------------
# construction


def test_prime_field_trivial_extension():
    ctx = field_create(2, 1)
    assert ctx.order == 2
    assert ctx.add(1, 1) == 0
    assert ctx.mul(1, 1) == 1
    assert ctx.frob(1, 5) == 1
    assert ctx.trace(1) == 1


def test_f4_with_explicit_modulus():
    ctx = field_create(2, 2, ext_modulus=[1, 1, 1])
    w = ctx.basis[1]
    assert ctx.mul(w, w) == ctx.add(w, 1)  # w*w = w + 1, forced by the modulus
    assert ctx.frob(w, 1) == ctx.add(w, 1)
    assert ctx.trace(w) == 1
    assert ctx.frob(w, 0) == w
    assert ctx.frob(w, 2) == w


def test_f81_alpha_has_full_order():
    # exhaustive order check: alpha^(3^4-1) = 1 and no smaller prime quotient
    ctx = field_create(3, 4)
    alpha = ctx.basis[1]
    assert ctx.pow(alpha, 80) == 1
    for d in (2, 5):
        assert ctx.pow(alpha, 80 // d) != 1


def test_not_prime_power_rejected():
    for bad in (0, 1, 6, 10, 12):
        with pytest.raises(NotPrimePower):
            field_create(bad, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        field_create(2, 4, ext_modulus=[1, 0, 0, 0, 1])  # X^4 + 1 = (X+1)^4
    with pytest.raises(ReducibleModulus):
        field_create(2, 2, ext_modulus=[0, 1, 1])  # X^2 + X = X(X+1)
    with pytest.raises(ReducibleModulus):
        field_create(4, 2, base_modulus=[0, 0, 1])  # Y^2 over F_2
    with pytest.raises(ReducibleModulus):
        field_create(2, 3, ext_modulus=[1, 1])  # degree mismatch


def _brute_reducible(f, q, mulmod):
    # test-local oracle: search for a monic divisor of degree 1..deg//2
    import itertools

    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(q), repeat=d):
            div = list(low) + [1]
            if _poly_mod(f, div, q, mulmod) == []:
                return True
    return False


def _poly_mod(a, b, q, mulmod):
    # remainder of a by monic b over F_q, using the context's scalar ops
    add, neg, mul = mulmod
    r = list(a)
    while len(r) >= len(b):
        c = r[-1]
        if c:
            off = len(r) - len(b)
            for i, bi in enumerate(b):
                r[off + i] = add(r[off + i], neg(mul(c, bi)))
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def test_default_moduli_are_smallest_irreducible():
    for q, m in ((2, 8), (3, 3), (4, 2)):
        ctx = field_create(q, m)
        ops = (ctx.base.add, ctx.base.neg, ctx.base.mul)
        f = list(ctx.ext_modulus)
        assert f[-1] == 1 and len(f) == m + 1
        assert not _brute_reducible(f, q, ops)
        # every smaller candidate (by packed non-leading part) is reducible
        packed = sum(c * q**i for i, c in enumerate(f[:-1]))
        for smaller in range(packed):
            cand = [(smaller // q**i) % q for i in range(m)] + [1]
            assert _brute_reducible(cand, q, ops), (q, m, smaller)


@pytest.mark.parametrize("q,p,s", [(4, 2, 2), (9, 3, 2)])
def test_base_of_a_prime_power_is_the_cached_context(q, p, s):
    ctx = field_create(q, 2)
    assert ctx.base is field_create(p, s, None, ctx.base_modulus)
    assert ctx.base.order == q


@pytest.mark.parametrize("p", [2, 3, 5])
def test_base_of_a_prime_is_mod_p_arithmetic(p):
    base = field_create(p, 3).base
    assert (base.order, base.p) == (p, p)
    for a in range(p):
        assert base.neg(a) == (-a) % p
        if a:
            assert base.mul(a, base.inv(a)) == 1
        for b in range(p):
            assert base.add(a, b) == (a + b) % p
            assert base.sub(a, b) == (a - b) % p
            assert base.mul(a, b) == (a * b) % p


def test_field_create_is_cached_and_deterministic():
    a = field_create(2, 8)
    b = field_create(2, 8)
    assert a is b
    assert a.ext_modulus == b.ext_modulus


def test_field_axioms_on_random_samples():
    for q, m in ((2, 6), (3, 2), (4, 2)):
        ctx = field_create(q, m)
        rng = make_rng(1000 + q * m)
        for _ in range(1000 if q == 2 else 300):
            x, y, z = (rand_elem(ctx, rng) for _ in range(3))
            assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
            assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
            assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            if x:
                assert ctx.mul(x, ctx.inv(x)) == 1
            assert ctx.add(x, ctx.neg(x)) == 0


def test_frobenius_is_linear_multiplicative_and_iterates():
    ctx = field_create(3, 4)
    rng = make_rng(7)
    for _ in range(200):
        x, y = rand_elem(ctx, rng), rand_elem(ctx, rng)
        a = rng.base_elem(ctx)
        i, j = rng.below(8), rng.below(8)
        assert ctx.frob(ctx.add(ctx.smul(a, x), y), i) == ctx.add(
            ctx.smul(a, ctx.frob(x, i)), ctx.frob(y, i)
        )
        assert ctx.frob(ctx.mul(x, y), i) == ctx.mul(ctx.frob(x, i), ctx.frob(y, i))
        assert ctx.frob(ctx.frob(x, i), j) == ctx.frob(x, i + j)
        assert ctx.frob(x, ctx.m) == x
        assert ctx.frob(x, 0) == x


def test_trace_lands_in_base_field_and_is_linear():
    ctx = field_create(2, 8)
    rng = make_rng(8)
    assert ctx.trace(0) == 0
    for _ in range(300):
        x, y = rand_elem(ctx, rng), rand_elem(ctx, rng)
        tr = ctx.trace(x)
        assert 0 <= tr < ctx.q
        assert ctx.frob(tr, 1) == tr  # fixed by Frobenius, so in F_q
        assert ctx.trace(ctx.add(x, y)) == ctx.base.add(ctx.trace(x), ctx.trace(y))
    assert any(ctx.trace(rand_elem(ctx, rng)) != 0 for _ in range(50))


def test_trace_form_nondegenerate():
    for q, m in ((2, 6), (3, 3)):
        ctx = field_create(q, m)
        gram = [
            [ctx.trace(ctx.mul(bi, bj)) for bj in ctx.basis] for bi in ctx.basis
        ]
        assert rank(ctx, gram) == m


# ---------------------------------------------------------------------------
# expansion, rank weight, supports


def test_ext_zero_and_basis_columns():
    ctx = field_create(2, 4)
    assert ext(ctx, (0, 0, 0)) == [[0, 0, 0]] * 4
    mat = ext(ctx, ctx.basis[:3])
    for r in range(4):
        for j in range(3):
            assert mat[r][j] == (1 if r == j else 0)


def test_rank_weight_examples():
    ctx = field_create(2, 4)
    assert rank_weight(ctx, (0, 0, 0, 0)) == 0
    assert rank_weight(ctx, (1, 1, 0, 1)) == 1  # all entries in F_q
    ctx4 = field_create(2, 2)
    w = ctx4.basis[1]
    assert rank_weight(ctx4, (1, w, ctx4.add(w, 1))) == 2


def test_words_outside_the_field_are_rejected():
    ctx = field_create(2, 8)
    with pytest.raises(ValueError):
        rank_weight(ctx, [256])
    with pytest.raises(ValueError):
        ext(ctx, [1, -1])
    with pytest.raises(ValueError):
        col_support(ctx, [1 << 20])
    with pytest.raises(ValueError):
        row_support(ctx, [3, 1 << 8])


def test_rank_weight_equals_support_dims():
    ctx = field_create(3, 4)
    rng = make_rng(99)
    for _ in range(100):
        word = tuple(rand_elem(ctx, rng) for _ in range(4))
        rw = rank_weight(ctx, word)
        assert rw == col_support(ctx, word).dim
        assert rw == row_support(ctx, word).dim


def test_ext_rank_does_not_depend_on_basis():
    ctx = field_create(2, 5)
    rng = make_rng(13)
    other = rand_independent(ctx, rng, 5)
    # coordinates in the basis `other` solve T c = digits(x), T's columns
    # being the digits of the basis elements
    t_rows = [[ctx.digits(b)[r] for b in other] for r in range(5)]
    for _ in range(50):
        word = tuple(rand_elem(ctx, rng) for _ in range(4))
        cols = [solve(ctx, t_rows, ctx.digits(x)) for x in word]
        other_ext = [[col[r] for col in cols] for r in range(5)]
        assert rank(ctx, ext(ctx, word)) == rank(ctx, other_ext)


def test_subspace_canonical_equality():
    ctx = field_create(2, 5)
    rng = make_rng(21)
    vecs = [ctx.digits(rand_elem(ctx, rng)) for _ in range(3)]
    s1 = subspace_from_vectors(ctx, 5, vecs)
    # same space from scrambled generating set
    mixed = [vecs[2], tuple(ctx.base.add(a, b) for a, b in zip(vecs[0], vecs[1])), vecs[0], vecs[1]]
    s2 = subspace_from_vectors(ctx, 5, mixed)
    assert s1 == s2
    for v in vecs:
        assert s1.contains(ctx, v)


def test_subspace_vector_lengths_are_checked():
    ctx = field_create(2, 4)
    space = subspace_from_vectors(ctx, 4, [[1, 0, 1, 1]])
    with pytest.raises(ValueError):
        space.contains(ctx, [1, 0])
    with pytest.raises(ValueError):
        subspace_from_vectors(ctx, 4, [[1, 0]])
    with pytest.raises(ValueError):
        subspace_from_vectors(ctx, 4, [[1, 0, 1, 1, 0]])


def test_subspace_perp_cases_and_involution():
    ctx = field_create(2, 6)
    zero = subspace_from_vectors(ctx, 6, [])
    full = subspace_perp(ctx, zero)
    assert full.dim == 6
    assert subspace_perp(ctx, full).dim == 0
    rng = make_rng(6)
    vecs = [ctx.digits(x) for x in rand_independent(ctx, rng, 3)]
    space = subspace_from_vectors(ctx, 6, vecs)
    perp = subspace_perp(ctx, space)
    assert perp.dim == 3
    # exhaustive pairing check over both bases
    for row_v in space.basis:
        for row_w in perp.basis:
            assert ctx.trace(ctx.mul(ctx.pack(row_v), ctx.pack(row_w))) == 0
    assert subspace_perp(ctx, perp) == space


def test_subspace_elements_enumeration():
    ctx = field_create(2, 4)
    space = subspace_from_vectors(ctx, 4, [ctx.digits(ctx.basis[1]), ctx.digits(1)])
    elems = {ctx.pack(v) for v in subspace_elements(ctx, space)}
    assert len(elems) == 4
    assert 0 in elems and 1 in elems


# ---------------------------------------------------------------------------
# linear algebra


def test_kernel_identity_and_zero_matrix():
    ctx = field_create(2, 3)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(ctx, ident) == []
    zero = [[0, 0, 0], [0, 0, 0]]
    assert len(kernel_basis(ctx, zero)) == 3


def test_rank_plus_nullity_random():
    for q in (2, 3, 4, 5, 9):
        ctx = field_create(q, 2)
        rng = make_rng(40 + q)
        for _ in range(100):
            rows = [[rng.base_elem(ctx) for _ in range(10)] for _ in range(10)]
            r = rank(ctx, rows)
            kern = kernel_basis(ctx, rows)
            assert r + len(kern) == 10
            for vec in kern:
                for row in rows:
                    acc = 0
                    for a, b in zip(row, vec):
                        acc = ctx.base.add(acc, ctx.base.mul(a, b))
                    assert acc == 0


def test_rref_idempotent():
    for q in (2, 3, 4, 5, 9):
        ctx = field_create(q, 2)
        rng = make_rng(50 + q)
        for _ in range(50):
            rows = [[rng.base_elem(ctx) for _ in range(6)] for _ in range(4)]
            once = rref(ctx, rows)
            assert rref(ctx, once) == once


def test_solve_consistent_and_inconsistent():
    ctx = field_create(3, 2)
    rng = make_rng(60)
    for _ in range(50):
        rows = [[rng.base_elem(ctx) for _ in range(5)] for _ in range(4)]
        x = [rng.base_elem(ctx) for _ in range(5)]
        rhs = []
        for row in rows:
            acc = 0
            for a, b in zip(row, x):
                acc = ctx.base.add(acc, ctx.base.mul(a, b))
            rhs.append(acc)
        got = solve(ctx, rows, rhs)
        assert got is not None
        for row, want in zip(rows, rhs):
            acc = 0
            for a, b in zip(row, got):
                acc = ctx.base.add(acc, ctx.base.mul(a, b))
            assert acc == want
    assert solve(ctx, [[1, 0], [1, 0]], [1, 2]) is None


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_kernel_without_rows_is_the_identity(q):
    ctx = field_create(q, 2)
    assert kernel_basis(ctx, [], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(ctx, [], 0) == []
    with pytest.raises(ValueError):
        kernel_basis(ctx, [])


@pytest.mark.parametrize("q", [2, 3])
def test_ragged_rows_are_rejected(q):
    ctx = field_create(q, 2)
    with pytest.raises(ValueError):
        kernel_basis(ctx, [[1, 0]], 3)
    with pytest.raises(ValueError):
        kernel_basis(ctx, [[1, 0, 1]], 2)
    with pytest.raises(ValueError):
        kernel_basis(ctx, [[1, 0], [1]])
    with pytest.raises(ValueError):
        rank(ctx, [[1, 0], [1]])
    with pytest.raises(ValueError):
        rref(ctx, [[1, 0], [1, 0, 1]])
    with pytest.raises(ValueError):
        solve(ctx, [[1, 0], [1]], [0, 1])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_entries_outside_the_base_field_are_rejected(q):
    ctx = field_create(q, 2)
    for bad in (q, -1):
        with pytest.raises(ValueError):
            rank(ctx, [[bad, 0]])
        with pytest.raises(ValueError):
            rref(ctx, [[bad, 1]])
        with pytest.raises(ValueError):
            kernel_basis(ctx, [[1, 0], [0, bad]])
        with pytest.raises(ValueError):
            solve(ctx, [[1, bad]], [0])
        with pytest.raises(ValueError):
            solve(ctx, [[1, 0]], [bad])


@pytest.mark.parametrize("q", [2, 3])
def test_non_int_entries_are_rejected(q):
    # a float used to count as a nonzero bit at q = 2 and to raise
    # TypeError at odd q; entries are checked like FieldCtx.is_elem
    ctx = field_create(q, 4)
    for bad in (0.5, 1.5, 1.0, "1", None):
        with pytest.raises(ValueError):
            rank(ctx, [[bad, 1]])
        with pytest.raises(ValueError):
            rref(ctx, [[1, bad]])
        with pytest.raises(ValueError):
            kernel_basis(ctx, [[1, 0], [0, bad]])
        with pytest.raises(ValueError):
            solve(ctx, [[1, bad]], [0])
        with pytest.raises(ValueError):
            solve(ctx, [[1, 0]], [bad])
        with pytest.raises(ValueError):
            fqm_rank(ctx, [[1, bad]])
    assert rank(ctx, [[True, 1]]) == 1  # bool is an int, as in FieldCtx.is_elem


def test_fqm_rank_validates_its_rows():
    ctx = field_create(2, 4)
    assert fqm_rank(ctx, []) == 0
    with pytest.raises(ValueError):
        fqm_rank(ctx, [[1, 0], [1]])
    with pytest.raises(ValueError):
        fqm_rank(ctx, [[1 << 9]])


def _fq_product(ctx, a, b):
    F = ctx.base
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            acc = [F.add(v, F.mul(x, y)) for v, y in zip(acc, brow)]
        out.append(acc)
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_does_not_grow_under_field_extension(q):
    # fqm_rank eliminates over F_{q^m} and rank over F_q; a matrix over F_q
    # has the same rank over both
    ctx = field_create(q, 3)
    rng = make_rng(90 + q)
    for _ in range(40):
        nrows, ncols = 1 + rng.below(6), 1 + rng.below(6)
        inner = rng.below(min(nrows, ncols))
        full = _random_full_rank_fq(ctx, rng, nrows, ncols)
        left = [[rng.base_elem(ctx) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.base_elem(ctx) for _ in range(ncols)] for _ in range(inner)]
        thin = _fq_product(ctx, left, right) if inner else [[0] * ncols for _ in range(nrows)]
        assert rank(ctx, thin) <= inner
        for mat in (full, thin):
            assert fqm_rank(ctx, mat) == rank(ctx, mat)


# ---------------------------------------------------------------------------
# serialization


def test_fieldctx_json_round_trip():
    for q, m in ((2, 8), (3, 4), (4, 3)):
        ctx = field_create(q, m)
        again = FieldCtx.from_json(ctx.to_json())
        assert again == ctx
        assert again.base_modulus == ctx.base_modulus


def test_elem_and_word_coeff_round_trip():
    ctx = field_create(3, 4)
    rng = make_rng(70)
    for _ in range(50):
        x = rand_elem(ctx, rng)
        coeffs = ctx.elem_to_coeffs(x)
        assert len(coeffs) == 4 and all(0 <= c < 3 for c in coeffs)
        assert ctx.elem_from_coeffs(coeffs) == x
    word = tuple(rand_elem(ctx, rng) for _ in range(5))
    assert ctx.word_from_coeffs(ctx.word_to_coeffs(word)) == word


def test_base_field_embedding_consistency():
    # base-field ints are valid extension elements with constant coordinates
    ctx = field_create(4, 3)
    rng = make_rng(80)
    for _ in range(100):
        a, b = rng.base_elem(ctx), rng.base_elem(ctx)
        assert ctx.mul(a, b) == ctx.base.mul(a, b)
        assert ctx.add(a, b) == ctx.base.add(a, b)
        x = rand_elem(ctx, rng)
        assert ctx.smul(a, x) == ctx.mul(a, x)
