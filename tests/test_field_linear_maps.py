"""Field arithmetic through F_q-linear maps and, at q = 2, on plain ints.

Each check compares the current route with the one it replaced, whose
body is kept here as the reference:

- multiply at q = 2: a carry-less shift-xor product reduced by the
  modulus as one int, against the schoolbook product of base-q digits
- inverse at q = 2: extended Euclid on GF(2)[z] ints, against _pinvmod
  on digit lists
- Frobenius above the table cap: one linear_map per exponent, against
  the column matrices of x -> x^(q^i) applied digit by digit
- exp and log tables: stepped by the linear map of multiplication by the
  generator, against stepping with the schoolbook product
- subspace_perp: rows read from the trace-dual map D, against rows of
  m traces each
- multiply and divide above the table cap at odd p and q = 4: _pmulmod
  on digit lists, against the schoolbook product; _pdivmod itself is
  checked for a = quot * b + rem with deg rem < deg b
"""

import pickle
import sys
import threading

import pytest

from conftest import make_rng, rand_nonzero

from rankdec import decode_general, encode, field_create
from rankdec.channel import random_code, random_error_vector, random_message
from rankdec.field import (
    FieldCtx,
    _factorize,
    _gf2_invmod,
    _pdivmod,
    _pinvmod,
    _pmul,
    _psub,
    _ptrim,
    _unpack_base,
    kernel_basis,
    subspace_from_vectors,
    subspace_perp,
)


def _schoolbook_mul(ctx, x, y):
    """x * y from base-q digit lists: product, then reduction."""
    if x == 0 or y == 0:
        return 0
    g, q, d = ctx.base, ctx.q, ctx.m
    a = _unpack_base(x, q, d)
    b = _unpack_base(y, q, d)
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] = g.add(conv[i + j], g.mul(ai, bj))
    for e in range(2 * d - 2, d - 1, -1):
        c = conv[e]
        if c:
            conv[e] = 0
            off = e - d
            for i in range(d):
                mi = ctx.ext_modulus[i]
                if mi:
                    conv[off + i] = g.sub(conv[off + i], g.mul(c, mi))
    return ctx.pack(conv[:d])


def _schoolbook_pow(ctx, x, e):
    result = 1
    while e:
        if e & 1:
            result = _schoolbook_mul(ctx, result, x)
        x = _schoolbook_mul(ctx, x, x)
        e >>= 1
    return result


def _digit_list_inv(ctx, x):
    return ctx.pack(_pinvmod(ctx.base, _ptrim(_unpack_base(x, ctx.q, ctx.m)), ctx.ext_modulus))


def _frob_columns(ctx):
    """Columns of x -> x^(q^i) in the polynomial basis, for every i < m."""
    F, m = ctx.base, ctx.m
    cols1 = tuple(tuple(ctx.digits(_schoolbook_pow(ctx, b, ctx.q))) for b in ctx.basis)
    mats = [tuple(tuple(1 if r == a else 0 for r in range(m)) for a in range(m)), cols1]
    for _ in range(2, m):
        prev = mats[-1]
        nxt = []
        for a in range(m):
            acc = [0] * m
            for b, coeff in enumerate(prev[a]):
                if coeff:
                    col = cols1[b]
                    for r in range(m):
                        if col[r]:
                            acc[r] = F.add(acc[r], F.mul(coeff, col[r]))
            nxt.append(tuple(acc))
        mats.append(tuple(nxt))
    return mats


def _column_frob(ctx, cols, x):
    F = ctx.base
    acc = [0] * ctx.m
    for a, d in enumerate(ctx.digits(x)):
        if d:
            for r in range(ctx.m):
                if cols[a][r]:
                    acc[r] = F.add(acc[r], F.mul(d, cols[a][r]))
    return ctx.pack(acc)


def _stepped_tables(ctx):
    """exp and log tables stepped by the schoolbook product, with the
    smallest generator chosen by schoolbook powers."""
    period = ctx.order - 1
    primes = _factorize(period)
    gen = next(
        c for c in range(2, ctx.order) if all(_schoolbook_pow(ctx, c, period // r) != 1 for r in primes)
    )
    exp, log = [0] * period, [-1] * ctx.order
    acc = 1
    for i in range(period):
        exp[i] = acc
        log[acc] = i
        acc = _schoolbook_mul(ctx, acc, gen)
    assert acc == 1
    return exp, log


def _trace_row_perp(ctx, space):
    m = ctx.m
    if space.dim == 0:
        return tuple(tuple(1 if j == i else 0 for j in range(m)) for i in range(m))
    rows = [[ctx.trace(ctx.mul(ctx.pack(row), b)) for b in ctx.basis] for row in space.basis]
    return tuple(tuple(r) for r in kernel_basis(ctx, rows, m))


@pytest.mark.parametrize("m", [16, 19, 20, 24, 31])
def test_gf2_multiply_and_inverse_match_the_digit_lists(m):
    ctx = field_create(2, m)
    rng = make_rng(500 + m)
    elems = [1, 2, ctx.order - 1, 1 << (m - 1)] + [rand_nonzero(ctx, rng) for _ in range(40)]
    for x, y in zip(elems, elems[1:] + elems[:1]):
        assert ctx._mul_slow(x, y) == _schoolbook_mul(ctx, x, y)
        assert ctx._mul_slow(x, 0) == ctx._mul_slow(0, y) == 0
        inv = _digit_list_inv(ctx, x)
        assert _gf2_invmod(x, ctx._mod) == inv
        assert ctx.inv(x) == inv and 0 < inv < ctx.order
        assert ctx.mul(x, y) == _schoolbook_mul(ctx, x, y)


@pytest.mark.parametrize("q,m", [(3, 12), (4, 10), (5, 8)])
def test_tableless_multiply_and_divide_match_the_digit_lists(q, m):
    ctx = field_create(q, m)
    assert ctx._exp is None
    rng = make_rng(600 + 10 * q + m)
    elems = [1, q - 1, ctx.order - 1, q ** (m - 1)] + [rand_nonzero(ctx, rng) for _ in range(30)]
    for x, y in zip(elems, elems[1:] + elems[:1]):
        assert ctx.mul(x, y) == _schoolbook_mul(ctx, x, y)
        assert ctx.mul(x, 0) == ctx.mul(0, y) == 0
        quot = ctx.div(x, y)
        assert quot == _schoolbook_mul(ctx, x, _digit_list_inv(ctx, y))
        assert _schoolbook_mul(ctx, quot, y) == x
        assert ctx.div(0, y) == 0
    with pytest.raises(ZeroDivisionError):
        ctx.div(elems[-1], 0)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_polynomial_division_leaves_a_remainder_of_lower_degree(q):
    F = field_create(q, 1).base  # F_q itself
    rng = make_rng(40 + q)
    leads = set()
    for _ in range(300):
        b = [rng.below(q) for _ in range(rng.below(6))] + [1 + rng.below(q - 1)]
        a = _ptrim([rng.below(q) for _ in range(rng.below(14))])
        quot, rem = _pdivmod(F, a, b)
        assert len(rem) < len(b) and (not rem or rem[-1])
        assert _psub(F, a, _pmul(F, quot, b)) == rem
        leads.add(b[-1])
    assert 1 in leads and len(leads) == q - 1  # monic and non-monic divisors both ran


def test_gf2_inverse_of_a_multiple_of_the_modulus_raises():
    ctx = field_create(2, 20)
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        _gf2_invmod(ctx._mod << 3, ctx._mod)


@pytest.mark.parametrize("q,m", [(2, 19), (2, 20), (3, 12), (4, 10)])
def test_frobenius_maps_match_the_column_matrices(q, m):
    ctx = FieldCtx(q, m)  # a fresh context, so every map is built here
    assert ctx._exp is None
    mats = _frob_columns(ctx)
    rng = make_rng(700 + 10 * q + m)
    elems = [0, 1, ctx.order - 1] + [rand_nonzero(ctx, rng) for _ in range(12)]
    for i in range(m):
        for x in elems:
            assert ctx.frob(x, i) == _column_frob(ctx, mats[i], x)
        assert ctx.frob(elems[-1], i + m) == ctx.frob(elems[-1], i - m) == ctx.frob(elems[-1], i)


@pytest.mark.parametrize("q,m", [(2, 12), (2, 16), (3, 5), (3, 8), (4, 4), (4, 7)])
def test_log_tables_match_the_schoolbook_stepped_ones(q, m):
    ctx = field_create(q, m)
    exp, log = _stepped_tables(ctx)
    assert ctx._exp == exp
    assert ctx._log == log


@pytest.mark.parametrize("q,m", [(2, 8), (3, 5), (4, 4), (2, 19)])
def test_subspace_perp_matches_the_trace_rows(q, m):
    ctx = field_create(q, m)
    rng = make_rng(900 + 10 * q + m)
    for dim in (0, 1, 2, m // 2, m - 1, m):
        for _ in range(3):
            vecs = [ctx.digits(rng.elem(ctx)) for _ in range(dim)]
            space = subspace_from_vectors(ctx, m, vecs)
            perp = subspace_perp(ctx, space)
            assert perp.basis == _trace_row_perp(ctx, space)
            assert perp.dim == m - space.dim
    full = subspace_from_vectors(ctx, m, [ctx.digits(b) for b in ctx.basis])
    assert full.dim == m and subspace_perp(ctx, full).dim == 0


@pytest.mark.parametrize("q,m,n,k", [(2, 20, 6, 2), (4, 10, 4, 2)])
def test_tableless_context_pickles_and_decodes_identically_with_filled_maps(q, m, n, k):
    ctx = FieldCtx(q, m)
    code = random_code(ctx, n, k, seed=60 + q)
    msg = random_message(ctx, k, seed=61 + q)
    err = random_error_vector(ctx, n, (n - k) // 2, seed=62 + q)
    word = tuple(ctx.add(a, b) for a, b in zip(encode(code, msg), err))
    first = decode_general(code, word)
    assert first.ok and first.message == msg
    assert any(f is not None for f in ctx._frob_maps)
    again = pickle.loads(pickle.dumps(code))
    assert again == code and again.ctx == ctx and again.ctx is not ctx
    assert again.ctx._frob_maps is not ctx._frob_maps
    assert [f is None for f in again.ctx._frob_maps] == [f is None for f in ctx._frob_maps]
    assert decode_general(again, word) == first
    x = 12345 % ctx.order
    assert [again.ctx.frob(x, i) for i in range(m)] == [ctx.frob(x, i) for i in range(m)]


def test_frobenius_maps_filled_by_racing_threads_agree():
    # the maps are filled on first use without a lock; a race builds the
    # same map twice, so every thread must still see the same images
    m = 20
    elems = [1, 3, 12345, (1 << m) - 1, 0xABCDE]
    expected = [[FieldCtx(2, m).frob(x, i) for i in range(m)] for x in elems]
    ctx = FieldCtx(2, m)
    results = []

    def work():
        results.append([[ctx.frob(x, i) for i in range(m)] for x in elems])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(threads)
