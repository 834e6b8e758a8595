"""The dual-basis assembly of the locator system against the construction
it replaced.

The reference below evaluates every F_{q^m} coefficient Y_i(b_a * g_j^(q^e))
of the (Y_i o L)(g_j) = N_i(g_j) system and splits it into its m digits:
bit by bit into packed rows at q = 2, through ``ext`` at odd q.  The
library builds each digit row directly as D(Y_i*(beta_r) * g_j^(q^e)).
Both must give the same rows, in the same order.
"""

import pickle

import pytest

from conftest import make_rng, rand_elem, rand_independent, rand_qpoly

from rankdec import (
    derive_seed,
    effective_equations,
    encode,
    field_create,
    icode_new,
    iencode,
    interpolate,
    kernel_basis,
    random_burst_error,
    random_code,
    random_error_vector,
    random_message,
)
from rankdec.field import _plane_digits, _unpack_base, col_support, ext
from rankdec.gabidulin import _locator_candidates, _locator_rows
from rankdec.qpoly import co_interpolator


def _reference_rows(ctx, points, interps, k, t):
    """Evaluate-then-scatter rows: packed ints at q = 2, digit lists otherwise."""
    m = ctx.m
    n = len(points)
    u = len(interps)
    blk = k + t
    ncols = m * (t + 1 + u * blk)
    max_e = max(t, blk - 1)
    frob_pts = [[ctx.frob(gj, e) for e in range(max_e + 1)] for gj in points]
    basis = ctx.basis
    lam_args = [
        [[ctx.mul(basis[a], frob_pts[j][e]) for a in range(m)] for e in range(t + 1)]
        for j in range(n)
    ]
    num_vals = [
        [[ctx.neg(ctx.mul(basis[c], frob_pts[j][l])) for c in range(m)] for l in range(blk)]
        for j in range(n)
    ]

    def equation_coeffs(i, j):
        kvals = [0] * ncols
        pos = 0
        for e in range(t + 1):
            for arg in lam_args[j][e]:
                kvals[pos] = interps[i].eval(arg)
                pos += 1
        base = m * (t + 1) + i * m * blk
        for l in range(blk):
            kvals[base + l * m : base + (l + 1) * m] = num_vals[j][l]
        return kvals

    rows = []
    for i in range(u):
        for j in range(n):
            if ctx.q == 2:
                rowbuf = [0] * m
                for col, v in enumerate(equation_coeffs(i, j)):
                    while v:
                        low = v & -v
                        rowbuf[low.bit_length() - 1] |= 1 << col
                        v ^= low
                rows.extend(rowbuf)
            else:
                rows.extend(ext(ctx, equation_coeffs(i, j)))
    return rows


def _check_same_rows(ctx, points, interps, k, t):
    got = _locator_rows(ctx, points, interps, k, t)
    want = _reference_rows(ctx, points, interps, k, t)
    assert len(got) == len(interps) * len(points) * ctx.m
    if ctx.q == 2:
        assert got == want
    else:
        ncols = ctx.m * (t + 1 + len(interps) * (k + t))
        assert [_plane_digits(lo, hi, ncols) for lo, hi in got] == want


def _received(ctx, code, t, u, seed):
    """u rows of seeded codewords plus an error of rank t per row."""
    rows = []
    for r in range(u):
        msg = random_message(ctx, code.k, derive_seed(seed, 10 + r))
        err = random_error_vector(ctx, code.n, t, derive_seed(seed, 20 + r))
        rows.append(tuple(ctx.add(a, b) for a, b in zip(encode(code, msg), err)))
    return rows


FULL_LENGTH = [(2, 8, 2, 3), (2, 6, 2, 2), (3, 5, 1, 2), (4, 4, 1, 1), (4, 5, 1, 2)]


@pytest.mark.parametrize("q,m,k,t", FULL_LENGTH)
@pytest.mark.parametrize("u", [1, 3])
def test_full_length_rows_match_reference(q, m, k, t, u):
    ctx = field_create(q, m)
    for trial in range(3):
        s = derive_seed(q * 100 + m * 10 + u, trial)
        code = random_code(ctx, m, k, derive_seed(s, 1))
        interps = [interpolate(ctx, code.g, row) for row in _received(ctx, code, t, u, s)]
        _check_same_rows(ctx, code.g, interps, k, t)


@pytest.mark.parametrize("q,m,n,k,t", [(2, 8, 6, 2, 2), (3, 5, 4, 1, 1), (4, 4, 3, 1, 1)])
@pytest.mark.parametrize("u", [1, 3])
def test_lifted_inner_rows_match_reference(q, m, n, k, t, u):
    # the inner full-length system a short code is decoded through
    ctx = field_create(q, m)
    s = derive_seed(q * 1000 + n, u)
    code = random_code(ctx, n, k, derive_seed(s, 1))
    g_poly = co_interpolator(ctx, col_support(ctx, code.g))
    lifted = [
        interpolate(ctx, code.g, row).compose(g_poly) for row in _received(ctx, code, t, u, s)
    ]
    interps = [interpolate(ctx, ctx.basis, [y.eval(b) for b in ctx.basis]) for y in lifted]
    _check_same_rows(ctx, ctx.basis, interps, k + m - n, t)


@pytest.mark.parametrize("q,m", [(2, 19), (3, 12)])
def test_tableless_rows_match_reference(q, m):
    ctx = field_create(q, m)
    rng = make_rng(q * 100 + m)
    n, k, t = 3, 1, 1
    points = rand_independent(ctx, rng, n)
    for u in (1, 3):
        interps = [rand_qpoly(ctx, rng, n) for _ in range(u)]
        _check_same_rows(ctx, points, interps, k, t)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 8), (3, 5), (4, 4), (5, 3), (2, 19), (3, 12)])
def test_trace_dual_basis_and_dual_coordinates(q, m):
    ctx = field_create(q, m)
    beta, dual = ctx.trace_dual()
    assert ctx.trace_dual() is ctx.trace_dual()
    for r, b in enumerate(beta):
        assert [ctx.trace(ctx.mul(b, ba)) for ba in ctx.basis] == [int(r == a) for a in range(m)]
    rng = make_rng(q * 10 + m)
    for _ in range(8):
        z = rand_elem(ctx, rng)
        digits = [ctx.trace(ctx.mul(z, ba)) for ba in ctx.basis]
        assert list(ctx.digits(dual(z))) == digits
        # digit r of z is Tr(beta_r * z)
        assert [ctx.trace(ctx.mul(b, z)) for b in beta] == list(ctx.digits(z))
    # the cache travels with the context, as to a worker process
    again = pickle.loads(pickle.dumps(ctx))
    assert again == ctx and again.trace_dual()[0] == beta
    assert [again.trace_dual()[1](z) for z in range(min(ctx.order, 64))] == [
        dual(z) for z in range(min(ctx.order, 64))
    ]


def test_effective_equations_unchanged_on_an_underdetermined_word():
    ctx = field_create(2, 12)
    code = random_code(ctx, 12, 4, seed=19)
    icode = icode_new(code, 3)
    msgs = [random_message(ctx, 4, seed=300 + i) for i in range(3)]
    err = random_burst_error(ctx, 3, 12, 6, 1, seed=401)
    word = [tuple(ctx.add(a, b) for a, b in zip(c, e)) for c, e in zip(iencode(icode, msgs), err)]
    interps = [interpolate(ctx, code.g, row) for row in word]
    _, diag = _locator_candidates(ctx, code.g, interps, 4, 6)
    ncols = 12 * (7 + 3 * 10)
    ref = _reference_rows(ctx, code.g, interps, 4, 6)
    ref_dim = len(kernel_basis(ctx, [_unpack_base(v, 2, ncols) for v in ref], ncols))
    assert diag["underdetermined"] and diag["kernel_dim"] == ref_dim == 60
    assert effective_equations(icode, word, t=6) == 12
