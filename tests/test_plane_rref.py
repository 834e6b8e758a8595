"""The bit-plane eliminations over F_2, F_3 and F_4 against _generic_rref.

At q = 3 and 4 every F_q elimination runs on rows held as two bit planes;
at q = 2 a row is its lo plane alone, reduced by _gf2_rref.
_generic_rref, which does the same first-nonzero pivoting entry by entry,
is the reference: RREF is unique, so the reduced rows and the pivot
columns must agree exactly, and with them everything the public API
derives from them.
"""

import pytest

from conftest import make_rng

from rankdec import field, field_create, kernel_basis, rank, rref, solve

QS = (2, 3, 4)


def _reference(ctx, rows):
    work = [list(r) for r in rows]
    pivots = field._generic_rref(work, ctx.base)
    return work, pivots


def _reference_kernel(ctx, rows, ncols):
    reduced, pivots = _reference(ctx, rows)
    vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for idx, c in enumerate(pivots):
            v[c] = ctx.base.neg(reduced[idx][f])
        vecs.append(v)
    return _reference(ctx, vecs)[0] if vecs else []


def _random(ctx, rng, nrows, ncols):
    return [[rng.base_elem(ctx) for _ in range(ncols)] for _ in range(nrows)]


def _product(ctx, a, b):
    F = ctx.base
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            acc = [F.add(v, F.mul(x, y)) for v, y in zip(acc, brow)]
        out.append(acc)
    return out


def _matrices(ctx, rng):
    """Random, rank-deficient, zero, one-row and one-column matrices."""
    mats = []
    for _ in range(40):
        nrows, ncols = 1 + rng.below(12), 1 + rng.below(20)
        mats.append(_random(ctx, rng, nrows, ncols))
    for _ in range(40):
        nrows, ncols, inner = 2 + rng.below(12), 2 + rng.below(20), 1 + rng.below(4)
        mats.append(_product(ctx, _random(ctx, rng, nrows, inner), _random(ctx, rng, inner, ncols)))
    mats += [[[0] * 7 for _ in range(5)], [[0]], _random(ctx, rng, 1, 9), _random(ctx, rng, 9, 1)]
    return mats


def _wide(ctx, rng):
    """Matrices wider than 128 columns, whose planes are multi-digit ints."""
    return [
        _random(ctx, rng, 6, 200),
        _random(ctx, rng, 40, 150),
        _product(ctx, _random(ctx, rng, 30, 3), _random(ctx, rng, 3, 140)),
    ]


@pytest.mark.parametrize("q", QS)
def test_reduced_rows_and_pivots_match_generic_rref(q):
    ctx = field_create(q, 2)
    rng = make_rng(700 + q)
    for rows in _matrices(ctx, rng) + _wide(ctx, rng):
        ncols = len(rows[0])
        assert field._rref_with_pivots(ctx, rows, ncols) == _reference(ctx, rows)


@pytest.mark.parametrize("q", QS)
def test_public_api_matches_generic_rref(q):
    ctx = field_create(q, 3)
    rng = make_rng(800 + q)
    # one wide matrix only: the reference kernel of a wide one is slow
    for rows in _matrices(ctx, rng) + [_random(ctx, rng, 3, 130)]:
        ncols = len(rows[0])
        reduced, pivots = _reference(ctx, rows)
        assert rank(ctx, rows) == len(pivots)
        assert rref(ctx, rows) == reduced
        assert kernel_basis(ctx, rows, ncols) == _reference_kernel(ctx, rows, ncols)
        rhs = [rng.base_elem(ctx) for _ in rows]
        aug_reduced, aug_pivots = _reference(ctx, [list(r) + [b] for r, b in zip(rows, rhs)])
        want = None
        if ncols not in aug_pivots:
            want = [0] * ncols
            for idx, c in enumerate(aug_pivots):
                want[c] = aug_reduced[idx][ncols]
        assert solve(ctx, rows, rhs) == want


@pytest.mark.parametrize("q", QS)  # q = 2 included: its rows are one plane
def test_generic_rref_is_not_used_at_q3_and_q4(q, monkeypatch):
    def refuse(rows, F):
        raise AssertionError("_generic_rref reached")

    ctx = field_create(q, 2)
    rows = _random(ctx, make_rng(900 + q), 6, 9)
    monkeypatch.setattr(field, "_generic_rref", refuse)
    rank(ctx, rows)
    rref(ctx, rows)
    kernel_basis(ctx, rows)
    solve(ctx, rows, [1] * 6)
