"""The kernel on bit planes over F_3 and F_4, and the plane form of the map
D that the locator rows are read from.

field._planes_kernel reduces rows held as two bit planes and reads the
kernel off the free columns only; kernel_basis at q = 3 and 4 goes through
it.  The reference is the kernel that test_plane_rref builds with
_generic_rref, entry by entry: the canonical basis is unique, so both must
agree exactly.  gabidulin._dual_planes is D(z) = (Tr(z * b_a))_a of
FieldCtx.trace_dual with its images held as bit planes.
"""

import pytest

from conftest import make_rng, rand_elem
from test_plane_rref import _matrices, _product, _random, _reference_kernel

from rankdec import field, field_create, kernel_basis
from rankdec.gabidulin import _dual_planes

QS = (3, 4)


def _full_column_rank(ctx, rng):
    """Random rows over an identity block: the kernel is empty."""
    out = []
    for ncols in (1, 5, 13):
        ident = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        out += [_random(ctx, rng, ncols + 3, ncols) + ident, ident[::-1]]
    return out


def _wide(ctx, rng):
    """Wider than 128 columns, so each plane is a multi-digit int; the
    product has a large kernel whose vectors reach past bit 128."""
    return [
        _random(ctx, rng, 5, 140),
        _product(ctx, _random(ctx, rng, 12, 2), _random(ctx, rng, 2, 131)),
    ]


def _planes_kernel_digits(ctx, rows, ncols):
    lo, hi = field._pack_planes(rows)
    return [field._plane_digits(a, b, ncols) for a, b in field._planes_kernel(lo, hi, ncols, ctx.q)]


@pytest.mark.parametrize("q", QS)
def test_planes_kernel_matches_generic_reference(q):
    ctx = field_create(q, 2)
    rng = make_rng(1100 + q)
    cases = _matrices(ctx, rng) + _full_column_rank(ctx, rng) + _wide(ctx, rng)
    empty = 0
    for rows in cases:
        ncols = len(rows[0])
        want = _reference_kernel(ctx, rows, ncols)
        assert _planes_kernel_digits(ctx, rows, ncols) == want
        assert kernel_basis(ctx, rows, ncols) == want
        empty += not want
    assert empty >= 6  # the full-column-rank cases did reach an empty kernel


@pytest.mark.parametrize("q,m", [(3, 5), (4, 4), (3, 8), (4, 7), (3, 12), (4, 10)])
def test_plane_dual_map_matches_trace_dual(q, m):
    ctx = field_create(q, m)
    dual = ctx.trace_dual()[1]
    planes = _dual_planes(ctx)
    assert _dual_planes(ctx) is planes  # built once per field
    rng = make_rng(1200 + 10 * q + m)
    if ctx.order <= 256:
        zs = list(range(ctx.order))
    else:
        zs = [0, 1, ctx.order - 1] + list(ctx.basis) + [rand_elem(ctx, rng) for _ in range(200)]
    for z in zs:
        lo, hi = planes(z)
        assert lo >> m == hi >> m == 0
        if q == 3:
            assert lo & hi == 0
        assert field._plane_digits(lo, hi, m) == list(ctx.digits(dual(z)))
