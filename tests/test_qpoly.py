"""The q-polynomial ring: evaluation, composition, division, adjoint,
interpolation, subspace and annihilator polynomials."""

import pytest

from conftest import make_rng, rand_elem, rand_independent, rand_qpoly

from rankdec import (
    DependentPoints,
    DivisionByZeroPoly,
    QPoly,
    RankMismatch,
    Subspace,
    co_interpolator,
    col_support,
    field_create,
    interpolate,
    rank,
    right_annihilator,
    subspace_elements,
    subspace_from_vectors,
    subspace_perp,
    subspace_poly,
)


def test_zero_poly_sentinel_degree():
    ctx = field_create(2, 4)
    z = QPoly.zero(ctx)
    assert z.is_zero and z.qdeg is None
    assert QPoly.x(ctx).qdeg == 0
    with pytest.raises(TypeError):
        z.qdeg < 2  # comparing the sentinel must fail loudly


def test_coefficients_fold_modulo_field_identity():
    # X^(q^m) acts as X, so a coefficient at index m folds onto index 0
    ctx = field_create(2, 3)
    p = QPoly(ctx, [0, 0, 0, 1])
    assert p == QPoly.x(ctx)


def test_eval_identity_and_fq_vanishing():
    ctx = field_create(3, 2)
    x_poly = QPoly.x(ctx)
    rng = make_rng(1)
    for _ in range(30):
        v = rand_elem(ctx, rng)
        assert x_poly.eval(v) == v
    vanisher = QPoly(ctx, (ctx.neg(1), 1))  # X^q - X kills the base field
    for c in range(ctx.q):
        assert vanisher.eval(c) == 0


def test_eval_is_fq_linear():
    ctx = field_create(2, 8)
    rng = make_rng(2)
    for _ in range(100):
        p = rand_qpoly(ctx, rng, 4)
        x, y = rand_elem(ctx, rng), rand_elem(ctx, rng)
        a, b = rng.base_elem(ctx), rng.base_elem(ctx)
        lhs = p.eval(ctx.add(ctx.smul(a, x), ctx.smul(b, y)))
        rhs = ctx.add(ctx.smul(a, p.eval(x)), ctx.smul(b, p.eval(y)))
        assert lhs == rhs


def test_compose_examples_and_agreement():
    ctx2 = field_create(2, 2)
    frob_mono = QPoly.monomial(ctx2, 1)
    assert frob_mono.compose(frob_mono) == QPoly.x(ctx2)  # X^(q^2) acts as X
    ctx = field_create(2, 6)
    rng = make_rng(3)
    for _ in range(100):
        p = rand_qpoly(ctx, rng, 4)
        q_poly = rand_qpoly(ctx, rng, 3)
        assert p.compose(QPoly.x(ctx)) == p
        x = rand_elem(ctx, rng)
        assert p.compose(q_poly).eval(x) == p.eval(q_poly.eval(x))


def test_compose_distributes_and_associates():
    ctx = field_create(3, 3)
    rng = make_rng(4)
    for _ in range(100):
        a = rand_qpoly(ctx, rng, 3)
        b = rand_qpoly(ctx, rng, 2)
        c = rand_qpoly(ctx, rng, 2)
        assert a.compose(b.compose(c)) == a.compose(b).compose(c)
        assert a.compose(b + c) == a.compose(b) + a.compose(c)
        assert (a + b).compose(c) == a.compose(c) + b.compose(c)


def test_rdiv_by_x_is_trivial():
    ctx = field_create(2, 5)
    rng = make_rng(5)
    p = rand_qpoly(ctx, rng, 4)
    quot, rem = p.rdiv(QPoly.x(ctx))
    assert quot == p and rem.is_zero


def test_rdiv_round_trip_on_built_composition():
    ctx = field_create(2, 8)
    rng = make_rng(6)
    for _ in range(100):
        c = rand_qpoly(ctx, rng, 3)
        lam = rand_qpoly(ctx, rng, 3, monic=True)
        quot, rem = c.compose(lam).rdiv(lam)
        assert rem.is_zero and quot == c


def test_rdiv_example_remainder_degree():
    ctx = field_create(2, 4)
    p = QPoly.monomial(ctx, 2)  # X^(q^2)
    d = QPoly(ctx, (1, 1))  # X^q + X
    quot, rem = p.rdiv(d)
    assert rem.qdeg == 0
    assert quot.compose(d) + rem == p


def test_division_identities_random_both_sides():
    ctx = field_create(2, 7)
    rng = make_rng(7)
    for _ in range(100):
        p = rand_qpoly(ctx, rng, 6)
        d = rand_qpoly(ctx, rng, 3, monic=True)
        for which in ("r", "l"):
            if which == "r":
                quot, rem = p.rdiv(d)
                recomposed = quot.compose(d) + rem
            else:
                quot, rem = p.ldiv(d)
                recomposed = d.compose(quot) + rem
            assert recomposed == p
            if not rem.is_zero:
                assert rem.qdeg < d.qdeg


def test_division_by_zero_poly():
    ctx = field_create(2, 4)
    p = QPoly.x(ctx)
    with pytest.raises(DivisionByZeroPoly):
        p.rdiv(QPoly.zero(ctx))
    with pytest.raises(DivisionByZeroPoly):
        p.ldiv(QPoly.zero(ctx))


def test_adjoint_involution_and_antihomomorphism():
    ctx = field_create(2, 6)
    assert QPoly.x(ctx).adjoint() == QPoly.x(ctx)
    rng = make_rng(8)
    for _ in range(100):
        p = rand_qpoly(ctx, rng, 4)
        q_poly = rand_qpoly(ctx, rng, 3)
        assert p.adjoint().adjoint() == p
        assert p.compose(q_poly).adjoint() == q_poly.adjoint().compose(p.adjoint())


def test_adjoint_trace_identity():
    for qq, mm in ((2, 8), (3, 3)):
        ctx = field_create(qq, mm)
        rng = make_rng(9)
        for _ in range(100):
            p = rand_qpoly(ctx, rng, 3)
            x, y = rand_elem(ctx, rng), rand_elem(ctx, rng)
            assert ctx.trace(ctx.mul(y, p.eval(x))) == ctx.trace(
                ctx.mul(p.adjoint().eval(y), x)
            )


def _image_space(ctx, poly):
    return subspace_from_vectors(ctx, ctx.m, [ctx.digits(poly.eval(b)) for b in ctx.basis])


def test_adjoint_swaps_image_and_kernel_perp():
    ctx = field_create(2, 5)
    rng = make_rng(10)
    for _ in range(50):
        p = rand_qpoly(ctx, rng, 3)
        adj = p.adjoint()
        assert _image_space(ctx, adj) == subspace_perp(ctx, p.kernel())
        assert adj.kernel() == subspace_perp(ctx, _image_space(ctx, p))


def test_interpolate_single_point_and_zero_values():
    ctx = field_create(2, 4)
    rng = make_rng(11)
    g = 7
    v = rand_elem(ctx, rng)
    p = interpolate(ctx, (g,), (v,))
    assert p.qdeg == 0 and p.coeffs[0] == ctx.div(v, g)
    pts = rand_independent(ctx, rng, 3)
    assert interpolate(ctx, pts, (0, 0, 0)).is_zero


def test_interpolate_round_trip_and_uniqueness():
    ctx = field_create(2, 8)
    rng = make_rng(12)
    for _ in range(100):
        pts = rand_independent(ctx, rng, 5)
        p = rand_qpoly(ctx, rng, 5)
        got = interpolate(ctx, pts, tuple(p.eval(x) for x in pts))
        assert got == p


def test_interpolate_rejects_dependent_points():
    ctx = field_create(2, 4)
    with pytest.raises(DependentPoints):
        interpolate(ctx, (3, 3), (1, 2))
    with pytest.raises(DependentPoints):
        interpolate(ctx, (1, 2, 3), (0, 0, 0))  # 3 = 1 + 2 in coordinates
    with pytest.raises(DependentPoints):
        interpolate(ctx, tuple(range(1, 7)), (0,) * 6)  # more than m points


def test_interpolate_rejects_ints_outside_the_field():
    ctx = field_create(2, 8)
    with pytest.raises(ValueError):
        interpolate(ctx, [1 << 20], [1])
    with pytest.raises(ValueError):
        interpolate(ctx, [1], [1 << 20])


def test_subspace_poly_trivial_and_fq_line():
    ctx = field_create(2, 5)
    assert subspace_poly(ctx, subspace_from_vectors(ctx, 5, [])) == QPoly.x(ctx)
    line = subspace_from_vectors(ctx, 5, [ctx.digits(1)])
    assert subspace_poly(ctx, line) == QPoly(ctx, (1, 1))  # X^q + X kills F_q


def test_subspace_poly_exhaustive_kernel():
    ctx = field_create(2, 5)
    rng = make_rng(13)
    for _ in range(20):
        vecs = [ctx.digits(x) for x in rand_independent(ctx, rng, 2)]
        space = subspace_from_vectors(ctx, 5, vecs)
        poly = subspace_poly(ctx, space)
        assert poly.qdeg == 2 and poly.coeffs[-1] == 1
        members = {ctx.pack(v) for v in subspace_elements(ctx, space)}
        assert len(members) == 4
        for x in range(ctx.order):
            assert (poly.eval(x) == 0) == (x in members)


def test_co_interpolator_full_space_is_scalar():
    ctx = field_create(2, 4)
    full = subspace_perp(ctx, subspace_from_vectors(ctx, 4, []))
    g = co_interpolator(ctx, full)
    assert g.qdeg == 0 and g.coeffs[0] != 0


def test_co_interpolator_codimension_one_exhaustive():
    ctx = field_create(2, 4)
    rng = make_rng(14)
    for _ in range(20):
        vecs = [ctx.digits(x) for x in rand_independent(ctx, rng, 3)]
        space = subspace_from_vectors(ctx, 4, vecs)
        g = co_interpolator(ctx, space)
        assert g.qdeg is not None and g.qdeg <= 1
        image = {g.eval(x) for x in range(ctx.order)}
        assert image == {ctx.pack(v) for v in subspace_elements(ctx, space)}


def test_co_interpolator_image_is_span_of_points():
    ctx = field_create(2, 7)
    rng = make_rng(15)
    for _ in range(20):
        pts = rand_independent(ctx, rng, 4)
        space = col_support(ctx, pts)
        g = co_interpolator(ctx, space)
        assert g.qdeg <= ctx.m - 4
        assert _image_space(ctx, g) == space


def test_right_annihilator_zero_map():
    ctx = field_create(2, 4)
    assert right_annihilator(QPoly.zero(ctx), 0) == QPoly.x(ctx)


def test_right_annihilator_rejects_bijective_and_mismatch():
    ctx = field_create(2, 4)
    with pytest.raises(ValueError):
        right_annihilator(QPoly.x(ctx), ctx.m)
    with pytest.raises(RankMismatch):
        right_annihilator(QPoly.x(ctx), 2)  # identity has rank m, not 2


def _random_poly_of_rank(ctx, rng, t):
    # kill a random (m - t)-dimensional space, then mix from the left
    vecs = [ctx.digits(x) for x in rand_independent(ctx, rng, ctx.m - t)]
    killer = subspace_poly(ctx, subspace_from_vectors(ctx, ctx.m, vecs))
    while True:
        mixed = rand_qpoly(ctx, rng, ctx.m - 1).compose(killer)
        if mixed.rank() == t:
            return mixed


def test_right_annihilator_random_rank_two():
    ctx = field_create(2, 5)
    rng = make_rng(16)
    for _ in range(20):
        e_poly = _random_poly_of_rank(ctx, rng, 2)
        lam = right_annihilator(e_poly, 2)
        assert lam.qdeg == 2 and lam.coeffs[-1] == 1
        assert e_poly.compose(lam).is_zero


def test_qpoly_rank_and_kernel_two_path():
    ctx = field_create(2, 5)
    assert QPoly.x(ctx).rank() == 5
    assert QPoly.zero(ctx).rank() == 0
    rng = make_rng(17)
    for _ in range(50):
        p = rand_qpoly(ctx, rng, 4)
        cols = [ctx.digits(p.eval(b)) for b in ctx.basis]
        independent = rank(ctx, [[cols[a][r] for a in range(5)] for r in range(5)])
        assert p.rank() == independent
        assert p.kernel().dim == 5 - independent
        if not p.is_zero:
            assert p.kernel().dim <= p.qdeg


def test_qpoly_json_round_trip():
    ctx = field_create(3, 4)
    rng = make_rng(18)
    for _ in range(20):
        p = rand_qpoly(ctx, rng, 4)
        assert QPoly.from_coeff_lists(ctx, p.to_coeff_lists()) == p
