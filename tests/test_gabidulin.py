"""Gabidulin encoding and the rank-error decoder, full length and n < m."""

import pickle

import pytest

from conftest import make_rng, rand_elem, rand_independent, rand_qpoly

from rankdec import (
    DegreeTooLarge,
    DependentEvaluationPoints,
    DimensionTooLarge,
    QPoly,
    RadiusTooLarge,
    code_from_json,
    code_new,
    code_to_json,
    co_interpolator,
    col_support,
    decode_full,
    decode_general,
    derive_seed,
    encode,
    field_create,
    interpolate,
    random_code,
    random_error_vector,
    random_message,
    rank_weight,
)
from rankdec.gabidulin import _locator_candidates


def _noisy_word(ctx, code, msg, err):
    return tuple(ctx.add(a, b) for a, b in zip(encode(code, msg), err))


def test_code_new_accepts_basis_prefix_and_validates():
    ctx = field_create(2, 6)
    for k in (1, 3, 6):
        code = code_new(ctx, ctx.basis, k)
        assert code.n == 6
    with pytest.raises(DependentEvaluationPoints):
        code_new(ctx, (1, 1), 1)
    with pytest.raises(DimensionTooLarge):
        code_new(ctx, ctx.basis[:3], 4)
    rng = make_rng(1)
    g = rand_independent(ctx, rng, 4)
    assert code_new(ctx, g, 2).n == 4


def test_encode_zero_scaling_and_linearity():
    ctx = field_create(2, 6)
    code = code_new(ctx, ctx.basis[:4], 2)
    assert encode(code, QPoly.zero(ctx)) == (0, 0, 0, 0)
    rng = make_rng(2)
    c = rand_elem(ctx, rng)
    assert encode(code_new(ctx, ctx.basis[:4], 1), QPoly(ctx, (c,))) == tuple(
        ctx.mul(c, g) for g in ctx.basis[:4]
    )
    for _ in range(50):
        m1, m2 = rand_qpoly(ctx, rng, 2), rand_qpoly(ctx, rng, 2)
        a = rand_elem(ctx, rng)
        lhs = encode(code, m1.scale(a) + m2)
        rhs = tuple(ctx.add(ctx.mul(a, x), y) for x, y in zip(encode(code, m1), encode(code, m2)))
        assert lhs == rhs
    with pytest.raises(DegreeTooLarge):
        encode(code, rand_qpoly(ctx, rng, 3, monic=True))


def test_decode_full_error_free_and_radius_check():
    ctx = field_create(2, 8)
    code = random_code(ctx, 8, 2, seed=3)
    msg = random_message(ctx, 2, seed=4)
    word = encode(code, msg)
    out = decode_full(code, word, 0)
    assert out.ok and out.message == msg and out.error == (0,) * 8
    assert decode_full(code, word).ok  # default radius
    with pytest.raises(RadiusTooLarge):
        decode_full(code, word, 4)
    with pytest.raises(ValueError):
        decode_full(random_code(ctx, 6, 2, seed=5), (0,) * 6, 1)


def test_decode_full_seeded_round_trips():
    ctx = field_create(2, 8)
    for t in (1, 2, 3):
        for trial in range(40):
            s = derive_seed(1000 + t, trial)
            code = random_code(ctx, 8, 2, derive_seed(s, 1))
            msg = random_message(ctx, 2, derive_seed(s, 2))
            err = random_error_vector(ctx, 8, t, derive_seed(s, 3))
            word = _noisy_word(ctx, code, msg, err)
            out = decode_full(code, word, t)
            assert out.ok and out.message == msg
            # success invariants: codeword = encode(msg), word = codeword + error
            assert out.codeword == encode(code, out.message)
            assert word == tuple(ctx.add(a, b) for a, b in zip(out.codeword, out.error))
            assert rank_weight(ctx, out.error) == t
            assert not out.locator.is_zero


def test_decode_full_smaller_actual_rank_is_covered():
    # the system is solved once at t; smaller true error ranks still decode
    ctx = field_create(2, 8)
    code = random_code(ctx, 8, 2, seed=6)
    msg = random_message(ctx, 2, seed=7)
    for actual in (0, 1, 2):
        err = random_error_vector(ctx, 8, actual, seed=8 + actual)
        out = decode_full(code, _noisy_word(ctx, code, msg, err), 3)
        assert out.ok and out.message == msg


def test_every_validating_kernel_candidate_gives_same_message():
    ctx = field_create(2, 8)
    code = random_code(ctx, 8, 2, seed=9)
    msg = random_message(ctx, 2, seed=10)
    err = random_error_vector(ctx, 8, 3, seed=11)
    word = _noisy_word(ctx, code, msg, err)
    y_poly = interpolate(ctx, code.g, word)
    cands, _ = _locator_candidates(ctx, code.g, (y_poly,), code.k, 3)
    recovered = set()
    for lam, (num,) in list(cands)[::-1]:  # reversed order: result must not change
        if lam.is_zero:
            assert num.is_zero
            continue
        quot, rem = num.rdiv(lam)
        if rem.is_zero and (quot.qdeg is None or quot.qdeg < code.k):
            if rank_weight(ctx, tuple(ctx.sub(a, b) for a, b in zip(word, encode(code, quot)))) <= 3:
                recovered.add(quot)
    assert recovered == {msg}


def test_decode_is_deterministic():
    ctx = field_create(2, 8)
    code = random_code(ctx, 8, 2, seed=12)
    msg = random_message(ctx, 2, seed=13)
    err = random_error_vector(ctx, 8, 2, seed=14)
    word = _noisy_word(ctx, code, msg, err)
    first = decode_full(code, word, 3)
    second = decode_full(code, word, 3)
    assert first == second


def test_decode_full_reports_failure_beyond_model():
    # a word farther than t from every codeword must yield a diagnosed failure
    ctx = field_create(2, 4)
    code = code_new(ctx, ctx.basis, 1)  # d_min = 4
    msg = random_message(ctx, 1, seed=15)
    err = random_error_vector(ctx, 4, 2, seed=16)  # outside radius 1, inside d_min/2
    out = decode_full(code, _noisy_word(ctx, code, msg, err), 1)
    assert not out.ok and out.reason
    assert out.messages == ()


def test_decode_general_delegates_at_full_length():
    ctx = field_create(2, 6)
    for trial in range(100):
        s = derive_seed(17, trial)
        code = random_code(ctx, 6, 2, derive_seed(s, 1))
        msg = random_message(ctx, 2, derive_seed(s, 2))
        err = random_error_vector(ctx, 6, 2, derive_seed(s, 3))
        word = _noisy_word(ctx, code, msg, err)
        assert decode_general(code, word, 2) == decode_full(code, word, 2)


def test_decode_general_short_code_round_trips():
    ctx = field_create(2, 10)
    code = random_code(ctx, 7, 3, seed=18)
    msg = random_message(ctx, 3, seed=19)
    assert decode_general(code, encode(code, msg), 0).message == msg
    for t in (1, 2):
        for trial in range(40):
            s = derive_seed(20 + t, trial)
            code = random_code(ctx, 7, 3, derive_seed(s, 1))
            msg = random_message(ctx, 3, derive_seed(s, 2))
            err = random_error_vector(ctx, 7, t, derive_seed(s, 3))
            out = decode_general(code, _noisy_word(ctx, code, msg, err), t)
            assert out.ok and out.message == msg
    with pytest.raises(RadiusTooLarge):
        decode_general(code, encode(code, msg), 3)


def test_lifted_decode_beyond_radius_fails_without_raising():
    # beyond the radius the inner full-length decoder may validate a
    # codeword outside the short code's image; that is a failure, not a raise
    ctx = field_create(2, 10)
    s = derive_seed(777, 0)
    code = random_code(ctx, 7, 3, derive_seed(s, 1))
    msg = random_message(ctx, 3, derive_seed(s, 2))
    err = random_error_vector(ctx, 7, 3, derive_seed(s, 3))
    out = decode_general(code, _noisy_word(ctx, code, msg, err))
    assert not out.ok and "outside the short code" in out.reason
    assert out.messages == () and out.diagnostics["candidates_tried"] >= 1

    outside = 0
    for q, m, n, k in ((2, 10, 7, 3), (2, 8, 6, 2), (2, 12, 11, 3), (3, 6, 5, 1)):
        ctx = field_create(q, m)
        t_max = (n - k) // 2
        for r in (t_max + 1, t_max + 2):
            base = derive_seed(31, q * 1000 + m * 100 + n * 10 + k + r * 10000)
            for trial in range(20):
                s = derive_seed(base, trial)
                code = random_code(ctx, n, k, derive_seed(s, 1))
                msg = random_message(ctx, k, derive_seed(s, 2))
                err = random_error_vector(ctx, n, r, derive_seed(s, 3))
                word = _noisy_word(ctx, code, msg, err)
                for t in range(t_max + 1):
                    out = decode_general(code, word, t)
                    if out.ok:
                        assert out.codeword == encode(code, out.message)
                        assert rank_weight(ctx, out.error) <= t
                        assert tuple(ctx.sub(a, b) for a, b in zip(word, out.codeword)) == out.error
                    else:
                        outside += "outside the short code" in out.reason
    assert outside > 0


def test_lifted_interpolator_equals_the_interpolation_of_its_values():
    # the lift hands Y o G to the inner decode as the interpolator of the
    # inner word, its values at the basis; exact since Y o G has q-degree < m
    for q, m, n, k in ((2, 10, 7, 3), (2, 12, 11, 3), (3, 6, 5, 1), (4, 5, 4, 1)):
        ctx = field_create(q, m)
        rng = make_rng(90 + m)
        for trial in range(10):
            code = random_code(ctx, n, k, derive_seed(91 + q, trial))
            g_poly = co_interpolator(ctx, col_support(ctx, code.g))
            word = [rand_elem(ctx, rng) for _ in range(n)]
            lifted = interpolate(ctx, code.g, word).compose(g_poly)
            assert interpolate(ctx, ctx.basis, [lifted.eval(b) for b in ctx.basis]) == lifted


def test_decode_outcome_diagnostics_shape():
    ctx = field_create(2, 8)
    code = random_code(ctx, 8, 2, seed=21)
    msg = random_message(ctx, 2, seed=22)
    err = random_error_vector(ctx, 8, 3, seed=23)
    out = decode_full(code, _noisy_word(ctx, code, msg, err), 3)
    d = out.diagnostics
    assert d["system_rows"] == 8 * 8
    assert d["system_cols"] == 8 * (2 + 2 * 3 + 1)
    assert d["kernel_dim"] >= 1 and d["candidates_tried"] >= 1


def test_code_json_round_trip():
    ctx = field_create(3, 4)
    code = random_code(ctx, 3, 2, seed=24)
    again = code_from_json(code_to_json(code))
    assert again == code
    assert again.ctx == ctx


@pytest.mark.parametrize("q,m,n,k", [(3, 6, 6, 2), (4, 5, 4, 1)])
def test_context_pickles_and_decodes_identically_after_a_decode(q, m, n, k):
    # a decode fills the per-field caches; the context and the code must
    # still travel to a worker process and decode the same there
    ctx = field_create(q, m)
    code = random_code(ctx, n, k, seed=40 + q)
    msg = random_message(ctx, k, seed=41 + q)
    word = _noisy_word(ctx, code, msg, random_error_vector(ctx, n, (n - k) // 2, seed=42 + q))
    first = decode_general(code, word)
    assert first.ok and first.message == msg
    again = pickle.loads(pickle.dumps(code))
    assert again == code and again.ctx.trace_dual()[0] == ctx.trace_dual()[0]
    assert decode_general(again, word) == first
