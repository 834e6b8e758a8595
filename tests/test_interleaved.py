"""Joint decoding of interleaved codewords sharing one error row support."""

from fractions import Fraction

import pytest

from conftest import make_rng

from rankdec import (
    DegreeTooLarge,
    InvalidRegime,
    RadiusTooLarge,
    WrongCount,
    decode_general,
    derive_seed,
    effective_equations,
    encode,
    failure_predicate,
    field_create,
    fqm_rank,
    icode_new,
    idecode,
    iencode,
    iword_from_json,
    iword_to_json,
    max_radius,
    random_burst_error,
    random_code,
    random_message,
    stacked_rank,
)


def _noisy(ctx, sent, err):
    return tuple(
        tuple(ctx.add(a, b) for a, b in zip(crow, erow)) for crow, erow in zip(sent, err)
    )


def _trial(ctx, n, k, u, t, zeta, seed, retry=False):
    s = derive_seed(seed, 0)
    code = random_code(ctx, n, k, derive_seed(s, 1))
    icode = icode_new(code, u)
    msgs = [random_message(ctx, k, derive_seed(s, 10 + r)) for r in range(u)]
    err = random_burst_error(ctx, u, n, t, zeta, derive_seed(s, 3))
    word = _noisy(ctx, iencode(icode, msgs), err)
    return icode, msgs, word, idecode(icode, word, t, retry=retry)


def test_icode_validation_and_u1_degeneration():
    ctx = field_create(2, 6)
    code = random_code(ctx, 6, 2, seed=1)
    with pytest.raises(ValueError):
        icode_new(code, 0)
    icode = icode_new(code, 1)
    msg = random_message(ctx, 2, seed=2)
    assert iencode(icode, [msg]) == (encode(code, msg),)


def test_iencode_counts_degrees_and_zero():
    ctx = field_create(2, 6)
    icode = icode_new(random_code(ctx, 6, 2, seed=3), 3)
    msgs = [random_message(ctx, 2, seed=4 + i) for i in range(3)]
    mat = iencode(icode, msgs)
    assert len(mat) == 3 and all(len(r) == 6 for r in mat)
    zero = iencode(icode, [random_message(ctx, 2, seed=0).scale(0)] * 3)
    assert zero == ((0,) * 6,) * 3
    with pytest.raises(WrongCount):
        iencode(icode, msgs[:2])
    with pytest.raises(DegreeTooLarge):
        iencode(icode, [random_message(ctx, 3, seed=9)] * 3)


def test_iencode_rows_decode_independently():
    ctx = field_create(2, 8)
    code = random_code(ctx, 8, 2, seed=5)
    icode = icode_new(code, 3)
    msgs = [random_message(ctx, 2, seed=6 + i) for i in range(3)]
    err = random_burst_error(ctx, 3, 8, 3, 3, seed=7)
    word = _noisy(ctx, iencode(icode, msgs), err)
    for row, msg in zip(word, msgs):
        out = decode_general(code, row, 3)
        assert out.ok and out.message == msg


def test_fqm_rank_examples():
    ctx = field_create(2, 6)
    assert fqm_rank(ctx, ((0, 0, 0), (0, 0, 0))) == 0
    rng = make_rng(8)
    row = tuple(rng.elem(ctx) for _ in range(4))
    scaled = tuple(ctx.mul(5, x) for x in row)
    assert fqm_rank(ctx, (row, scaled, row)) == 1
    for zeta in (1, 2, 3):
        err = random_burst_error(ctx, 3, 6, 3, zeta, seed=100 + zeta)
        assert fqm_rank(ctx, err) == zeta
        assert stacked_rank(ctx, err) == 3


def test_max_radius_values():
    ctx = field_create(2, 12)
    code = random_code(ctx, 12, 4, seed=9)
    assert max_radius(icode_new(code, 1)) == 4
    assert max_radius(icode_new(code, 3)) == 6
    assert max_radius(icode_new(code, 50)) == 7  # approaches n - k but stays below


def test_failure_predicate_examples_and_grid():
    assert failure_predicate(12, 4, 5, 1) is True  # 1 < 5/3
    assert failure_predicate(12, 4, 5, 2) is False  # 2 >= 5/3
    assert failure_predicate(12, 4, 4, 1) is False  # boundary t = zeta(n-k)/(zeta+1)
    with pytest.raises(InvalidRegime):
        failure_predicate(12, 4, 8, 1)
    with pytest.raises(InvalidRegime):
        failure_predicate(12, 4, 3, 0)
    n, k, u = 12, 4, 3
    for t in range(1, n - k):
        for zeta in range(1, u + 1):
            assert failure_predicate(n, k, t, zeta) == (
                Fraction(zeta) < Fraction(t, n - k - t)
            )


def test_idecode_error_free_all_radii():
    ctx = field_create(2, 8)
    code = random_code(ctx, 8, 2, seed=10)
    icode = icode_new(code, 2)
    msgs = [random_message(ctx, 2, seed=11 + i) for i in range(2)]
    sent = iencode(icode, msgs)
    for t in range(max_radius(icode) + 1):
        out = idecode(icode, sent, t)
        assert out.ok and list(out.messages) == msgs
    with pytest.raises(RadiusTooLarge):
        idecode(icode, sent, max_radius(icode) + 1)


def test_idecode_u1_matches_plain_decoder():
    # one row is a plain word: whole outcomes agree at full length and on a
    # lifted n < m code, within the radius and one error rank beyond it
    from rankdec import random_error_vector

    for m, n, k in ((8, 8, 2), (10, 7, 3)):
        ctx = field_create(2, m)
        t = (n - k) // 2
        for trial in range(30):
            s = derive_seed(12, trial)
            code = random_code(ctx, n, k, derive_seed(s, 1))
            icode = icode_new(code, 1)
            msg = random_message(ctx, k, derive_seed(s, 2))
            for r in (t, t + 1):
                err = random_error_vector(ctx, n, r, derive_seed(s, 3))
                word = tuple(ctx.add(a, b) for a, b in zip(encode(code, msg), err))
                joint = idecode(icode, (word,), t)
                plain = decode_general(code, word, t)
                assert joint == plain
                if r == t:
                    assert plain.ok and plain.messages == (msg,)


def test_idecode_within_unique_radius_never_fails():
    # at t <= floor((n-k)/2) every kernel vector is a true solution
    ctx = field_create(2, 10)
    for trial in range(100):
        icode, msgs, word, out = _trial(ctx, 10, 2, 2, 4, 2, seed=derive_seed(13, trial))
        assert out.ok and list(out.messages) == msgs
        for row, msg in zip(word, msgs):
            row_out = decode_general(icode.base, row, 4)
            assert row_out.ok and row_out.message == msg


def test_idecode_beyond_unique_radius_generic_errors():
    ctx = field_create(2, 12)
    ok = 0
    for trial in range(25):
        _, msgs, _, out = _trial(ctx, 12, 4, 3, 6, 3, seed=derive_seed(14, trial))
        ok += out.ok and list(out.messages) == msgs
    assert ok >= 23  # beyond-radius success is probabilistic, near certain here


def test_successful_locator_annihilates_every_row_interpolator():
    # the shared locator kills the interpolator of each error row at once
    from rankdec import interpolate

    ctx = field_create(2, 12)
    for trial in range(10):
        icode, msgs, word, out = _trial(ctx, 12, 4, 3, 5, 3, seed=derive_seed(40, trial))
        assert out.ok
        for row, crow in zip(word, out.codewords):
            err_row = tuple(ctx.sub(a, b) for a, b in zip(row, crow))
            e_interp = interpolate(ctx, icode.base.g, err_row)
            assert e_interp.compose(out.locator).is_zero


def test_idecode_structural_bookkeeping():
    ctx = field_create(2, 12)
    u, k, t = 3, 4, 5
    _, _, _, out = _trial(ctx, 12, k, u, t, 3, seed=15)
    d = out.diagnostics
    m = n = 12
    assert d["system_rows"] == u * n * m
    assert d["system_cols"] == m * (t + 1 + u * (k + t))
    assert not d["underdetermined"]


def test_idecode_rank_deficient_error_fails_and_is_flagged():
    ctx = field_create(2, 12)
    failures = 0
    for trial in range(10):
        _, msgs, _, out = _trial(ctx, 12, 4, 3, 5, 1, seed=derive_seed(16, trial))
        if not (out.ok and list(out.messages) == msgs):
            failures += 1
            if not out.ok:
                assert out.diagnostics["underdetermined"]
                assert "underdetermined" in out.reason
    assert failures >= 8


def test_idecode_retry_recovers_low_rank_deficient_errors():
    # zeta = 1, actual rank 3: underdetermined at t = 6, clean at t = 4
    ctx = field_create(2, 12)
    recovered = 0
    needed_retry = 0
    for trial in range(10):
        s = derive_seed(derive_seed(17, trial), 0)
        code = random_code(ctx, 12, 4, derive_seed(s, 1))
        icode = icode_new(code, 3)
        msgs = [random_message(ctx, 4, derive_seed(s, 10 + r)) for r in range(3)]
        err = random_burst_error(ctx, 3, 12, 3, 1, derive_seed(s, 4))
        word = _noisy(ctx, iencode(icode, msgs), err)
        direct = idecode(icode, word, 6)
        retried = idecode(icode, word, 6, retry=True)
        assert retried.ok and list(retried.messages) == msgs
        recovered += 1
        if not direct.ok:
            needed_retry += 1
            assert retried.diagnostics.get("retried_t", 6) <= 5
    assert recovered == 10
    assert needed_retry >= 6  # the direct call at t=6 usually drowns in junk


def test_idecode_short_code_round_trips():
    # n < m goes through the image-restriction lift
    ctx = field_create(2, 10)
    for t in (1, 2):
        for trial in range(20):
            icode, msgs, word, out = _trial(
                ctx, 7, 3, 2, t, min(2, t), seed=derive_seed(18 + t, trial)
            )
            assert out.ok and list(out.messages) == msgs
            assert stacked_rank(ctx, out.errors) <= t


def test_effective_equations_modes():
    ctx = field_create(2, 12)
    code = random_code(ctx, 12, 4, seed=19)
    icode = icode_new(code, 3)
    for zeta in (1, 2, 3):
        err = random_burst_error(ctx, 3, 12, 5, zeta, seed=200 + zeta)
        assert effective_equations(icode, err) == zeta * 12
    # received-word mode infers the count from the kernel of the system
    msgs = [random_message(ctx, 4, seed=300 + i) for i in range(3)]
    err = random_burst_error(ctx, 3, 12, 6, 2, seed=400)
    word = _noisy(ctx, iencode(icode, msgs), err)
    assert effective_equations(icode, word, t=6) == 2 * 12


def test_iword_json_round_trip():
    ctx = field_create(2, 6)
    err = random_burst_error(ctx, 3, 6, 2, 2, seed=20)
    assert iword_from_json(ctx, iword_to_json(ctx, err)) == err


@pytest.mark.parametrize(
    "q,m,n,u,t,zeta",
    [
        # full length: within the unique radius, then beyond it on both
        # sides of failure_predicate
        (3, 6, 6, 3, 2, 2),
        (3, 6, 6, 2, 3, 1),
        (3, 6, 6, 2, 3, 2),
        (3, 6, 6, 3, 3, 1),
        (3, 6, 6, 3, 3, 3),
        (4, 5, 5, 2, 2, 2),
        (4, 5, 5, 3, 3, 2),
        (4, 5, 5, 3, 3, 3),
        # lifted, n < m
        (3, 6, 5, 2, 2, 2),
        (3, 6, 5, 3, 3, 2),
        (3, 6, 5, 3, 3, 3),
        (4, 5, 4, 3, 1, 1),
        (4, 5, 4, 2, 2, 1),
        (4, 5, 4, 2, 2, 2),
        (4, 5, 4, 3, 2, 1),
        (4, 5, 4, 3, 2, 2),
    ],
)
def test_idecode_at_q3_and_q4_follows_failure_predicate(q, m, n, u, t, zeta):
    # the bit-plane locator system end to end: k = 1, so every t here is
    # at most max_radius
    ctx = field_create(q, m)
    trials = 6
    failures = 0
    for trial in range(trials):
        _, msgs, _, out = _trial(ctx, n, 1, u, t, zeta, seed=derive_seed(60 + 10 * q + n, trial))
        if out.ok:
            assert list(out.messages) == msgs and stacked_rank(ctx, out.errors) <= t
        else:
            failures += 1
            assert out.diagnostics["underdetermined"] and "underdetermined" in out.reason
    if failure_predicate(n, 1, t, zeta):
        assert failures >= trials - 1
    else:
        assert failures == 0
