"""Seeded channel generators: determinism and exact rank profiles."""

import pytest

from rankdec import (
    Prng,
    RankInfeasible,
    col_support,
    derive_seed,
    field_create,
    fqm_rank,
    random_burst_error,
    random_code,
    random_error_vector,
    random_message,
    rank_weight,
    row_support,
    stacked_rank,
    subspace_from_vectors,
)
from rankdec.field import ext


def test_prng_determinism_and_range():
    a = Prng(123)
    b = Prng(123)
    seq_a = [a.next64() for _ in range(10)]
    seq_b = [b.next64() for _ in range(10)]
    assert seq_a == seq_b
    assert all(0 <= v < 1 << 64 for v in seq_a)
    assert len(set(seq_a)) == 10
    c = Prng(124)
    assert [c.next64() for _ in range(10)] != seq_a
    assert all(Prng(5).below(7) in range(7) for _ in range(20))


def test_derive_seed_separates_trials():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)


def test_generators_are_reproducible():
    ctx = field_create(2, 8)
    assert random_error_vector(ctx, 8, 3, 9) == random_error_vector(ctx, 8, 3, 9)
    assert random_burst_error(ctx, 3, 8, 3, 2, 9) == random_burst_error(ctx, 3, 8, 3, 2, 9)
    assert random_code(ctx, 6, 2, 9) == random_code(ctx, 6, 2, 9)
    assert random_message(ctx, 2, 9) == random_message(ctx, 2, 9)


def test_error_vector_rank_exact():
    ctx = field_create(2, 8)
    assert random_error_vector(ctx, 8, 0, 1) == (0,) * 8
    assert rank_weight(ctx, random_error_vector(ctx, 8, 8, 2)) == 8
    for seed in range(1000):
        e = random_error_vector(ctx, 8, 3, seed)
        assert rank_weight(ctx, e) == 3
    with pytest.raises(RankInfeasible):
        random_error_vector(ctx, 8, 9, 1)
    ctx_small = field_create(2, 3)
    with pytest.raises(RankInfeasible):
        random_error_vector(ctx_small, 5, 4, 1)  # t exceeds m


def test_burst_error_rank_profiles():
    ctx = field_create(2, 8)
    for seed in range(100):
        e = random_burst_error(ctx, 3, 8, 3, min(3, 3), seed)
        assert stacked_rank(ctx, e) == 3
        assert fqm_rank(ctx, e) == 3
    e1 = random_burst_error(ctx, 3, 8, 4, 1, seed=7)
    assert fqm_rank(ctx, e1) == 1
    assert stacked_rank(ctx, e1) == 4
    e2 = random_burst_error(ctx, 3, 8, 4, 2, seed=8)
    assert fqm_rank(ctx, e2) == 2
    assert stacked_rank(ctx, e2) == 4


def test_burst_rows_share_the_common_row_support():
    ctx = field_create(2, 8)
    for seed in range(50):
        e = random_burst_error(ctx, 3, 8, 3, 2, seed)
        stacked = []
        for row in e:
            stacked.extend(ext(ctx, row))
        common = subspace_from_vectors(ctx, 8, stacked)
        assert common.dim == 3
        for row in e:
            rs = row_support(ctx, row)
            assert all(common.contains(ctx, v) for v in rs.basis)


def test_burst_error_edge_cases_and_infeasible():
    ctx = field_create(2, 8)
    assert random_burst_error(ctx, 3, 8, 0, 0, 1) == ((0,) * 8,) * 3
    with pytest.raises(RankInfeasible):
        random_burst_error(ctx, 3, 8, 0, 1, 1)
    with pytest.raises(RankInfeasible):
        random_burst_error(ctx, 3, 8, 3, 4, 1)  # zeta > min(u, t)
    with pytest.raises(RankInfeasible):
        random_burst_error(ctx, 2, 8, 3, 0, 1)
    with pytest.raises(RankInfeasible):
        random_burst_error(ctx, 3, 8, 9, 3, 1)  # t > n


def test_random_code_and_message_profiles():
    ctx = field_create(2, 8)
    for seed in range(100):
        code = random_code(ctx, 6, 2, seed)
        assert rank_weight(ctx, code.g) == 6
        msg = random_message(ctx, 2, seed)
        assert msg.qdeg is None or msg.qdeg < 2
    full = random_code(ctx, 8, 3, 5)
    assert col_support(ctx, full.g).dim == 8  # g spans the whole field

