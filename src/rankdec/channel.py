"""Seeded generation of codes, messages and rank errors.

Randomness comes from a fixed 64-bit counter-based generator (the
splitmix64 increment-and-mix construction), so identical parameters and
seed give bit-identical outputs on every platform.  Per-trial seeds are
derived by mixing the run seed with the trial index, which makes
aggregation order-independent: chunked or parallel sweeps reproduce the
serial run exactly.  Statistical quality is plenty for simulation;
cryptographic quality is explicitly not a goal.

Errors are built in factored form e = a . B (a: independent extension
field elements, B: a full-rank matrix over F_q), which pins the rank by
construction instead of sampling and filtering.
"""

from __future__ import annotations

from .errors import RankInfeasible
from .field import FieldCtx, fqm_rank, rank, rank_weight, stacked_rank
from .gabidulin import GabidulinCode, code_new
from .qpoly import QPoly

__all__ = [
    "Prng",
    "derive_seed",
    "random_error_vector",
    "random_burst_error",
    "random_code",
    "random_message",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_RESAMPLE_CAP = 100


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Per-trial seed: mix(seed XOR index).  Distinct indices under one run
    seed give distinct streams."""
    return _mix64((seed & _MASK64) ^ (index & _MASK64))


class Prng:
    """splitmix64: state advances by a fixed odd constant, output is the
    mixed state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform int in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next64()
            if v < limit:
                return v % n

    def elem(self, ctx: FieldCtx) -> int:
        return self.below(ctx.order)

    def base_elem(self, ctx: FieldCtx) -> int:
        return self.below(ctx.q)


def _random_independent(ctx: FieldCtx, rng: Prng, count: int) -> tuple[int, ...]:
    while True:
        cand = tuple(rng.elem(ctx) for _ in range(count))
        if rank_weight(ctx, cand) == count:
            return cand


def _random_full_rank_fq(ctx: FieldCtx, rng: Prng, nrows: int, ncols: int) -> list[list[int]]:
    while True:
        mat = [[rng.base_elem(ctx) for _ in range(ncols)] for _ in range(nrows)]
        if rank(ctx, mat) == min(nrows, ncols):
            return mat


def random_error_vector(ctx: FieldCtx, n: int, t: int, seed: int) -> tuple[int, ...]:
    """Vector in F_{q^m}^n of rank weight exactly t."""
    if not 0 <= t <= min(n, ctx.m):
        raise RankInfeasible(f"rank t={t} infeasible for n={n}, m={ctx.m}")
    if t == 0:
        return (0,) * n
    rng = Prng(seed)
    coeffs = _random_independent(ctx, rng, t)
    return _combine(ctx, coeffs, _random_full_rank_fq(ctx, rng, t, n))


def _combine(ctx: FieldCtx, coeffs, support) -> tuple[int, ...]:
    """The word sum_s coeffs[s] * support[s]: extension-field coefficients
    times the rows of a matrix over F_q."""
    out = []
    for j in range(len(support[0])):
        acc = 0
        for c, srow in zip(coeffs, support):
            if srow[j]:
                acc = ctx.add(acc, ctx.smul(srow[j], c))
        out.append(acc)
    return tuple(out)


def random_burst_error(
    ctx: FieldCtx, u: int, n: int, t: int, zeta: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """u x n error matrix of F_q-rank exactly t and F_{q^m}-rank exactly zeta.

    Factored as A . B: B is a full-rank t x n matrix over F_q (the shared
    row support) and A is u x t over F_{q^m} with F_q-independent columns
    (so the stacked expansion keeps rank t) and F_{q^m}-rank zeta.  A is
    sampled as a product of u x zeta and zeta x t matrices and re-drawn
    until both rank conditions hold; the cap of 100 attempts is hit only
    with negligible probability."""
    if t == 0:
        if zeta != 0:
            raise RankInfeasible("a zero-rank error forces zeta = 0")
        return tuple((0,) * n for _ in range(u))
    if not (1 <= zeta <= min(u, t)):
        raise RankInfeasible(f"zeta={zeta} infeasible for u={u}, t={t}")
    if t > n or t > u * ctx.m or t > zeta * ctx.m:
        raise RankInfeasible(f"rank t={t} infeasible for u={u}, n={n}, m={ctx.m}, zeta={zeta}")
    rng = Prng(seed)
    support = _random_full_rank_fq(ctx, rng, t, n)
    for _ in range(_RESAMPLE_CAP):
        left = [[rng.elem(ctx) for _ in range(zeta)] for _ in range(u)]
        right = [[rng.elem(ctx) for _ in range(t)] for _ in range(zeta)]
        amat = [
            [
                _dot(ctx, left[i], [right[z][s] for z in range(zeta)])
                for s in range(t)
            ]
            for i in range(u)
        ]
        if fqm_rank(ctx, amat) != zeta or stacked_rank(ctx, amat) != t:
            continue
        return tuple(_combine(ctx, arow, support) for arow in amat)
    raise RankInfeasible(
        f"could not sample a burst error with t={t}, zeta={zeta} in {_RESAMPLE_CAP} attempts"
    )


def _dot(ctx: FieldCtx, a, b) -> int:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def random_code(ctx: FieldCtx, n: int, k: int, seed: int) -> GabidulinCode:
    """Code with an F_q-independent evaluation vector sampled from seed."""
    rng = Prng(seed)
    g = _random_independent(ctx, rng, n)
    return code_new(ctx, g, k)


def random_message(ctx: FieldCtx, k: int, seed: int) -> QPoly:
    """q-polynomial of q-degree < k with uniform coefficients."""
    rng = Prng(seed)
    return QPoly(ctx, [rng.elem(ctx) for _ in range(k)])
