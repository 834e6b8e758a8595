"""Workload definitions, seeded inputs and the per-decode output check.

A workload is a fixed list of parameter points.  Each point gets a pool of
inputs drawn from the library's own ``channel`` generators with seeds
derived from the run seed, so a (workload, seed) pair always yields the
same words.  The timed loop visits the pool round-robin across points.
"""

from __future__ import annotations

from dataclasses import dataclass

import rankdec
from rankdec import channel, gabidulin, interleaved


@dataclass(frozen=True)
class Point:
    """One decode configuration; ``u == 1`` means plain ``decode_general``."""

    q: int
    m: int
    n: int
    k: int
    t: int
    u: int = 1
    zeta: int = 0  # F_{q^m}-rank of the burst error, interleaved points only

    @property
    def expect_ok(self) -> bool:
        """Success is predicted within floor((n-k)/2) for plain codes and
        wherever ``failure_predicate`` is false for interleaved codes."""
        if self.u == 1:
            return self.t <= (self.n - self.k) // 2
        return not interleaved.failure_predicate(self.n, self.k, self.t, self.zeta)

    def label(self) -> str:
        if self.u == 1:
            return f"q{self.q}m{self.m}n{self.n}k{self.k}t{self.t}"
        return f"q{self.q}m{self.m}n{self.n}k{self.k}u{self.u}t{self.t}z{self.zeta}"


@dataclass(frozen=True)
class Workload:
    name: str
    points: tuple[Point, ...]
    pool: int  # inputs per point; large enough that a run's cost does not hinge on a few words
    trace_decodes: int  # decodes replayed under tracing

    def fields(self) -> list[tuple[int, int]]:
        return sorted({(p.q, p.m) for p in self.points})


def _igab_points() -> tuple[Point, ...]:
    # full length (m = n = 12) and lifted (m = 12, n = 11): the lifted
    # inner code is the full-length one, so both cost the same per decode
    pts = []
    for n, k in ((12, 4), (11, 3)):
        for t, zeta in ((6, 3), (5, 2), (6, 2), (5, 1)):
            pts.append(Point(2, 12, n, k, t, u=3, zeta=zeta))
    return tuple(pts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gab-q2-table",
            (Point(2, 16, 16, 4, 6), Point(2, 16, 12, 4, 4)),
            pool=256,
            trace_decodes=128,
        ),
        Workload("gab-q2-wide", (Point(2, 20, 20, 10, 5),), pool=16, trace_decodes=4),
        Workload(
            "gab-oddq",
            (Point(3, 8, 8, 2, 3), Point(3, 8, 6, 2, 2), Point(4, 7, 7, 1, 3)),
            pool=128,
            trace_decodes=96,
        ),
        Workload("igab-boundary", _igab_points(), pool=64, trace_decodes=128),
    )
}


@dataclass(frozen=True)
class Case:
    """One prepared decode: the code, the received word and what was sent."""

    point: Point
    code: object  # GabidulinCode or InterleavedCode
    word: tuple
    sent: tuple  # message QPolys, one per row


def make_case(point: Point, seed: int) -> Case:
    """Seeded input in the style of the CLI's trial workers."""
    s = channel.derive_seed
    ctx = rankdec.field_create(point.q, point.m)
    code = channel.random_code(ctx, point.n, point.k, s(seed, 1))
    if point.u == 1:
        msg = channel.random_message(ctx, point.k, s(seed, 2))
        err = channel.random_error_vector(ctx, point.n, point.t, s(seed, 3))
        word = tuple(ctx.add(a, b) for a, b in zip(gabidulin.encode(code, msg), err))
        return Case(point, code, word, (msg,))
    icode = interleaved.icode_new(code, point.u)
    msgs = tuple(channel.random_message(ctx, point.k, s(seed, 10 + r)) for r in range(point.u))
    err = channel.random_burst_error(ctx, point.u, point.n, point.t, point.zeta, s(seed, 3))
    word = tuple(
        tuple(ctx.add(a, b) for a, b in zip(crow, erow))
        for crow, erow in zip(interleaved.iencode(icode, msgs), err)
    )
    return Case(point, icode, word, msgs)


def make_cases(workload: Workload, seed: int) -> list[Case]:
    """Pool of inputs, ordered round-robin over the workload's points."""
    per_point = [
        [
            make_case(p, channel.derive_seed(channel.derive_seed(seed, pi), i))
            for i in range(workload.pool)
        ]
        for pi, p in enumerate(workload.points)
    ]
    return [per_point[pi][i] for i in range(workload.pool) for pi in range(len(workload.points))]


def decode(case: Case):
    """Call the public decoder through its module, so tracing wrappers
    installed on the module attribute are the ones that run."""
    if case.point.u == 1:
        return gabidulin.decode_general(case.code, case.word, case.point.t)
    return interleaved.idecode(case.code, case.word, case.point.t)


OK = "ok"
RAISED = "raised"
MISCORRECTION = "miscorrection"
UNEXPECTED_FAILURE = "unexpected_failure"


def verdict(case: Case, outcome) -> str:
    """Classify one decode.  ``outcome`` is a DecodeOutcome or the
    exception the call raised.  A diagnosed failure where failure is
    predicted is a correct outcome."""
    if isinstance(outcome, BaseException):
        return RAISED
    if outcome.ok:
        return OK if tuple(outcome.messages) == case.sent else MISCORRECTION
    return UNEXPECTED_FAILURE if case.point.expect_ok else OK


def summary(outcome):
    """Comparable form of a decode result: messages, locator, diagnostics."""
    if isinstance(outcome, BaseException):
        return ("raised", type(outcome).__name__, str(outcome))
    return (
        outcome.ok,
        outcome.reason,
        tuple(msg.coeffs for msg in outcome.messages),
        None if outcome.locator is None else outcome.locator.coeffs,
        tuple(sorted(outcome.diagnostics.items())),
    )
