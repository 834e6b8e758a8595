"""Interleaved Gabidulin codes: u codewords hit by errors with one shared
row support.

Because the error rows share a t-dimensional row support, one locator of
q-degree <= t annihilates every row interpolator at once, so the decoder
solves a single homogeneous system with a shared locator block and one
numerator block per row: u*n*m scalar equations in m*(t+1+u*(k+t)) scalar
unknowns.  Counting equations against unknowns gives the decoding radius
floor(u*(n-k)/(u+1)); past the row-wise unique radius the kernel can pick
up spurious directions, so decoding failure is a legitimate, diagnosed
outcome there.  When the error matrix is F_{q^m}-rank deficient (rank
zeta < u), rows contribute dependent equations and the system goes
underdetermined exactly when zeta < t/(n-k-t); failure_predicate tests
that condition.

Decoding itself is gabidulin._decode_rows, the same core the plain
decoder runs with a single row; codes of length n < m are lifted there,
row by row, through the co-interpolator transform (the shared row
support survives the transform), decoded at full length, and divided
back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import DegreeTooLarge, InvalidRegime, RadiusTooLarge, WrongCount
from .field import FieldCtx, fqm_rank, stacked_rank
from .gabidulin import (
    DecodeOutcome,
    GabidulinCode,
    _decode_rows,
    _locator_candidates,
    encode,
)
# co_interpolator is not called here; it stays a module attribute so that
# instrumentation wrapping it from outside keeps working
from .qpoly import QPoly, co_interpolator, interpolate  # noqa: F401

__all__ = [
    "InterleavedCode",
    "icode_new",
    "iencode",
    "fqm_rank",
    "stacked_rank",
    "idecode",
    "max_radius",
    "failure_predicate",
    "effective_equations",
    "iword_to_json",
    "iword_from_json",
]


@dataclass(frozen=True)
class InterleavedCode:
    """u parallel codewords of one Gabidulin code."""

    base: GabidulinCode
    u: int

    @property
    def ctx(self) -> FieldCtx:
        return self.base.ctx

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    def __repr__(self):
        b = self.base
        return f"InterleavedCode(q={b.ctx.q}, m={b.ctx.m}, n={b.n}, k={b.k}, u={self.u})"


def icode_new(base: GabidulinCode, u: int) -> InterleavedCode:
    if u < 1:
        raise ValueError("interleaving order u must be at least 1")
    return InterleavedCode(base, u)


def _check_word_matrix(icode: InterleavedCode, mat: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(r) for r in mat)
    if len(rows) != icode.u:
        raise WrongCount(f"expected {icode.u} rows, got {len(rows)}")
    for row in rows:
        if len(row) != icode.n:
            raise ValueError(f"row length {len(row)} does not match n={icode.n}")
        icode.ctx.check_word(row)
    return rows


def iencode(icode: InterleavedCode, msgs: Sequence[QPoly]) -> tuple[tuple[int, ...], ...]:
    """Row i of the result encodes msgs[i] in the base code."""
    if len(msgs) != icode.u:
        raise WrongCount(f"expected {icode.u} message polynomials, got {len(msgs)}")
    for msg in msgs:
        if msg.qdeg is not None and msg.qdeg >= icode.k:
            raise DegreeTooLarge(f"message q-degree {msg.qdeg} is not below k={icode.k}")
    return tuple(encode(icode.base, msg) for msg in msgs)


def max_radius(icode: InterleavedCode) -> int:
    """floor(u * (n - k) / (u + 1)), the interleaved decoding radius."""
    return icode.u * (icode.n - icode.k) // (icode.u + 1)


def failure_predicate(n: int, k: int, t: int, zeta: int) -> bool:
    """True iff zeta < t / (n - k - t): the regime where an error of
    F_{q^m}-rank zeta leaves the decoder with more unknowns than
    equations.  Requires t < n - k; the boundary itself does not fail."""
    if not 0 <= t < n - k:
        raise InvalidRegime(f"t={t} must satisfy 0 <= t < n - k = {n - k}")
    if zeta < 1:
        raise InvalidRegime("zeta must be at least 1")
    return zeta * (n - k - t) < t


def idecode(
    icode: InterleavedCode,
    word: Sequence[Sequence[int]],
    t: int | None = None,
    retry: bool = False,
) -> DecodeOutcome:
    """Joint decoding of all u rows at radius t (default: max_radius).

    Beyond the row-wise unique radius floor((n-k)/2) failure is a
    legitimate outcome; with ``retry`` the radius is decremented down to
    that floor after a failure, and the first success wins.
    """
    word = _check_word_matrix(icode, word)
    top = max_radius(icode)
    if t is None:
        t = top
    if not 0 <= t <= top:
        raise RadiusTooLarge(f"radius t={t} outside [0, {top}]")
    out = _decode_rows(icode.base, word, t)
    if out.ok or not retry:
        return out
    floor_r = (icode.n - icode.k) // 2
    for lower in range(t - 1, floor_r - 1, -1):
        attempt = _decode_rows(icode.base, word, lower)
        if attempt.ok:
            return replace(attempt, diagnostics={**attempt.diagnostics, "retried_t": lower})
    return out


def effective_equations(
    icode: InterleavedCode,
    mat: Sequence[Sequence[int]],
    t: int | None = None,
) -> int:
    """Number of independent equations the error structure leaves, as a
    multiple of n.

    With ``t`` omitted, ``mat`` is the error matrix itself and the count
    is fqm_rank(mat) * n.  With ``t`` given, ``mat`` is a received word:
    the locator system is assembled at radius t and the F_{q^m}-rank of
    the error is inferred from the kernel dimension (meaningful in the
    underdetermined regime, where the kernel grows by m*(n-k-t) per lost
    equation block)."""
    ctx = icode.ctx
    n, k, m, u = icode.n, icode.k, icode.ctx.m, icode.u
    mat = _check_word_matrix(icode, mat)
    if t is None:
        return fqm_rank(ctx, mat) * n
    if not 0 < t < n - k:
        raise InvalidRegime(f"t={t} must satisfy 0 < t < n - k = {n - k}")
    interps = [interpolate(ctx, icode.base.g, row) for row in mat]
    _, diag = _locator_candidates(ctx, icode.base.g, interps, k, t)
    deficiency = diag["kernel_dim"]
    zeta_hat = round((m * (t + 1) - deficiency) / (m * (n - k - t)))
    return max(0, min(u, zeta_hat)) * n


def iword_to_json(ctx: FieldCtx, mat: Sequence[Sequence[int]]) -> list[list[list[int]]]:
    return [ctx.word_to_coeffs(row) for row in mat]


def iword_from_json(ctx: FieldCtx, obj: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[int, ...], ...]:
    return tuple(ctx.word_from_coeffs(row) for row in obj)
