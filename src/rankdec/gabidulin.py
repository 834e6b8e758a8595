"""Gabidulin codes: construction, encoding, and rank-error decoding.

The decoder localizes errors from the right: interpolate the received
word into a q-polynomial Y, then look for a locator L (q-degree <= t) and
a numerator N (q-degree <= k+t-1) with (Y o L)(g_i) = N(g_i) at every
evaluation point.  Composition with the unknown L is only F_q-linear, so
the system is expanded over the polynomial basis B of F_{q^m}: m scalar
equations per point, m scalar unknowns per polynomial coefficient.  Each
scalar equation is built directly as one row through the trace-dual
basis beta of B: digit r of Y(b_a * h) is Tr(Y*(beta_r) * h * b_a), Y*
being the adjoint of Y, so the row's entries are the dual coordinates of
products with Y*(beta_r).  Any kernel vector with nonzero locator is a
candidate; the message is the exact right quotient N / L and every
candidate is validated (zero remainder, degree below k, rank of the
residual error at most t) before being accepted, so out-of-model inputs
surface as diagnosed failures instead of silent miscorrections.

One core, _decode_rows, serves plain and interleaved codes alike: a plain
word is the one-row case of u rows Y_1..Y_u sharing the locator L, with
one numerator N_i per row.  Codes of length n < m are decoded there too,
by composing each Y_i with a co-interpolator G whose image is the span of
the evaluation points; that turns the word into one of a full-length code
of dimension k + m - n with the same error rank, and the message comes
back out by exact right division by G.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Iterator, Sequence

from .errors import (
    DegreeTooLarge,
    DependentEvaluationPoints,
    DimensionTooLarge,
    InternalInconsistency,
    RadiusTooLarge,
)
from .field import (
    FieldCtx,
    _gf2_kernel_packed,
    _pack_planes,
    _planes_kernel,
    _unpack_base,
    col_support,
    kernel_basis,
    rank_weight,
    stacked_rank,
)
from .qpoly import QPoly, co_interpolator, interpolate

__all__ = [
    "GabidulinCode",
    "DecodeOutcome",
    "code_new",
    "encode",
    "decode_full",
    "decode_general",
    "code_to_json",
    "code_from_json",
]


@dataclass(frozen=True)
class GabidulinCode:
    """Evaluations of all q-polynomials of q-degree < k at the points g."""

    ctx: FieldCtx
    g: tuple[int, ...]
    k: int

    @property
    def n(self) -> int:
        return len(self.g)

    def __repr__(self):
        return f"GabidulinCode(q={self.ctx.q}, m={self.ctx.m}, n={self.n}, k={self.k})"


def code_new(ctx: FieldCtx, g: Sequence[int], k: int) -> GabidulinCode:
    """Validated code object; g entries must be F_q-independent, 1 <= k <= n."""
    g = tuple(g)
    ctx.check_word(g)
    n = len(g)
    if n < 1:
        raise ValueError("evaluation vector must be nonempty")
    if rank_weight(ctx, g) != n:
        raise DependentEvaluationPoints(
            "evaluation vector entries are F_q-dependent (note n <= m is required)"
        )
    if not 1 <= k <= n:
        raise DimensionTooLarge(f"dimension k={k} must satisfy 1 <= k <= n={n}")
    return GabidulinCode(ctx, g, k)


def encode(code: GabidulinCode, msg: QPoly) -> tuple[int, ...]:
    """Codeword (msg(g_1), ..., msg(g_n)); msg must have q-degree < k."""
    if msg.ctx != code.ctx:
        raise ValueError("message polynomial belongs to a different field context")
    if msg.qdeg is not None and msg.qdeg >= code.k:
        raise DegreeTooLarge(f"message q-degree {msg.qdeg} is not below k={code.k}")
    return tuple(msg.eval(gj) for gj in code.g)


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoding result: recovered data on success, a diagnosed reason otherwise.

    ``messages``/``codewords``/``errors`` hold one entry per interleaved
    row (a single entry for plain codes; the singular properties are
    shortcuts for that case).  ``diagnostics`` reports the assembled
    system shape, the kernel dimension, whether the system was
    underdetermined (kernel dimension above m) and how many candidates
    were tried.
    """

    ok: bool
    reason: str | None
    messages: tuple[QPoly, ...] = ()
    codewords: tuple[tuple[int, ...], ...] = ()
    errors: tuple[tuple[int, ...], ...] = ()
    locator: QPoly | None = None
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def message(self) -> QPoly:
        return self.messages[0]

    @property
    def codeword(self) -> tuple[int, ...]:
        return self.codewords[0]

    @property
    def error(self) -> tuple[int, ...]:
        return self.errors[0]


@functools.lru_cache(maxsize=None)
def _dual_planes(ctx: FieldCtx):
    """D of ctx.trace_dual() on bit planes, for q = 3 and 4: z -> (lo, hi),
    bits a of lo and hi being bits 0 and 1 of digit a of D(z).

    Built on first use per field (the context stays as it was, so it
    pickles as before), from one table per four digits of z, at most 256
    entries each.  Sums are those of field._planes_rref.
    """
    q, dual = ctx.q, ctx.trace_dual()[1]
    radix = q**4
    tables = [
        list(zip(*_pack_planes([ctx.digits(dual(v * q**c)) for v in range(q ** min(4, ctx.m - c))])))
        for c in range(0, ctx.m, 4)
    ]

    def read(z):
        lo = hi = 0
        for tab in tables:
            u, v = tab[z % radix]
            z //= radix
            if q == 4:
                lo, hi = lo ^ u, hi ^ v
            else:
                s = (lo | v) ^ (hi | u)
                lo, hi = (hi | v) ^ s, (lo | u) ^ s
        return lo, hi

    return read


def _locator_rows(
    ctx: FieldCtx, points: Sequence[int], interps: Sequence[QPoly], k: int, t: int
) -> list:
    """The u*n*m rows of the F_q linearization of (Y_i o L)(g_j) = N_i(g_j),
    packed for the elimination that q picks: bit-packed ints at q = 2,
    (lo, hi) bit-plane pairs at q = 3 and 4 (as in field._planes_rref), and
    ints whose base-q digits are the row's entries at q >= 5.

    Row (i, j, r) is digit r of the equation for row i at point g_j.  Its
    locator block e is D(Y_i*(beta_r) * g_j^(q^e)), with D(z) = (Tr(z * b_a))_a,
    and its numerator block l is D(-beta_r * g_j^(q^l)).
    """
    m, q = ctx.m, ctx.q
    beta, dual = ctx.trace_dual()
    planes = q in (3, 4)
    if planes:
        dual = _dual_planes(ctx)
    blk = k + t  # at least t + 1, so the point maps cover the locator blocks too
    # block c of a row starts at column m * c: a digit shift of a base-q
    # int, a bit shift of each plane
    place = [(2 if planes else q) ** (m * c) for c in range(t + 1 + len(interps) * blk)]

    def point_maps(gj):
        """y -> D(y * g_j^(q^l)) side by side, for the locator blocks l <= t
        and for the numerator blocks l < k + t."""
        hs = [ctx.frob(gj, l) for l in range(blk)]
        if planes:

            def blocks(hs):
                def f(y):
                    lo = hi = 0
                    for h, pl in zip(hs, place):
                        a, b = dual(ctx.mul(y, h))
                        lo += a * pl
                        hi += b * pl
                    return lo, hi

                return f

            return blocks(hs[: t + 1]), blocks(hs)
        if q != 2:

            def blocks(hs):
                return lambda y: sum(dual(ctx.mul(y, h)) * place[l] for l, h in enumerate(hs))

            return blocks(hs[: t + 1]), blocks(hs)
        # No multiply per block: D(y * h) is the XOR of D(b_s * h) over the
        # set bits s of y, and D(b_s * h) is bits s..s+m-1 of the sequence
        # Tr(h * a^k), k < 2m - 1, which starts with D(h) and goes on by the
        # recurrence a^m = sum_c f_c a^c of the modulus f.
        taps, seqs = ctx.pack(ctx.ext_modulus[:m]), [dual(h) for h in hs]
        for c in range(m - 1):
            seqs = [sq | ((sq >> c) & taps).bit_count() % 2 << (m + c) for sq in seqs]
        windows = [[(sq >> s) & (ctx.order - 1) for sq in seqs] for s in range(m)]
        f = ctx.linear_map([sum(w * place[l] for l, w in enumerate(ws)) for ws in windows])
        return f, f  # the locator part is cut to t + 1 blocks by the caller

    ys = [[adj.eval(b) for b in beta] for adj in (y_poly.adjoint() for y_poly in interps)]
    neg_beta = [ctx.neg(b) for b in beta]
    rows = [0] * (len(interps) * len(points) * m)
    for j, gj in enumerate(points):  # one point's maps at a time
        loc, num = point_maps(gj)
        nums = [num(b) for b in neg_beta]
        for i, yi in enumerate(ys):
            row = (i * len(points) + j) * m
            num_place = place[t + 1 + i * blk]
            if planes:
                rows[row : row + m] = [
                    (a + c * num_place, b + d * num_place) for (a, b), (c, d) in zip(map(loc, yi), nums)
                ]
            else:
                rows[row : row + m] = [loc(y) % place[t + 1] + nr * num_place for y, nr in zip(yi, nums)]
    return rows


def _locator_candidates(
    ctx: FieldCtx,
    points: Sequence[int],
    interps: Sequence[QPoly],
    k: int,
    t: int,
) -> tuple[Iterator[tuple[QPoly, list[QPoly]]], dict]:
    """Kernel of the F_q linearization of (Y_i o L)(g_j) = N_i(g_j).

    Unknowns: the t+1 coefficients of the shared locator L and the k+t
    coefficients of each numerator N_i, all expanded into m base-field
    coordinates.  _locator_rows builds each scalar row directly from the
    trace-dual basis, packed for the elimination that q picks: the GF(2)
    kernel on bit-packed rows at q = 2, field._planes_kernel on two bit
    planes per row at q = 3 and 4 (the coefficients are read straight off
    the plane bits), kernel_basis on digit lists otherwise.
    Returns the (locator, numerators) candidates in deterministic echelon
    order, built lazily as the caller iterates, plus system diagnostics.
    """
    m, n, u, q = ctx.m, len(points), len(interps), ctx.q
    blk = k + t
    ncols = m * (t + 1 + u * blk)
    rows = _locator_rows(ctx, points, interps, k, t)
    n_rows = len(rows)
    if n_rows != u * n * m:
        raise InternalInconsistency(f"locator system has {n_rows} rows, expected {u * n * m}")
    mask = (1 << m) - 1
    if q == 2:
        kern = _gf2_kernel_packed(rows, ncols)

        def coeff(vec, off):
            return (vec >> off) & mask

    elif q <= 4:
        if q == 3 and any(lo & hi for lo, hi in rows):
            raise InternalInconsistency("locator row has an entry outside F_3")
        kern = _planes_kernel([lo for lo, _ in rows], [hi for _, hi in rows], ncols, q)

        def coeff(vec, off):
            # bit a of each plane becomes base-q digit a; no digit carries
            lo, hi = vec[0] >> off & mask, vec[1] >> off & mask
            return int(bin(lo)[2:], q) + 2 * int(bin(hi)[2:], q)

    else:
        kern = kernel_basis(ctx, [_unpack_base(v, q, ncols) for v in rows], ncols)

        def coeff(vec, off):
            return ctx.pack(vec[off : off + m])

    def cands():
        for vec in kern:
            lam = QPoly(ctx, [coeff(vec, e * m) for e in range(t + 1)])
            nums = [
                QPoly(ctx, [coeff(vec, m * (t + 1 + i * blk + l)) for l in range(blk)])
                for i in range(u)
            ]
            yield lam, nums

    diag = {
        "system_rows": n_rows,
        "system_cols": ncols,
        "kernel_dim": len(kern),
        "underdetermined": len(kern) > m,
    }
    return cands(), diag


def _accept(
    code: GabidulinCode,
    rows: Sequence[Sequence[int]],
    msgs: Sequence[QPoly],
    t: int,
    locator: QPoly,
    diag: dict,
) -> DecodeOutcome | None:
    """Success outcome if the messages' codewords lie within stacked rank
    distance t of the received rows, else None."""
    ctx = code.ctx
    codewords = tuple(encode(code, msg) for msg in msgs)
    errs = tuple(
        tuple(ctx.sub(a, b) for a, b in zip(row, cw)) for row, cw in zip(rows, codewords)
    )
    if stacked_rank(ctx, errs) > t:
        return None
    return DecodeOutcome(
        ok=True,
        reason=None,
        messages=tuple(msgs),
        codewords=codewords,
        errors=errs,
        locator=locator,
        diagnostics=diag,
    )


def _decode_rows(code: GabidulinCode, rows: tuple[tuple[int, ...], ...], t: int) -> DecodeOutcome:
    """Joint decoding of validated received rows at radius t.

    One row is a plain Gabidulin word; several rows share one locator.
    Codes with n < m are carried into the full-length code of dimension
    k + m - n by composing each row interpolator with a co-interpolator G
    of the evaluation span, decoded there, and divided back by G.  For
    words beyond the radius the inner decoder may validate a full-length
    codeword outside the image of the short code; the division then leaves
    a remainder, which is reported as a failure.
    """
    ctx = code.ctx
    n, k, m = code.n, code.k, ctx.m
    if n == m:
        return _decode_interpolated(code, rows, [interpolate(ctx, code.g, row) for row in rows], t)
    g_poly = co_interpolator(ctx, col_support(ctx, code.g))
    # Y o G has q-degree below m, so it is already the interpolator of its
    # values at the basis, the inner code's evaluation points
    lifted = [interpolate(ctx, code.g, row).compose(g_poly) for row in rows]
    inner_rows = tuple(tuple(y.eval(b) for b in ctx.basis) for y in lifted)
    inner = _decode_interpolated(GabidulinCode(ctx, ctx.basis, k + m - n), inner_rows, lifted, t)
    if not inner.ok:
        return inner
    diag = inner.diagnostics
    msgs = []
    for inner_msg in inner.messages:
        quot, rem = inner_msg.rdiv(g_poly)
        if not rem.is_zero:
            reason = "inner solution lies outside the short code (not right-divisible by G)"
            return DecodeOutcome(ok=False, reason=reason, diagnostics=diag)
        if quot.qdeg is not None and quot.qdeg >= k:
            reason = "recovered message exceeds the code dimension"
            return DecodeOutcome(ok=False, reason=reason, diagnostics=diag)
        msgs.append(quot)
    out = _accept(code, rows, msgs, t, inner.locator, diag)
    if out is None:
        reason = "validated inner solution does not match the received word"
        out = DecodeOutcome(ok=False, reason=reason, diagnostics=diag)
    return out


def _decode_interpolated(
    code: GabidulinCode, rows: tuple[tuple[int, ...], ...], interps: list[QPoly], t: int
) -> DecodeOutcome:
    """_decode_rows for a full-length code, given the interpolators of the rows."""
    ctx, k = code.ctx, code.k
    cands, diag = _locator_candidates(ctx, code.g, interps, k, t)
    tried = 0
    for lam, nums in cands:
        if lam.is_zero:
            # k + t stays below n for every admissible radius, so a zero
            # locator forces zero numerators
            if not all(num.is_zero for num in nums):
                raise InternalInconsistency("zero locator with nonzero numerator")
            continue
        tried += 1
        msgs = []
        for num in nums:
            quot, rem = num.rdiv(lam)
            if not rem.is_zero or (quot.qdeg is not None and quot.qdeg >= k):
                break
            msgs.append(quot)
        else:
            out = _accept(code, rows, msgs, t, lam, {**diag, "candidates_tried": tried})
            if out is not None:
                return out
    reason = (
        "system underdetermined (kernel dimension exceeded m)"
        if diag["underdetermined"]
        else "no kernel candidate validated at radius t"
    )
    return DecodeOutcome(ok=False, reason=reason, diagnostics={**diag, "candidates_tried": tried})


def decode_full(code: GabidulinCode, received: Sequence[int], t: int | None = None) -> DecodeOutcome:
    """Decode a full-length (n = m) code up to t rank errors.

    t defaults to the unique-decoding radius floor((n-k)/2); larger values
    are rejected.  Within the radius, whenever a codeword at rank distance
    at most t from the received word exists, it is found and every
    validated candidate yields the same message.
    """
    if code.n != code.ctx.m:
        raise ValueError("decode_full requires a full-length code (n = m)")
    return decode_general(code, received, t)


def decode_general(code: GabidulinCode, received: Sequence[int], t: int | None = None) -> DecodeOutcome:
    """Decode any length n <= m up to t <= floor((n-k)/2) rank errors.

    Short codes are lifted to full length through a co-interpolator of
    the evaluation span and the message is divided back out (see
    _decode_rows).
    """
    max_t = (code.n - code.k) // 2
    if t is None:
        t = max_t
    if not 0 <= t <= max_t:
        raise RadiusTooLarge(f"radius t={t} outside [0, {max_t}]")
    received = tuple(received)
    if len(received) != code.n:
        raise ValueError(f"received word has length {len(received)}, expected {code.n}")
    code.ctx.check_word(received)
    return _decode_rows(code, (received,), t)


def code_to_json(code: GabidulinCode) -> dict:
    return {
        "field": code.ctx.to_json(),
        "g": code.ctx.word_to_coeffs(code.g),
        "k": code.k,
    }


def code_from_json(obj: dict) -> GabidulinCode:
    ctx = FieldCtx.from_json(obj["field"])
    return code_new(ctx, ctx.word_from_coeffs(obj["g"]), obj["k"])
