"""Linearized polynomials: the ring of q-power polynomials acting on F_{q^m}.

A q-polynomial sum_i c_i X^(q^i) induces an F_q-linear map on F_{q^m};
composition makes these a non-commutative ring in which both left and
right Euclidean division are available.  QPoly values are held reduced
modulo X^(q^m) - X (exponents wrap mod m), which loses nothing for maps
on F_{q^m} and keeps every coefficient tuple at length <= m.  The two
division routines work on the raw (already reduced, degree < m)
coefficient sequences without further wrapping, preserving the degree
bookkeeping of the Euclidean algorithm.

The q-degree of the zero polynomial is None, a deliberate sentinel:
integer comparisons against it fail loudly instead of silently passing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    DependentPoints,
    DivisionByZeroPoly,
    InternalInconsistency,
    RankMismatch,
)
from .field import (
    FieldCtx,
    Subspace,
    ext,
    kernel_basis,
    rank as matrix_rank,
    subspace_perp,
)

__all__ = [
    "QPoly",
    "interpolate",
    "subspace_poly",
    "co_interpolator",
    "right_annihilator",
]


class QPoly:
    """A q-polynomial bound to a FieldCtx; immutable value object.

    ``coeffs[i]`` multiplies the monomial of q-degree i; the tuple carries
    no trailing zeros, so the zero polynomial has empty coeffs.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable[int] = ()):
        folded = [0] * ctx.m
        for i, c in enumerate(coeffs):
            if c:
                if not ctx.is_elem(c):
                    raise ValueError(f"coefficient {c!r} is not an element of the field")
                j = i % ctx.m
                # only a coefficient folded back from i >= m can meet a filled slot
                folded[j] = ctx.add(folded[j], c) if folded[j] else c
        while folded and folded[-1] == 0:
            folded.pop()
        self.ctx = ctx
        self.coeffs = tuple(folded)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "QPoly":
        return cls(ctx)

    @classmethod
    def x(cls, ctx: FieldCtx) -> "QPoly":
        return cls(ctx, (1,))

    @classmethod
    def monomial(cls, ctx: FieldCtx, i: int, coeff: int = 1) -> "QPoly":
        return cls(ctx, [0] * i + [coeff])

    # -- basic structure --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def qdeg(self) -> int | None:
        """q-degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __eq__(self, other):
        return (
            isinstance(other, QPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "QPoly(0)"
        terms = [f"{c}*X^q{i}" for i, c in enumerate(self.coeffs) if c]
        return "QPoly(" + " + ".join(terms) + ")"

    def __add__(self, other: "QPoly") -> "QPoly":
        ctx = self._same_ctx(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(ctx.add(a, b))
        return QPoly(ctx, out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __neg__(self) -> "QPoly":
        return QPoly(self.ctx, [self.ctx.neg(c) for c in self.coeffs])

    def scale(self, c: int) -> "QPoly":
        """Left scalar multiple: (c . P)(x) = c * P(x)."""
        ctx = self.ctx
        if c == 0:
            return QPoly(ctx)
        return QPoly(ctx, [ctx.mul(c, v) for v in self.coeffs])

    def _same_ctx(self, other: "QPoly") -> FieldCtx:
        if self.ctx != other.ctx:
            raise ValueError("operands live in different field contexts")
        return self.ctx

    # -- the ring ----------------------------------------------------------

    def eval(self, x: int) -> int:
        """Value of the induced F_q-linear map at x."""
        ctx = self.ctx
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c:
                acc = ctx.add(acc, ctx.mul(c, ctx.frob(x, i)))
        return acc

    def compose(self, other: "QPoly") -> "QPoly":
        """self after other: eval(self.compose(q), x) == eval(self, eval(q, x))."""
        ctx = self._same_ctx(other)
        m = ctx.m
        out = [0] * m
        for i, pi in enumerate(self.coeffs):
            if pi:
                for j, qj in enumerate(other.coeffs):
                    if qj:
                        k = (i + j) % m
                        out[k] = ctx.add(out[k], ctx.mul(pi, ctx.frob(qj, i)))
        return QPoly(ctx, out)

    def rdiv(self, divisor: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Right division: self = quotient o divisor + remainder,
        with q-degree(remainder) < q-degree(divisor)."""
        ctx = self._same_ctx(divisor)
        if divisor.is_zero:
            raise DivisionByZeroPoly("right division by the zero polynomial")
        dd = divisor.qdeg
        dcoeffs = divisor.coeffs
        r = list(self.coeffs)
        quot = [0] * max(len(r) - dd, 0)
        while len(r) - 1 >= dd and r:
            e = len(r) - 1
            c = r[-1]
            shift = e - dd
            cq = ctx.div(c, ctx.frob(dcoeffs[dd], shift))
            quot[shift] = cq
            for i, di in enumerate(dcoeffs):
                if di:
                    r[shift + i] = ctx.sub(r[shift + i], ctx.mul(cq, ctx.frob(di, shift)))
            while r and r[-1] == 0:
                r.pop()
        return QPoly(ctx, quot), QPoly(ctx, r)

    def ldiv(self, divisor: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Left division: self = divisor o quotient + remainder."""
        ctx = self._same_ctx(divisor)
        if divisor.is_zero:
            raise DivisionByZeroPoly("left division by the zero polynomial")
        dd = divisor.qdeg
        dcoeffs = divisor.coeffs
        m = ctx.m
        r = list(self.coeffs)
        quot = [0] * max(len(r) - dd, 0)
        while len(r) - 1 >= dd and r:
            e = len(r) - 1
            shift = e - dd
            cq = ctx.frob(ctx.div(r[-1], dcoeffs[dd]), (m - dd) % m)
            quot[shift] = cq
            for i, di in enumerate(dcoeffs):
                if di:
                    r[i + shift] = ctx.sub(r[i + shift], ctx.mul(di, ctx.frob(cq, i)))
            while r and r[-1] == 0:
                r.pop()
        return QPoly(ctx, quot), QPoly(ctx, r)

    def adjoint(self) -> "QPoly":
        """Dual under the trace form: Tr(y * P(x)) == Tr(P.adjoint()(y) * x)."""
        ctx = self.ctx
        m = ctx.m
        out = [0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                j = (m - i) % m
                out[j] = ctx.add(out[j], ctx.frob(c, j))
        return QPoly(ctx, out)

    # -- the induced linear map --------------------------------------------

    def matrix(self) -> list[list[int]]:
        """m x m matrix of the induced map in the polynomial basis."""
        ctx = self.ctx
        return ext(ctx, [self.eval(b) for b in ctx.basis])

    def rank(self) -> int:
        return matrix_rank(self.ctx, self.matrix())

    def kernel(self) -> Subspace:
        ctx = self.ctx
        kern = kernel_basis(ctx, self.matrix(), ctx.m)
        return Subspace(ctx.m, tuple(tuple(r) for r in kern))

    # -- serialization -------------------------------------------------------

    def to_coeff_lists(self) -> list[list[int]]:
        """JSON form: index = q-degree, entry = coefficient coordinate list."""
        return [self.ctx.elem_to_coeffs(c) for c in self.coeffs]

    @classmethod
    def from_coeff_lists(cls, ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> "QPoly":
        return cls(ctx, [ctx.elem_from_coeffs(r) for r in rows])


def interpolate(ctx: FieldCtx, points: Sequence[int], values: Sequence[int]) -> QPoly:
    """The unique q-polynomial of q-degree < n hitting the given values.

    Newton-style: carry the subspace polynomial of the points consumed so
    far and correct one value per step.  Raises DependentPoints if the
    points are not F_q-independent (which also covers n > m).
    """
    if len(points) != len(values):
        raise ValueError("points and values must have the same length")
    if not points:
        raise ValueError("at least one interpolation point is required")
    ctx.check_word(points)
    ctx.check_word(values)
    result = QPoly.zero(ctx)
    vanisher = QPoly.x(ctx)
    for g, v in zip(points, values):
        s = vanisher.eval(g)
        if s == 0:
            raise DependentPoints("interpolation points are F_q-dependent")
        delta = ctx.sub(v, result.eval(g))
        if delta:
            result = result + vanisher.scale(ctx.div(delta, s))
        step = QPoly(ctx, (ctx.neg(ctx.pow(s, ctx.q - 1)), 1))
        vanisher = step.compose(vanisher)
    return result


def subspace_poly(ctx: FieldCtx, space: Subspace) -> QPoly:
    """Monic q-polynomial of q-degree dim(space) whose kernel is the space."""
    if space.ambient != ctx.m:
        raise ValueError("expected a subspace of the extension field")
    vanisher = QPoly.x(ctx)
    for row in space.basis:
        s = vanisher.eval(ctx.pack(row))
        if s == 0:  # pragma: no cover
            raise InternalInconsistency("subspace basis rows are dependent")
        step = QPoly(ctx, (ctx.neg(ctx.pow(s, ctx.q - 1)), 1))
        vanisher = step.compose(vanisher)
    return vanisher


def co_interpolator(ctx: FieldCtx, space: Subspace) -> QPoly:
    """q-polynomial of q-degree <= m - dim(space) whose image is the space.

    Built as the adjoint of X^(q^d) composed with the subspace polynomial
    of the orthogonal complement (d = dim of the space); adjunction turns
    the prescribed kernel into the prescribed image.
    """
    d = space.dim
    if d < 1:
        raise ValueError("the target image must have dimension at least 1")
    g0 = subspace_poly(ctx, subspace_perp(ctx, space))
    g1 = QPoly.monomial(ctx, d % ctx.m).compose(g0)
    return g1.adjoint()


def right_annihilator(poly: QPoly, t: int) -> QPoly:
    """The unique monic L of q-degree <= t with poly o L = 0.

    Requires rank(poly) == t (raises RankMismatch otherwise); t == m is
    rejected since a bijective map admits no nonzero right annihilator.
    The result has q-degree exactly t and its image is the kernel of poly.
    """
    ctx = poly.ctx
    if not 0 <= t <= ctx.m:
        raise ValueError(f"rank must lie in [0, {ctx.m}]")
    if t == ctx.m:
        raise ValueError("a bijective map has no monic right annihilator")
    actual = poly.rank()
    if actual != t:
        raise RankMismatch(f"declared rank {t} but the map has rank {actual}")
    g = co_interpolator(ctx, poly.kernel())
    deg = g.qdeg
    if deg != t:
        raise InternalInconsistency("co-interpolator degree must equal the rank")
    # make it monic by composing with a scalar map on the right, which
    # keeps the image (left scaling would not)
    c = ctx.frob(ctx.inv(g.coeffs[deg]), (ctx.m - deg) % ctx.m)
    return g.compose(QPoly(ctx, (c,)))
