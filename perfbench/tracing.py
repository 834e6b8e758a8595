"""Span tracing from outside the library.

``Tracer.install`` replaces public functions on the modules that call
them (``rankdec.gabidulin.interpolate`` and so on), the ``QPoly.compose``
and ``QPoly.rdiv`` methods, and counts ``FieldCtx.mul``/``FieldCtx.frob``
calls; leaving the ``with`` block puts every original back.  Each span
records its name, start, end, parent span and decode id; spans stay in
memory until ``write`` is called.  A span's self time is its duration
minus the durations of its direct children (calls are strictly nested on
one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import json
import time

from rankdec import gabidulin, interleaved
from rankdec.field import FieldCtx
from rankdec.qpoly import QPoly

# (owner, attribute, span name).  Two private bindings are wrapped too:
# ``_locator_candidates``, so the system assembly counts as gabidulin time
# when the interleaved decoder calls it, and the GF(2) kernel, which q = 2
# decodes use instead of kernel_basis.
TARGETS = (
    (gabidulin, "decode_general", "gabidulin.decode_general"),
    (gabidulin, "decode_full", "gabidulin.decode_full"),
    (gabidulin, "_locator_candidates", "gabidulin.locator_candidates"),
    (gabidulin, "encode", "gabidulin.encode"),
    (gabidulin, "interpolate", "qpoly.interpolate"),
    (gabidulin, "co_interpolator", "qpoly.co_interpolator"),
    (gabidulin, "kernel_basis", "field.kernel"),
    (gabidulin, "_gf2_kernel_packed", "field.kernel"),
    (gabidulin, "rank_weight", "field.rank_weight"),
    (interleaved, "idecode", "interleaved.idecode"),
    (interleaved, "_locator_candidates", "gabidulin.locator_candidates"),
    (interleaved, "encode", "gabidulin.encode"),
    (interleaved, "interpolate", "qpoly.interpolate"),
    (interleaved, "co_interpolator", "qpoly.co_interpolator"),
    (interleaved, "stacked_rank", "interleaved.stacked_rank"),
    (QPoly, "compose", "qpoly.compose"),
    (QPoly, "rdiv", "qpoly.rdiv"),
)

# per-layer self-time metric -> the spans it sums
SELF_TIME_METRICS = {
    "gabidulin.decode_self_ms": (
        "gabidulin.decode_general",
        "gabidulin.decode_full",
        "gabidulin.locator_candidates",
    ),
    "gabidulin.encode_ms": ("gabidulin.encode",),
    "interleaved.decode_self_ms": ("interleaved.idecode",),
    "interleaved.stacked_rank_ms": ("interleaved.stacked_rank",),
    "qpoly.interpolate_ms": ("qpoly.interpolate",),
    "qpoly.co_interpolator_ms": ("qpoly.co_interpolator",),
    "qpoly.compose_ms": ("qpoly.compose",),
    "qpoly.rdiv_ms": ("qpoly.rdiv",),
    "field.kernel_ms": ("field.kernel",),
    "field.rank_weight_ms": ("field.rank_weight",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start_ns, end_ns, parent, decode)
        self.decode_id = -1
        self.mul_calls = 0
        self.frob_calls = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.decode_id)

        return wrapper

    @contextlib.contextmanager
    def install(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        saved += [(FieldCtx, "mul", FieldCtx.mul), (FieldCtx, "frob", FieldCtx.frob)]
        orig_mul, orig_frob = FieldCtx.mul, FieldCtx.frob

        def mul(ctx, x, y):
            self.mul_calls += 1
            return orig_mul(ctx, x, y)

        def frob(ctx, x, i=1):
            self.frob_calls += 1
            return orig_frob(ctx, x, i)

        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            FieldCtx.mul, FieldCtx.frob = mul, frob
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, int] = {}
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            out[name] = out.get(name, 0) + (end - start - cov)
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, decode_id) in enumerate(self.spans):
                rec = {
                    "id": sid,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "decode": decode_id,
                }
                fh.write(json.dumps(rec) + "\n")
