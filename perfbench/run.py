#!/usr/bin/env python3
"""Seeded decode benchmark for rankdec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a single-process closed loop: one caller, one decode at
a time.  Inputs come from the library's ``channel`` generators seeded from
``--seed`` and are built before timing starts; one warm-up decode per
parameter point is left out of the timings; every decode is checked
against the message that was sent.

``--trace 0`` measures the end-to-end metrics: decodes per second, median
decode time, set-up time (import plus cold field construction, in fresh
interpreters) and peak RSS.  ``--trace 1`` replays the same inputs with
spans around the library's public calls and reports per-layer metrics,
the tracing overhead, field microbenchmarks and the CLI trial rate; it
also checks that traced and untraced decodes give identical outputs.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (versions, seed, points, sample counts, failure base).
Exit status: 0 when every check passed, 1 when one failed (a
miscorrection, an unexpected failure or a mismatch), 2 when the
repository sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"

if (SRC / "rankdec" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))
    import rankdec
    import tracing as T
    import workloads as W
else:  # main() reports the missing sources
    rankdec = None

SETUP_REPS = 5  # fresh interpreters per run; setup_s is their median
FIELD_CREATE_REPS = 3
CLI_TRIALS = 100
P90_MIN_SAMPLES = 100  # leaves ten samples above the 90th percentile


# ---------------------------------------------------------------------------
# set-up time


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import rankdec
for q, m in {fields!r}:
    rankdec.field_create(q, m)
sys.stdout.write(repr(time.perf_counter() - t0))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(fields, reps: int) -> list[float]:
    """``import rankdec`` plus a cold ``field_create`` of every field, each
    in a fresh interpreter; one untimed run first warms the file cache."""
    code = _SETUP_CHILD.format(fields=list(fields))
    out = []
    for i in range(reps + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if i:
            out.append(float(proc.stdout))
    return out


# ---------------------------------------------------------------------------
# decode loops


def checked_decode(case, tally: Counter):
    """One timed decode, its verdict counted in ``tally``; returns
    (elapsed ns, outcome or exception)."""
    start = time.perf_counter_ns()
    try:
        out = W.decode(case)
    except Exception as exc:  # a raise is a failed operation, recorded by kind
        out = exc
    elapsed = time.perf_counter_ns() - start
    tally[W.verdict(case, out)] += 1
    return elapsed, out


def warm_up(workload, cases, tally: Counter) -> None:
    for case in cases[: len(workload.points)]:
        checked_decode(case, tally)


def timed_loop(cases, seconds: float, tally: Counter, min_decodes: int = 0, keep: int = 0):
    """Closed loop over the pool until ``seconds`` have passed and at least
    ``min_decodes`` decodes ran.  Returns per-decode ns, the loop's wall
    seconds and the outcome summaries of the first ``keep`` decodes."""
    times: list[int] = []
    kept = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        case = cases[i % len(cases)]
        elapsed, out = checked_decode(case, tally)
        times.append(elapsed)
        if i < keep:
            kept.append(W.summary(out))
        i += 1
        now = time.perf_counter()
        if now >= deadline and i >= min_decodes:
            return times, now - start, kept


# ---------------------------------------------------------------------------
# per-layer measurements


def op_ns(fn, args, reps: int = 5, budget_ns: int = 20_000_000) -> float:
    """Median over reps of ns per call, each rep looping over ``args``
    until ``budget_ns`` has passed."""
    samples = []
    for _ in range(reps):
        ops = 0
        start = time.perf_counter_ns()
        while True:
            for a in args:
                fn(*a)
            ops += len(args)
            elapsed = time.perf_counter_ns() - start
            if elapsed >= budget_ns:
                break
        samples.append(elapsed / ops)
    return statistics.median(samples)


def field_microbench(q: int, m: int, seed: int) -> dict[str, float]:
    ctx = rankdec.field_create(q, m)
    rng = rankdec.Prng(rankdec.derive_seed(seed, 0xF1E1D))
    elems = []
    while len(elems) < 256:
        x = rng.elem(ctx)
        if x:
            elems.append(x)
    pairs = list(zip(elems, elems[1:] + elems[:1]))
    frob_args = [(x, 1 + i % (m - 1)) for i, x in enumerate(elems)]
    return {
        "field.mul_ns": op_ns(ctx.mul, pairs),
        "field.frob_ns": op_ns(ctx.frob, frob_args),
        "field.inv_ns": op_ns(ctx.inv, [(x,) for x in elems]),
    }


def field_create_ms(fields, reps: int) -> float:
    """Median over reps of building every field cold (bypassing the cache)."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for q, m in fields:
            rankdec.FieldCtx(q, m)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def cli_roundtrip(point, seed: int, trials: int, jobs: int) -> tuple[float, str, int]:
    """``python -m rankdec roundtrip`` at one point: trials per wall second,
    the emitted record and the exit status."""
    argv = [sys.executable, "-m", "rankdec", "roundtrip"]
    for flag, value in (("q", point.q), ("m", point.m), ("n", point.n), ("k", point.k), ("t", point.t)):
        argv += [f"--{flag}", str(value)]
    argv += ["--trials", str(trials), "--seed", str(seed), "--jobs", str(jobs)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=150)
    elapsed = time.perf_counter() - start
    return trials / elapsed, proc.stdout, proc.returncode


# ---------------------------------------------------------------------------
# the two run modes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(workload, cases, seconds, tally, record, setup_reps):
    warm_up(workload, cases, tally)
    times, wall, _ = timed_loop(cases, seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = setup_seconds(workload.fields(), setup_reps)
    ms = [t / 1e6 for t in times]
    record["samples"] = {"decodes": len(ms), "setup_runs": len(setup)}
    if len(ms) >= P90_MIN_SAMPLES:
        record["decode_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    else:
        record["decode_ms_p90"] = None
        record["decode_ms_p90_note"] = f"omitted: {len(ms)} decodes < {P90_MIN_SAMPLES}"
    return {
        "decodes_per_s": _metric(len(ms) / wall, "1/s"),
        "decode_ms_p50": _metric(statistics.median(ms), "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _layer_metrics(tracer, summaries, n_traced) -> dict:
    """Per-decode means over the traced decodes."""
    per_decode = 1.0 / n_traced
    self_ns = tracer.self_times_ns()
    calls = tracer.call_counts()
    out = {
        name: _metric(sum(self_ns.get(s, 0) for s in spans) * per_decode / 1e6, "ms")
        for name, spans in T.SELF_TIME_METRICS.items()
    }
    out["field.mul_calls"] = _metric(tracer.mul_calls * per_decode, "count")
    out["field.frob_calls"] = _metric(tracer.frob_calls * per_decode, "count")
    out["qpoly.rdiv_calls"] = _metric(calls.get("qpoly.rdiv", 0) * per_decode, "count")
    out["qpoly.compose_calls"] = _metric(calls.get("qpoly.compose", 0) * per_decode, "count")

    decoded = [s for s in summaries if s[0] != "raised"]
    diags = [dict(s[4]) for s in decoded]
    for key in ("system_rows", "system_cols", "kernel_dim", "candidates_tried"):
        out[f"gabidulin.{key}"] = _metric(sum(d[key] for d in diags) / max(len(diags), 1), "count")
    tried = sum(d["candidates_tried"] for d in diags)
    accepted = sum(1 for s in decoded if s[0])
    out["gabidulin.accept_ratio"] = _metric(accepted / tried if tried else 0.0, "ratio")
    under = sum(1 for d in diags if d["underdetermined"])
    out["interleaved.underdetermined_share"] = _metric(under / max(len(diags), 1), "share")
    return out


def run_traced(workload, cases, seconds, tally, record, seed, gen_ms, cli_trials):
    """Untraced loop for half the run, then the first ``trace_decodes`` of
    the same inputs again under tracing; both must give identical outputs."""
    n_traced = workload.trace_decodes
    warm_up(workload, cases, tally)
    untraced, _, expected = timed_loop(cases, seconds / 2, tally, n_traced, n_traced)

    tracer = T.Tracer()
    traced_times, got = [], []
    with tracer.install():
        for i in range(n_traced):
            tracer.decode_id = i
            elapsed, out = checked_decode(cases[i % len(cases)], tally)
            traced_times.append(elapsed)
            got.append(W.summary(out))
    equivalent = got == expected

    metrics = _layer_metrics(tracer, got, n_traced)
    overhead_ns = statistics.median(traced_times) - statistics.median(untraced[:n_traced])
    metrics["trace.overhead_ms"] = _metric(overhead_ns / 1e6, "ms")
    metrics["channel.gen_ms"] = _metric(gen_ms, "ms")
    metrics["field.create_ms"] = _metric(field_create_ms(workload.fields(), FIELD_CREATE_REPS), "ms")
    p0 = workload.points[0]
    for key, value in field_microbench(p0.q, p0.m, seed).items():
        metrics[key] = _metric(value, "ns")

    cli_point = W.WORKLOADS["gab-q2-table"].points[0]
    rate1, rec1, rc1 = cli_roundtrip(cli_point, seed, cli_trials, 1)
    rate2, rec2, rc2 = cli_roundtrip(cli_point, seed, cli_trials, 2)
    metrics["cli.trials_per_s.jobs1"] = _metric(rate1, "1/s")
    metrics["cli.trials_per_s.jobs2"] = _metric(rate2, "1/s")
    cli_ok = rc1 == 0 and rc2 == 0 and rec1 == rec2 and rec1.strip() != ""

    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    span_path = SPAN_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(span_path)
    record["samples"] = {
        "untraced_decodes": len(untraced),
        "traced_decodes": n_traced,
        "spans": len(tracer.spans),
        "cli_trials": cli_trials,
    }
    record["traced_equals_untraced"] = equivalent
    record["cli"] = {"record": rec1.strip(), "jobs1_equals_jobs2": rec1 == rec2, "exit": [rc1, rc2]}
    record["spans_file"] = str(span_path.relative_to(ROOT))
    return metrics, equivalent and cli_ok


# ---------------------------------------------------------------------------
# entry point


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rankdec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run(
    workload, seed: int, seconds: float, trace: bool, setup_reps=SETUP_REPS, cli_trials=CLI_TRIALS
) -> tuple[dict, dict]:
    """One benchmark run; returns (run record, result object)."""
    tally: Counter = Counter()  # verdict -> decodes
    for q, m in workload.fields():
        rankdec.field_create(q, m)  # keep table builds out of channel.gen_ms
    start = time.perf_counter()
    cases = W.make_cases(workload, seed)
    gen_ms = (time.perf_counter() - start) * 1e3 / len(cases)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "points": [p.label() for p in workload.points],
        "inputs": len(cases),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    if trace:
        metrics, checks_ok = run_traced(workload, cases, seconds, tally, record, seed, gen_ms, cli_trials)
    else:
        metrics = run_end_to_end(workload, cases, seconds, tally, record, setup_reps)
        checks_ok = True
    attempted = sum(tally.values())
    failed = attempted - tally[W.OK]
    record["fail_share"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    record["outcomes"] = dict(tally)
    result = {
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if rankdec is None:
        print(f"perfbench: no rankdec sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    args = _parse(argv)
    record, result = run(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
