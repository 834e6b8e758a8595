"""Simulation command line: seeded round trips, failure-rate sweeps and the
rank-deficient-error boundary experiment.

Subcommands
    roundtrip        encode -> rank error -> decode cycles for one (n, k, t)
    interleaved-sim  sweep the joint decoder over a radius range
    liga-boundary    observed failure rates against the zeta < t/(n-k-t) predicate
    mindist          brute-force minimum distance and the Singleton verdict

Every emitted record echoes the full configuration plus the master seed,
and per-trial seeds are derived from (seed, trial index), so any record
can be reproduced exactly by re-running its own configuration; parallel
runs (--jobs) aggregate identically to serial ones.

Output is UTF-8 JSON lines (default) or CSV with one record per
parameter point.  Exit status: 0 on success, 1 if a decoding guarantee
was violated (a failed trial within the unique radius, or a Singleton
defect in mindist), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .channel import derive_seed, random_burst_error, random_code, random_error_vector, random_message
from .errors import RankCodeError
from .field import field_create
from .gabidulin import decode_general, encode
from .interleaved import failure_predicate, icode_new, idecode, iencode, max_radius
from .oracle import brute_min_distance

__all__ = ["main"]


class _ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# per-trial workers (top level so a process pool can pickle them)


def _roundtrip_chunk(params, indices):
    q, m, n, k, t, seed = params
    ctx = field_create(q, m)
    successes = 0
    for i in indices:
        s = derive_seed(seed, i)
        code = random_code(ctx, n, k, derive_seed(s, 1))
        msg = random_message(ctx, k, derive_seed(s, 2))
        err = random_error_vector(ctx, n, t, derive_seed(s, 3))
        word = tuple(ctx.add(a, b) for a, b in zip(encode(code, msg), err))
        out = decode_general(code, word, t)
        if out.ok and out.message == msg:
            successes += 1
    return (successes,)


def _interleaved_chunk(params, indices):
    q, m, n, k, u, t, zeta, seed, retry = params
    ctx = field_create(q, m)
    succ = fail = wrong = 0
    for i in indices:
        s = derive_seed(seed, i)
        code = random_code(ctx, n, k, derive_seed(s, 1))
        icode = icode_new(code, u)
        msgs = [random_message(ctx, k, derive_seed(s, 10 + r)) for r in range(u)]
        err = random_burst_error(ctx, u, n, t, zeta, derive_seed(s, 3))
        sent = iencode(icode, msgs)
        word = tuple(
            tuple(ctx.add(a, b) for a, b in zip(crow, erow))
            for crow, erow in zip(sent, err)
        )
        out = idecode(icode, word, t, retry=retry)
        if not out.ok:
            fail += 1
        elif list(out.messages) == msgs:
            succ += 1
        else:
            wrong += 1
    return succ, fail, wrong


def _split(n_trials: int, chunks: int):
    chunks = max(1, min(chunks, n_trials))
    step = (n_trials + chunks - 1) // chunks
    return [range(lo, min(lo + step, n_trials)) for lo in range(0, n_trials, step)]


def _run_chunks(worker, params, n_trials: int, jobs: int):
    pieces = _split(n_trials, jobs if jobs > 1 else 1)
    if jobs <= 1 or len(pieces) == 1:
        results = [worker(params, idx) for idx in pieces]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(worker, params, idx) for idx in pieces]
            results = [f.result() for f in futures]
    return tuple(sum(col) for col in zip(*results))


# ---------------------------------------------------------------------------
# record output


def _emit(records, fields, fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
        text = buf.getvalue()
    else:
        text = "".join(json.dumps(rec) + "\n" for rec in records)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise _ConfigError(msg)


def _validate_common(args) -> None:
    _check(args.m >= 1, "m must be at least 1")
    _check(1 <= args.k <= args.n <= args.m, "need 1 <= k <= n <= m")
    _check(args.trials >= 1, "trials must be at least 1")


def _cmd_roundtrip(args) -> int:
    _validate_common(args)
    unique_radius = (args.n - args.k) // 2
    t = unique_radius if args.t is None else args.t
    _check(0 <= t <= unique_radius, f"t must lie in [0, {unique_radius}]")
    field_create(args.q, args.m)  # surfaces NotPrimePower early
    params = (args.q, args.m, args.n, args.k, t, args.seed)
    (successes,) = _run_chunks(_roundtrip_chunk, params, args.trials, args.jobs)
    rec = {
        "cmd": "roundtrip",
        "q": args.q,
        "m": args.m,
        "n": args.n,
        "k": args.k,
        "t": t,
        "trials": args.trials,
        "seed": args.seed,
        "successes": successes,
        "failures": args.trials - successes,
    }
    _emit([rec], list(rec.keys()), args.format, args.out)
    return 0 if successes == args.trials else 1


def _interleaved_record(cmd: str, args, t: int, zeta: int) -> dict:
    """Run the joint decoder at one (t, zeta) point; the fields that the
    interleaved-sim and liga-boundary records share."""
    params = (args.q, args.m, args.n, args.k, args.u, t, zeta, args.seed, args.retry)
    succ, fail, wrong = _run_chunks(_interleaved_chunk, params, args.trials, args.jobs)
    return {
        "cmd": cmd,
        "q": args.q,
        "m": args.m,
        "n": args.n,
        "k": args.k,
        "u": args.u,
        "t": t,
        "zeta": zeta,
        "trials": args.trials,
        "seed": args.seed,
        "retry": int(args.retry),
        "successes": succ,
        "failures": fail,
        "wrong_decodings": wrong,
    }


def _cmd_interleaved_sim(args) -> int:
    _validate_common(args)
    _check(args.u >= 1, "u must be at least 1")
    field_create(args.q, args.m)
    code_radius = args.u * (args.n - args.k) // (args.u + 1)
    t_min = 0 if args.t_min is None else args.t_min
    t_max = code_radius if args.t_max is None else args.t_max
    _check(0 <= t_min <= t_max <= code_radius, f"need 0 <= t-min <= t-max <= {code_radius}")
    unique_radius = (args.n - args.k) // 2
    records = [
        _interleaved_record("interleaved-sim", args, t, min(args.u, t)) for t in range(t_min, t_max + 1)
    ]
    _emit(records, list(records[0].keys()), args.format, args.out)
    violated = any(r["t"] <= unique_radius and r["successes"] != args.trials for r in records)
    return 1 if violated else 0


def _cmd_liga_boundary(args) -> int:
    _validate_common(args)
    _check(args.u >= 1, "u must be at least 1")
    field_create(args.q, args.m)
    t_min = args.t if args.t_min is None else args.t_min
    t_max = args.t if args.t_max is None else args.t_max
    _check(t_min is not None, "provide --t or --t-min/--t-max")
    _check(1 <= t_min <= t_max < args.n - args.k, f"need 1 <= t < n - k = {args.n - args.k}")
    code_radius = args.u * (args.n - args.k) // (args.u + 1)
    _check(t_max <= code_radius, f"t must not exceed the decoder radius {code_radius}")
    try:
        zetas = [int(z) for z in args.zeta.split(",")]
    except ValueError as exc:
        raise _ConfigError(f"bad --zeta list: {args.zeta!r}") from exc
    _check(all(1 <= z <= args.u for z in zetas), "each zeta must lie in [1, u]")
    records = []
    for t in range(t_min, t_max + 1):
        for zeta in zetas:
            _check(zeta <= t, f"zeta={zeta} needs t >= zeta (got t={t})")
            predicted = failure_predicate(args.n, args.k, t, zeta)
            rec = _interleaved_record("liga-boundary", args, t, zeta)
            rec["predicted_fail"] = int(predicted)
            rec["observed_fail_rate"] = (rec["failures"] + rec["wrong_decodings"]) / args.trials
            records.append(rec)
    _emit(records, list(records[0].keys()), args.format, args.out)
    return 0


def _cmd_mindist(args) -> int:
    _validate_common(args)
    ctx = field_create(args.q, args.m)
    code = random_code(ctx, args.n, args.k, derive_seed(args.seed, 1))
    d = brute_min_distance(code)
    singleton = args.n - args.k + 1
    rec = {
        "cmd": "mindist",
        "q": args.q,
        "m": args.m,
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
        "trials": args.trials,
        "min_distance": d,
        "singleton_bound": singleton,
        "mrd": int(d == singleton),
    }
    _emit([rec], list(rec.keys()), args.format, args.out)
    return 0 if d == singleton else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser, with_u: bool) -> None:
    sub.add_argument("--q", type=int, default=2, help="base field order (prime power)")
    sub.add_argument("--m", type=int, required=True, help="extension degree")
    sub.add_argument("--n", type=int, required=True, help="code length (n <= m)")
    sub.add_argument("--k", type=int, required=True, help="code dimension")
    if with_u:
        sub.add_argument("--u", type=int, default=2, help="interleaving order")
    sub.add_argument("--trials", type=int, default=100, help="trials per parameter point")
    sub.add_argument("--seed", type=int, default=1, help="master seed (64-bit)")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes")
    sub.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankdec",
        description="rank-metric code simulations (Gabidulin and interleaved decoding)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_rt = sub.add_parser("roundtrip", help="encode -> error -> decode cycles")
    _add_common(p_rt, with_u=False)
    p_rt.add_argument("--t", type=int, default=None, help="error rank (default floor((n-k)/2))")
    p_rt.set_defaults(func=_cmd_roundtrip)

    p_is = sub.add_parser("interleaved-sim", help="radius sweep of the joint decoder")
    _add_common(p_is, with_u=True)
    p_is.add_argument("--t-min", type=int, default=None, help="sweep start (default 0)")
    p_is.add_argument("--t-max", type=int, default=None, help="sweep end (default decoder radius)")
    p_is.add_argument("--retry", action="store_true", help="retry failed decodes at smaller radii")
    p_is.set_defaults(func=_cmd_interleaved_sim)

    p_lb = sub.add_parser("liga-boundary", help="failure rates against the zeta predicate")
    _add_common(p_lb, with_u=True)
    p_lb.add_argument("--t", type=int, default=None, help="error rank (must satisfy t < n - k)")
    p_lb.add_argument("--t-min", type=int, default=None)
    p_lb.add_argument("--t-max", type=int, default=None)
    p_lb.add_argument("--zeta", default="1,2", help="comma-separated error ranks over the extension field")
    p_lb.add_argument("--retry", action="store_true", help="retry failed decodes at smaller radii")
    p_lb.set_defaults(func=_cmd_liga_boundary)

    p_md = sub.add_parser("mindist", help="brute-force minimum distance")
    _add_common(p_md, with_u=False)
    p_md.set_defaults(func=_cmd_mindist)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_ConfigError, RankCodeError, ValueError) as exc:
        print(f"rankdec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
