"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run every workload at small sizes, check that each metric named in
BENCHMARK.json is emitted with its unit, and check that the output check
counts a planted wrong decode as a failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as W
from rankdec import DecodeOutcome, QPoly, gabidulin

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL_POINTS = {
    "gab-q2-table": (W.Point(2, 8, 8, 2, 3), W.Point(2, 8, 6, 2, 2)),
    # 2^19 elements: above the table cap, so the table-less path still runs
    "gab-q2-wide": (W.Point(2, 19, 19, 17, 1),),
    "gab-oddq": (W.Point(3, 4, 4, 2, 1), W.Point(3, 4, 3, 1, 1), W.Point(4, 3, 3, 1, 1)),
    "igab-boundary": tuple(
        W.Point(2, 8, n, k, t, u=3, zeta=zeta)
        for n, k in ((8, 2), (7, 1))
        for t, zeta in ((4, 2), (4, 1))
    ),
}


def small(name):
    return dataclasses.replace(W.WORKLOADS[name], points=SMALL_POINTS[name], pool=2, trace_decodes=2)


def _emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_smoke_every_workload_emits_every_metric(name):
    workload = small(name)
    assert {p.u > 1 for p in workload.points} == {p.u > 1 for p in W.WORKLOADS[name].points}

    record, result = run.run(workload, seed=3, seconds=0.05, trace=False, setup_reps=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workload.points) + 1
    assert _emitted(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert record["fail_share"] == {"value": 0.0, "failed": 0, "attempted": result["attempted"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    record, result = run.run(workload, seed=3, seconds=0.05, trace=True, cli_trials=4)
    assert result["correct"], record
    assert record["traced_equals_untraced"] and record["cli"]["jobs1_equals_jobs2"]
    assert _emitted(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_inputs_depend_only_on_seed():
    workload = small("gab-oddq")
    a, b, c = (W.make_cases(workload, s) for s in (5, 5, 6))
    assert [x.word for x in a] == [x.word for x in b]
    assert [x.word for x in a] != [x.word for x in c]


def test_planted_wrong_decode_is_a_failure(monkeypatch):
    workload = small("gab-q2-table")

    def planted(case):
        out = gabidulin.decode_general(case.code, case.word, case.point.t)
        return dataclasses.replace(out, messages=(out.message + QPoly.x(out.message.ctx),))

    monkeypatch.setattr(W, "decode", planted)
    record, result = run.run(workload, seed=3, seconds=0.05, trace=False, setup_reps=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert record["outcomes"] == {W.MISCORRECTION: result["attempted"]}
    assert record["fail_share"]["value"] == 1.0


def test_verdicts():
    plain = W.make_case(W.Point(2, 8, 8, 2, 3), seed=1)
    good = W.decode(plain)
    assert W.verdict(plain, good) == W.OK
    assert W.verdict(plain, ValueError("boom")) == W.RAISED
    assert W.verdict(plain, DecodeOutcome(ok=False, reason="x")) == W.UNEXPECTED_FAILURE
    doomed = W.make_case(W.Point(2, 8, 8, 2, 4, u=3, zeta=1), seed=1)
    assert not doomed.point.expect_ok
    assert W.verdict(doomed, DecodeOutcome(ok=False, reason="x")) == W.OK


def test_tracer_self_time_and_restore():
    tracer = tracing.Tracer()
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.TARGETS]
    case = W.make_case(W.Point(2, 8, 6, 2, 2), seed=1)
    with tracer.install():
        out = W.decode(case)
    assert [getattr(owner, attr) for owner, attr, _ in tracing.TARGETS] == originals
    assert out.ok and out.messages == case.sent
    names = {s[0] for s in tracer.spans}
    assert {"gabidulin.decode_general", "qpoly.co_interpolator", "field.kernel"} <= names
    root = tracer.spans[0]
    self_ns = tracer.self_times_ns()
    assert sum(self_ns.values()) == root[2] - root[1]
    assert tracer.mul_calls > 0 and tracer.frob_calls > 0


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = [sys.executable, *BENCH["command"][1:], "--workload", "gab-oddq", "--seed", "1"]
    argv += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
