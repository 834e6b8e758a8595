"""Command-line harness: schemas, reproducibility, exit codes."""

import csv
import io
import json
import subprocess
import sys

import pytest

from rankdec import cli
from rankdec.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_roundtrip_clean_run_and_schema(capsys):
    code, out, err = _run(
        capsys,
        ["roundtrip", "--m", "6", "--n", "6", "--k", "2", "--t", "1", "--trials", "8", "--seed", "5"],
    )
    assert code == 0 and err == ""
    (rec,) = _records(out)
    assert rec["cmd"] == "roundtrip"
    assert rec["successes"] == 8 and rec["failures"] == 0
    for key in ("q", "m", "n", "k", "t", "trials", "seed"):
        assert key in rec


def test_roundtrip_default_radius_and_reproducibility(capsys):
    argv = ["roundtrip", "--m", "8", "--n", "8", "--k", "2", "--trials", "5", "--seed", "17"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert _records(out1)[0]["t"] == 3


def test_config_errors_exit_2(capsys):
    bad_configs = [
        ["roundtrip", "--m", "6", "--n", "8", "--k", "2"],  # n > m
        ["roundtrip", "--m", "6", "--n", "6", "--k", "2", "--t", "3"],  # t too big
        ["roundtrip", "--q", "6", "--m", "4", "--n", "4", "--k", "2"],  # not a prime power
        ["liga-boundary", "--m", "8", "--n", "8", "--k", "2", "--t", "7"],  # t >= n-k
        ["liga-boundary", "--m", "8", "--n", "8", "--k", "2", "--t", "4", "--zeta", "0,2"],
        ["interleaved-sim", "--m", "6", "--n", "6", "--k", "2", "--u", "0"],
        # sweep end beyond the decoder radius floor(u(n-k)/(u+1)) = 2
        ["interleaved-sim", "--m", "6", "--n", "6", "--k", "2", "--u", "2", "--t-max", "3"],
    ]
    for argv in bad_configs:
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert "error" in err


def test_interleaved_sim_sweep_and_csv(capsys, tmp_path):
    argv = [
        "interleaved-sim", "--m", "6", "--n", "6", "--k", "2", "--u", "2",
        "--t-max", "2", "--trials", "5", "--seed", "3", "--format", "csv",
    ]
    code, out, err = _run(capsys, argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["t"]) for r in rows] == [0, 1, 2]
    assert all(int(r["successes"]) == 5 for r in rows)  # all t within (n-k)/2 ... radius 2
    out_path = tmp_path / "sweep.csv"
    code, _, _ = _run(capsys, argv + ["--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().splitlines()[0].startswith("cmd,")


def test_interleaved_sim_retry_flag(capsys):
    argv = [
        "interleaved-sim", "--m", "6", "--n", "6", "--k", "2", "--u", "2",
        "--t-min", "2", "--t-max", "2", "--trials", "4", "--seed", "9", "--retry",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert _records(out)[0]["retry"] == 1


@pytest.mark.parametrize("failing_t,want", [(2, 1), (3, 0)])
def test_interleaved_sim_exit_code_counts_failures_within_the_unique_radius(
    capsys, monkeypatch, failing_t, want
):
    # n - k = 5, u = 3: unique radius 2, decoder radius 3
    def chunk(params, indices):
        t = params[5]
        return (0, len(indices), 0) if t == failing_t else (len(indices), 0, 0)

    monkeypatch.setattr(cli, "_interleaved_chunk", chunk)
    argv = [
        "interleaved-sim", "--m", "6", "--n", "6", "--k", "1", "--u", "3",
        "--trials", "4", "--seed", "1",
    ]
    code, out, err = _run(capsys, argv)
    assert code == want and err == ""
    recs = _records(out)
    assert [r["t"] for r in recs] == [0, 1, 2, 3]
    assert [r["failures"] for r in recs] == [4 if r["t"] == failing_t else 0 for r in recs]


def test_liga_boundary_schema_and_prediction(capsys):
    argv = [
        "liga-boundary", "--m", "8", "--n", "8", "--k", "2", "--u", "2",
        "--t", "4", "--zeta", "1,2", "--trials", "6", "--seed", "11",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    recs = _records(out)
    assert [r["zeta"] for r in recs] == [1, 2]
    assert recs[0]["predicted_fail"] == 1  # 1 < 4/2
    assert recs[1]["predicted_fail"] == 0  # 2 >= 4/2
    for r in recs:
        assert r["observed_fail_rate"] == (r["failures"] + r["wrong_decodings"]) / r["trials"]


def test_mindist_reports_singleton_verdict(capsys):
    code, out, _ = _run(capsys, ["mindist", "--m", "4", "--n", "3", "--k", "1", "--seed", "2"])
    assert code == 0
    (rec,) = _records(out)
    assert rec["min_distance"] == 3 and rec["mrd"] == 1


def test_parallel_jobs_match_serial(capsys):
    base = [
        "interleaved-sim", "--m", "6", "--n", "6", "--k", "2", "--u", "2",
        "--t-max", "2", "--trials", "6", "--seed", "21",
    ]
    _, serial, _ = _run(capsys, base + ["--jobs", "1"])
    _, parallel, _ = _run(capsys, base + ["--jobs", "2"])
    assert serial == parallel


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rankdec", "roundtrip", "--m", "4", "--n", "4",
         "--k", "2", "--t", "1", "--trials", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip())["successes"] == 2
