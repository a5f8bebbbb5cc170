"""Tests of the benchmark itself, at tiny configurations.

Run from the root of a checkout:  python3 -m pytest bench -q
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

TINY_SETUP = ("eta-table", "--p", "3", "--max-weight", "8")
TINY_LATTICES = ("lattices", "--p", "3", "--max-weight", "8", "--N", "3",
                 "--heights", "1")


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A one-workload benchmark at p=3, W=8, N=3, with pins from this tree."""
    monkeypatch.setattr(run, "RUN_ROOT", tmp_path / "runs")
    monkeypatch.setattr(run, "WORKLOADS", {
        "tiny": run.Workload(invocations=(TINY_LATTICES,), setup=(TINY_SETUP,)),
    })
    pins = {}
    for argv in (TINY_SETUP, TINY_LATTICES):
        outcome = run.run_child(argv, tmp_path, time.monotonic() + 120)
        assert outcome.errors == []
        pins[run.pin_key(argv)] = run.extract(outcome.report)
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    return pins


def test_tiny_run_passes_with_its_own_pins(tiny, capsys):
    assert run.main(["--workload", "tiny", "--seconds", "0"]) == 0
    result = last_json_line(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    # Three set-ups plus three iterations of one invocation each.
    assert result["attempted"] == 6
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_wrong_pin_fails_the_run(tiny, capsys):
    lattices = tiny[run.pin_key(TINY_LATTICES)]["lattices"]
    lattices["sg"] = lattices["sg"][:-1] + [lattices["sg"][-1] + 1]
    assert run.main(["--workload", "tiny", "--seconds", "0"]) == 1
    captured = capsys.readouterr()
    result = last_json_line(captured.out)
    assert not result["correct"]
    assert result["failed"] == 3 and result["attempted"] == 6
    assert "lattices differs from the pin" in captured.err


def test_pin_check_allows_new_check_ids_but_not_missing_or_failing():
    report = {
        "suites": [{"name": "s", "checks": [
            {"id": "a", "status": "PASS", "witness": ""},
            {"id": "new", "status": "PASS", "witness": ""},
        ]}],
        "cache": {"fingerprint": "f"},
    }
    assert run.pin_errors({"check_ids": ["a"], "fingerprint": "f"}, report) == []
    assert run.pin_errors({"check_ids": ["a", "b"], "fingerprint": "f"}, report)
    assert run.pin_errors({"check_ids": ["a"], "fingerprint": "g"}, report)
    report["suites"][0]["checks"][1]["status"] = "FAIL"
    assert run.pin_errors({"check_ids": ["a"], "fingerprint": "f"}, report)


def test_self_time_on_nested_spans():
    names = ["A", "B", "C"]
    spans = [
        (0, 0.0, 10.0, -1),  # A, outermost
        (1, 1.0, 4.0, 0),    # B inside A
        (2, 2.0, 3.0, 1),    # C inside B
        (1, 5.0, 8.0, 0),    # B again, a leaf
        (0, 8.5, 9.5, 0),    # A recursing into itself
    ]
    stats = tracing.span_stats(names, spans)
    assert stats["A"] == {"calls": 2, "total_s": 10.0, "self_s": 3.0 + 1.0}
    assert stats["B"] == {"calls": 2, "total_s": 6.0, "self_s": 2.0 + 3.0}
    assert stats["C"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_traced_lattices_reaches_every_binding_site(tmp_path):
    run.run_child(TINY_SETUP, tmp_path, time.monotonic() + 120)
    outcome = run.run_child(TINY_LATTICES, tmp_path, time.monotonic() + 120,
                            trace_out=tmp_path / "spans.json")
    assert outcome.errors == []
    metrics = tracing.layer_metrics([outcome.spans])
    # integral_kernel is called through the name truncation_centre imported.
    assert metrics["dvr_arith.integral_kernel.calls"] > 0
    assert metrics["dvr_arith.integral_kernel.rows"] > 0
    # diagonal_window_lattice is called through the name cli_report imported.
    assert metrics["truncation_centre.diagonal_window_lattice.calls"] == 1
    assert metrics["bp_hopf.EtaRTable.load.bytes"] > 0
    assert metrics["cli_report.lattice_report.total_s"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == list(tracing.LAYER_METRICS) + ["trace.overhead_ratio"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[name] == tracing.metric_unit(name) for name in per_layer)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
