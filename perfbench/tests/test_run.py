"""Tiny-size runs of every workload through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rotenc import RotencError

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to a few small molecules and write output to tmp."""
    small = {}
    for name, w in workloads.WORKLOADS.items():
        small[name] = replace(w, train_atoms=(8, 9), train_per_size=3, inv_stride=3,
                              serve_atoms=None if w.serve_atoms is None else (8, 10),
                              serve_per_size=min(w.serve_per_size, 2))
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    monkeypatch.setattr(workloads, "MIN_PREDICT_SAMPLES", 8)
    monkeypatch.setattr(workloads, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return small


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert np.isfinite(value["value"])
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines)


def test_rotenc_error_and_non_finite_output_count_as_failed(tiny, tmp_path):
    session = workloads.Session(tiny["train-paper"], seed=3, out_dir=tmp_path)
    session.setup()
    model = session.served.models["none"]
    bad, nan = session.served.serve_records[:2]
    honest = model.predict

    def predict(record):
        if record.id == bad.id:
            raise RotencError("injected")
        return np.full(1, np.nan) if record.id == nan.id else honest(record)

    model.predict = predict
    session.predict_pass()
    n = len(session.served.serve_records)
    assert (session.attempted, session.failed, len(session.latencies_s)) == (n, 2, n - 2)


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "infer", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
