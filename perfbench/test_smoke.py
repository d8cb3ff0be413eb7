"""Smoke test of the benchmark harness at its smallest sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.fixture(autouse=True)
def spans_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)


def bench(workload, trace=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                         "--trace", str(trace), "--scale", "smoke"])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


def test_traced_run_counts_layers():
    metrics = bench("certify_families", trace=1)["metrics"]
    # the demo path certifies twice per instance: once inside proof_order_*
    assert metrics["bounds.certify_tightness_calls"]["value"] == 2 * 3
    assert metrics["families.search_yield"]["value"] == 1.0
    assert metrics["tree.distance_calls"]["value"] > 0
    assert metrics["solver.nodes"]["value"] == 0


def _one_label_higher(lab):
    """Same labelling with the largest label raised by one: still a valid
    radio labelling, one span longer."""
    top = max(lab.labels, key=lab.labels.get)
    return dataclasses.replace(lab, labels={**lab.labels, top: lab.labels[top] + 1})


def _wrong_certify(original):
    return lambda m, order: _one_label_higher(original(m, order))


def _wrong_exact(original):
    def exact_rn(tree, *args, **kwargs):
        res = original(tree, *args, **kwargs)
        return dataclasses.replace(res, rn=res.rn + 1, witness=_one_label_higher(res.witness))
    return exact_rn


def _wrong_order(original):
    return lambda inst: tuple(range(inst.tree.p))


WRONG = {
    "certify_families": ("radiotree.bounds", "certify_tightness", _wrong_certify),
    "exact_small": ("radiotree.solver", "exact_rn", _wrong_exact),
    "order_search": ("radiotree.families", "proof_order_caterpillar", _wrong_order),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_answer_counts_as_failure(workload, monkeypatch):
    module_name, attr, make_wrong = WRONG[workload]
    run.load_workloads()
    module = sys.modules[module_name]
    monkeypatch.setattr(module, attr, make_wrong(getattr(module, attr)))
    result = bench(workload)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_interleaved_reference_is_taken_out_and_the_alarm_restored():
    import calibrate
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Interleaved() as timer:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the body ran to a deadline, so every tick inside it shortened its own time
    assert timer.inside_s > 0
    assert 0 < timer.own_s < 0.2 <= timer.own_s + timer.inside_s < 0.3
    assert timer.scaled_s == calibrate.scale(timer.own_s, timer.times)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
