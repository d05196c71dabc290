"""Tests of the benchmark's own machinery, plus a one-period smoke run of
each workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import measure, run as bench, tracing, workloads
from repro.esm import AP3ESM, AP3ESMConfig

ROOT = Path(__file__).resolve().parents[2]


class _Reentrant:
    """Mimics ``LicomModel.step(dt)``, which re-enters ``step`` via ``run``."""

    def __init__(self):
        self.inner = 0

    def step(self, dt=None):
        if dt is not None:
            return self.run(int(dt))
        self.inner += 1

    def run(self, n):
        for _ in range(n):
            self.step()


def test_reentrant_method_counted_once():
    tracer = tracing.Tracer()
    tracer.wrap(_Reentrant, "step", ["ocn"])
    try:
        obj = _Reentrant()
        obj.step(4)
        obj.step()
    finally:
        tracer.restore()
    assert obj.inner == 5
    assert tracer.layers["ocn"].calls == 2
    assert "step" in vars(_Reentrant) and not hasattr(_Reentrant.step, "__wrapped__")


def test_nested_top_layers_attributed_once():
    class Outer:
        def go(self, inner):
            inner.go()

    class Inner:
        def go(self):
            pass

    tracer = tracing.Tracer()
    tracer.wrap(Outer, "go", ["atm"])
    tracer.wrap(Inner, "go", ["lnd"])
    try:
        Outer().go(Inner())
    finally:
        tracer.restore()
    assert tracer.attributed_s == pytest.approx(tracer.layers["atm"].seconds)
    assert tracer.attributed_s < tracer.layers["atm"].seconds + tracer.layers["lnd"].seconds


def test_staticmethod_and_instance_wraps_restore():
    class Grid:
        @staticmethod
        def build(level):
            return level * 2

    class Remap:
        def apply(self, x):
            return x + 1

    r = Remap()
    tracer = tracing.Tracer()
    tracer.wrap(Grid, "build", ["grids.icos"])
    tracer.wrap(r, "apply", ["coupler.remap"])
    assert Grid.build(3) == 6 and Grid().build(2) == 4
    assert r.apply(1) == 2
    tracer.restore()
    assert tracer.layers["grids.icos"].calls == 2
    assert tracer.layers["coupler.remap"].calls == 1
    assert "apply" not in vars(r)
    assert isinstance(vars(Grid)["build"], staticmethod)


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(list(range(91)), 90.0) is None  # 9 beyond
    assert measure.tail_percentile(list(range(100)), 90.0) == pytest.approx(89.1)
    assert measure.tail_percentile([], 50.0) is None


@pytest.fixture(scope="module")
def tiny_model():
    m = AP3ESM(AP3ESMConfig(atm_level=1, ocn_nlon=16, ocn_nlat=12, ocn_levels=3))
    m.init()
    yield m
    m.finalize()


def test_health_check_rejects_nan_state(tiny_model):
    m = tiny_model
    assert measure.health_problems([m]) == []
    t_col = m.atm.state()["t_col"]
    bad = t_col.copy()
    bad[0, 0] = np.nan
    m.atm.set_state({"t_col": bad})
    try:
        problems = measure.health_problems([m])
    finally:
        m.atm.set_state({"t_col": t_col})
    assert any("atm.t_col is not finite" in p for p in problems)


def test_health_check_rejects_unphysical_values(tiny_model):
    m = tiny_model
    t_col = m.atm.state()["t_col"]
    m.atm.set_state({"t_col": t_col + 500.0})
    try:
        assert any("atm T" in p for p in measure.health_problems([m]))
    finally:
        m.atm.set_state({"t_col": t_col})
    t = m.ocn.state()["t"]
    m.ocn.set_state({"t": np.where(m.ocn.mask3d, -5.0, t)})
    try:
        assert any("below freezing" in p for p in measure.health_problems([m]))
    finally:
        m.ocn.set_state({"t": t})


def test_run_window_counts_exception_as_failure(tiny_model):
    class Broken:
        def run_couplings(self, n):
            raise FloatingPointError("blow-up")

    win = measure.run_window(Broken(), [tiny_model], 5)
    assert win.attempted == 5 and win.passed == 0
    assert "FloatingPointError" in win.failures[0]


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _listed(section):
    return {m["name"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled-atm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _smoke(name, trace, tmp_path, monkeypatch):
    """Warm-up plus two timed periods (one of them traced with ``--trace 1``)."""
    monkeypatch.setattr(workloads, "PERIODS", 2)
    args = bench.parse_args(["--workload", name, "--seed", "3", "--seconds", "0.1",
                             "--trace", str(trace)])
    return bench.run(args, workloads.WORKLOADS[name], tmp_path)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path, monkeypatch):
    result, manifest = _smoke(name, 1, tmp_path, monkeypatch)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 15
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == _listed("per_layer")
    assert 0.5 < metrics["esm.attributed_frac"] <= 1.0
    members = workloads.WORKLOADS[name].params.get("members", 1)
    assert metrics["grids.icos_build_calls"] == members
    assert (metrics["ai.share"] > 0) == (name == "ensemble-ai")
    assert (metrics["io.checkpoint_share"] > 0) == (name == "coupled-atm")


def test_smoke_untraced(tmp_path, monkeypatch):
    result, manifest = _smoke("coupled-atm", 0, tmp_path, monkeypatch)
    assert result["correct"] and result["attempted"] == 15
    metrics = result["metrics"]
    # Ten timed couplings leave no ten samples beyond the p90.
    assert set(metrics) == _listed("end_to_end") - {"step_ms_p90"}
    assert metrics["ok_frac"]["value"] == 1.0
    setup = manifest["setup_samples_s"]
    assert len(setup) >= bench.SETUP_MIN_SAMPLES
    assert len(setup) == bench.SETUP_MAX_SAMPLES or sum(setup) >= bench.SETUP_MIN_SECONDS
    assert len(manifest["state_sha256"]) == 64
