"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coupled-atm --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
cold ``init()`` calls, each in a fresh forked process), measured SYPD over
a fixed whole number of ocean periods after one warm-up period, the
coupling-step p50/p90, peak RSS and the fraction of couplings that passed
the health check.  ``--trace 1`` steps the same periods but times every
second one layer by layer.  ``--seconds`` is accepted but changes nothing:
every run times the same number of periods.  The metric names, units and
directions come from ``BENCHMARK.json``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Cold set-ups per run, each in a child forked before the run builds its
#: own model (a repeated ``init()`` in one process would not be cold):
#: at least SETUP_MIN_SAMPLES, and more until SETUP_MIN_SECONDS of set-up
#: has been timed, so that a set-up of a fraction of a second still gets a
#: steady median.
SETUP_MIN_SAMPLES = 3
SETUP_MIN_SECONDS = 8.0
SETUP_MAX_SAMPLES = 25
SECONDS_PER_YEAR = 365.0 * 86400.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric_units(section: str) -> dict:
    """Metric name -> unit for a section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_info() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def forked_setup_s(wl, seed: int, workdir: Path, suite) -> float:
    """One cold ``init()`` timed in a forked child, which inherits the
    imports and the trained AI suite (input generation) but no model."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            model = wl.make_model(seed, workdir, suite)
            t0 = time.perf_counter()
            model.init()
            seconds = time.perf_counter() - t0
            model.finalize()
            os.write(write_fd, repr(seconds).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        out = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not out:
        raise RuntimeError(f"set-up child of {wl.name} failed (status {status})")
    return float(out)


def setup_samples(wl, seed: int, workdir: Path, suite) -> list:
    samples = []
    while len(samples) < SETUP_MAX_SAMPLES and (
            len(samples) < SETUP_MIN_SAMPLES or sum(samples) < SETUP_MIN_SECONDS):
        samples.append(forked_setup_s(wl, seed, workdir / f"setup-{len(samples)}", suite))
    return samples


def run(args, wl, workdir: Path) -> tuple:
    """Measure one workload; returns the result object and the manifest.

    After one warm-up ocean period the run steps ``workloads.PERIODS``
    timed periods.  With ``--trace 1`` every second period is traced, so the
    traced and untraced periods see the same host conditions and the same
    model states, and the run ends at the same model state as an untraced
    run.
    """
    import numpy as np

    from perfbench import measure, tracing, workloads
    from perfbench.workloads import DEFAULT_SEED, members, perturb

    periods = workloads.PERIODS
    ref_before = measure.host_ref_ms()

    t0 = time.perf_counter()
    suite = wl.make_suite(args.seed)
    inputs_s = time.perf_counter() - t0
    setup = [] if args.trace else setup_samples(wl, args.seed, workdir, suite)

    setup_trace = tracing.Tracer()
    if args.trace:
        tracing.install_setup_layers(setup_trace)
    model = wl.make_model(args.seed, workdir, suite)
    try:
        model.init()
    finally:
        setup_trace.restore()
    ms = members(model)
    step_trace = tracing.StepTrace(ms)
    plain, traced = [], []
    try:
        perturb(model, args.seed)
        per_period = ms[0].config.ocn_couple_ratio
        attempted = (1 + periods) * per_period
        warm = measure.run_window(model, ms, per_period)
        for p in range(periods):
            if warm.failures or any(w.failures for w in plain + traced):
                break
            if args.trace and p % 2:
                with step_trace:
                    traced.append(measure.run_window(model, ms, per_period))
            else:
                plain.append(measure.run_window(model, ms, per_period))
        digest = measure.state_digest(ms)
        ckpt_mb = tracing.checkpoint_mb(ms)
    finally:
        model.finalize()
    ref_after = measure.host_ref_ms()

    windows = [warm] + plain + traced
    passed = sum(w.passed for w in windows)
    failures = [f for w in windows for f in w.failures]
    walls = [x for w in plain for x in w.walls]
    traced_walls = [x for w in traced for x in w.walls]
    dt_couple = ms[0].dt_couple

    def sypd(walls) -> float:
        years = len(ms) * len(walls) * dt_couple / SECONDS_PER_YEAR
        return years / (sum(walls) / 86400.0)

    stored = json.loads((Path(__file__).parent / "digests.json").read_text()).get(wl.name, {})
    reference = stored.get("sha256") if args.seed == DEFAULT_SEED else None
    digest_match = reference == digest

    values = {}
    if args.trace:
        if traced_walls and not failures:
            values = step_trace.metrics(setup_trace, sum(traced_walls), len(traced_walls))
            values["io.checkpoint_mb"] = ckpt_mb
            values["trace.overhead_frac"] = sypd(walls) / sypd(traced_walls) - 1.0
        values["esm.digest_match"] = 1.0 if digest_match else 0.0
        values["host.ref_ms"] = 0.5 * (ref_before + ref_after)
        samples = {name: len(traced_walls) for name in values}
        samples.update({"esm.digest_match": 1, "host.ref_ms": 2})
        units = metric_units("per_layer")
    else:
        walls_ms = [w * 1e3 for w in walls]
        p90 = measure.tail_percentile(walls_ms, 90.0)
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": passed / attempted,
        }
        if walls:
            values["sypd"] = sypd(walls)
            values["step_ms_p50"] = float(statistics.median(walls_ms))
        if p90 is not None:
            values["step_ms_p90"] = p90
        samples = {
            "sypd": len(walls),
            "setup_s": len(setup),
            "step_ms_p50": len(walls_ms),
            "step_ms_p90": len(walls_ms),
            "step_ms_p90_beyond": sum(1 for w in walls_ms if p90 is not None and w > p90),
            "peak_rss_mb": 1,
            "ok_frac": attempted,
        }
        units = metric_units("end_to_end")

    manifest = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "config_sha256": wl.config_hash(),
        "periods": periods,
        "couplings": {"warmup": per_period, "timed": periods * per_period,
                      "traced": len(traced_walls)},
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "host_ref_ms": {"before": ref_before, "after": ref_after},
        "sample_counts": samples,
        "inputs_s": inputs_s,
        "setup_samples_s": setup,
        "period_walls_s": [w.wall_s for w in plain],
        "state_sha256": digest,
        "digest_reference": reference,
        "failures": failures,
    }
    result = {
        "correct": not failures and passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units if name in values
        },
    }
    return result, manifest


def print_table(result: dict, samples: dict) -> None:
    for name, m in result["metrics"].items():
        n = samples.get(name)
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']:<16} "
              + (f"n={n}" if n is not None else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the repro sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # One BLAS thread, inherited by the set-up children: the coupled step
    # keeps a second OpenBLAS thread idle (process CPU time equals the main
    # thread's), while AI-suite training ran 9.7 s with two threads against
    # 6.4 s with one on a 2-core VM, and collapsed to minutes when the other
    # core was busy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, manifest = run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's work directory is still there
            pass
    print_table(result, manifest["sample_counts"])
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
