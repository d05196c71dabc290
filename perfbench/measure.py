"""Timed coupling windows, the per-coupling health check, the final-state
digest and the host reference loop."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ocn.model import T_FREEZE

#: Physical range (K) of every atmosphere column temperature.
T_ATM_RANGE_K = (150.0, 350.0)
#: Slack (K) below the seawater freezing point allowed for the SST.
SST_TOLERANCE_K = 1e-6
#: Samples that must lie beyond a tail percentile before it is reported.
MIN_TAIL_SAMPLES = 10


def health_problems(members: Sequence) -> List[str]:
    """Reasons the coupled state is unhealthy (empty when it is healthy).

    Every array of every component's public ``state()`` must be finite, the
    atmosphere temperature must lie in :data:`T_ATM_RANGE_K`, the ocean SST
    must not sit below freezing by more than :data:`SST_TOLERANCE_K`, and the
    sea-ice fraction must lie in [0, 1].
    """
    problems = []
    for k, m in enumerate(members):
        for comp in (m.atm, m.ocn, m.ice, m.lnd):
            for key, arr in comp.state().items():
                if not np.all(np.isfinite(arr)):
                    problems.append(f"member {k}: {comp.name}.{key} is not finite")
        t = m.atm.state()["t_col"]
        lo, hi = T_ATM_RANGE_K
        if np.isfinite(t).all() and (t.min() < lo or t.max() > hi):
            problems.append(
                f"member {k}: atm T in [{t.min():.1f}, {t.max():.1f}] K, outside [{lo}, {hi}]"
            )
        sst = m.ocn.export_state()["sst"][m.ocn.mask3d[0]]
        if sst.size and sst.min() < T_FREEZE - SST_TOLERANCE_K:
            problems.append(f"member {k}: SST {sst.min():.4f} C below freezing {T_FREEZE} C")
        frac = m.ice.export_state()["ice_fraction"]
        if frac.size and (frac.min() < 0.0 or frac.max() > 1.0):
            problems.append(
                f"member {k}: ice fraction in [{frac.min():.4f}, {frac.max():.4f}], outside [0, 1]"
            )
    return problems


def state_digest(members: Sequence) -> str:
    """SHA-256 over every component's ``state()`` arrays, in a fixed order."""
    h = hashlib.sha256()
    for m in members:
        for comp in (m.atm, m.ocn, m.ice, m.lnd):
            for key, arr in sorted(comp.state().items()):
                a = np.ascontiguousarray(arr)
                h.update(f"{comp.name}.{key}:{a.dtype.str}:{a.shape}".encode())
                h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class Window:
    """Per-coupling walls of a stretch of ``run_couplings(1)`` calls."""

    attempted: int
    walls: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return len(self.walls)

    @property
    def wall_s(self) -> float:
        return float(sum(self.walls))


def run_window(model, members: Sequence, couplings: int) -> Window:
    """Run ``couplings`` couplings, timing each ``run_couplings(1)`` call
    (step plus any periodic checkpoint) and health-checking the state after
    it, outside the timed call.

    A coupling passes when it returns and the state is healthy.  The first
    failure (an exception or an unhealthy state) ends the window: the model
    state is no longer trustworthy, so the couplings left count as attempted
    and not passed.
    """
    win = Window(attempted=couplings)
    for i in range(couplings):
        t0 = time.perf_counter()
        try:
            model.run_couplings(1)
        except Exception as exc:  # a failing coupling is a result, not a crash
            win.failures.append(f"coupling {i}: {type(exc).__name__}: {exc}")
            return win
        wall = time.perf_counter() - t0
        problems = health_problems(members)
        if problems:
            win.failures.append(f"coupling {i}: " + "; ".join(problems))
            return win
        win.walls.append(wall)
    return win


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of ``samples``, or None when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if not samples:
        return None
    value = float(np.percentile(samples, q))
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= MIN_TAIL_SAMPLES else None


def host_ref_ms(repeats: int = 5) -> float:
    """Median wall (ms) of a fixed Python+numpy loop that touches nothing
    in the repository: tells a slow host from a regression.

    It is a diagnostic only and never divides an end-to-end metric.  On a
    2-core VM, normalising per-ocean-period walls by such a loop measured in
    the same process left their spread unchanged (CV 7-17 % raw, 8-16 %
    normalised): the host noise is not common to the two.  The ROADMAP's
    other candidate divisor, the calibrate ``stream`` probe, runs through
    ``pp.parallel_for``, so a pp optimisation would speed up the divisor
    too and hide its own gain.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((64, 64)) / 8.0
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        x = a
        acc = 0.0
        for _ in range(150):
            x = np.tanh(x @ a) + 0.5 * x
            acc += sum(float(v) for v in x[0, :32])
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))
