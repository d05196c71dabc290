"""Layer attribution from outside the program.

The traced run wraps public callables of the built instances and classes
with timers that live in the benchmark's own files; nothing inside
``src/`` changes.  A layer counts only its outermost call: ``LicomModel.step(dt)``
re-enters ``step`` through ``run``, and timing each entry would count the
ocean twice.  Top-level layers (the components, the coupler remaps and the
checkpoint writes) also feed one union clock, so the attributed fraction of
the coupling wall can never exceed 1.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.esm.ap3esm as ap3esm_module
from repro.atm import AIPhysicsSuite
from repro.grids import IcosahedralGrid, TripolarGrid

#: pp kernels whose per-coupling time and launch count are reported on
#: every workload (zero where a workload does not launch them); the
#: metric names are listed in ``BENCHMARK.json``.
PP_KERNELS = (
    "atm.condensation", "atm.convective_adjustment", "atm.radiation",
    "atm.surface_layer", "ice.thermo", "lnd.bucket",
)

#: Top-level layers: disjoint pieces of a coupling whose union is the
#: attributed part of its wall.
TOP_LAYERS = ("atm", "ocn", "ice", "lnd", "coupler.remap", "io.checkpoint")


@dataclass
class LayerClock:
    """Wall seconds and call count of one layer's outermost calls."""

    seconds: float = 0.0
    calls: int = 0
    samples: List[float] = field(default_factory=list)
    depth: int = 0


class Tracer:
    """Installs and removes timing wrappers; owns one clock per layer."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerClock] = {}
        self.attributed_s = 0.0
        self.columns = 0
        self._top_depth = 0
        self._top_t0 = 0.0
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._wrapped: set = set()

    def clock(self, layer: str) -> LayerClock:
        return self.layers.setdefault(layer, LayerClock())

    def wrap(
        self,
        owner: object,
        attr: str,
        layers: Sequence[str],
        on_call: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        """Time ``owner.attr`` (a class, instance or module attribute) for
        each of ``layers`` whose clock is not already inside a call.
        Wrapping the same attribute twice is a no-op."""
        key = (id(owner), attr)
        if key in self._wrapped:
            return
        self._wrapped.add(key)
        raw = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        clocks = [self.clock(name) for name in layers]
        top = any(name in TOP_LAYERS for name in layers)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            outer = [c for c in clocks if c.depth == 0]
            if not outer:
                return fn(*args, **kwargs)
            for c in outer:
                c.depth += 1
            t0 = time.perf_counter()
            if top:
                if self._top_depth == 0:
                    self._top_t0 = t0
                self._top_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                for c in outer:
                    c.depth -= 1
                    c.seconds += t1 - t0
                    c.calls += 1
                    c.samples.append(t1 - t0)
                if top:
                    self._top_depth -= 1
                    if self._top_depth == 0:
                        self.attributed_s += t1 - self._top_t0
                if on_call is not None:
                    on_call(args)

        own = attr in vars(owner)
        setattr(owner, attr, staticmethod(timed) if isinstance(raw, staticmethod) else timed)
        self._patches.append((owner, attr, raw, own))

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()
        self._wrapped.clear()


def install_setup_layers(tracer: Tracer) -> None:
    """Time the grid and remap builds that ``init()`` performs."""
    tracer.wrap(IcosahedralGrid, "build", ["grids.icos"])
    tracer.wrap(TripolarGrid, "build", ["grids.tripolar"])
    # AP3ESM.init calls the name bound in its own module.
    tracer.wrap(ap3esm_module, "nearest_remap", ["grids.remap"])


def install_step_layers(tracer: Tracer, members: Sequence) -> None:
    """Time each layer's public entry points on built coupled models."""

    def count_columns(args: tuple) -> None:
        tracer.columns += int(args[1].ncol)

    for m in members:
        atm, ocn = m.atm, m.ocn
        for attr in ("step", "begin_step", "complete_step"):
            tracer.wrap(type(atm), attr, ["atm"])
        # In lockstep the fleet's physics call runs between begin_step and
        # complete_step, so the suite is part of the atm layer too.
        physics = ["atm", "atm.physics"]
        if isinstance(atm.physics, AIPhysicsSuite):
            physics.append("ai")
        tracer.wrap(type(atm.physics), "compute", physics,
                    on_call=count_columns if "ai" in physics else None)
        tracer.wrap(type(atm.dycore), "step_rk4", ["atm.dycore"])
        tracer.wrap(type(ocn), "step", ["ocn"])
        tracer.wrap(type(ocn.barotropic), "step", ["ocn.barotropic"])
        tracer.wrap(type(ocn.baroclinic), "step", ["ocn.baroclinic"])
        tracer.wrap(type(ocn.tracers), "step", ["ocn.tracers"])
        tracer.wrap(type(m.ice), "step", ["ice"])
        tracer.wrap(type(m.lnd), "step", ["lnd"])
        tracer.wrap(m.a2o, "apply", ["coupler.remap"])
        tracer.wrap(m.o2a, "apply", ["coupler.remap"])
        tracer.wrap(type(m), "checkpoint", ["io.checkpoint"])


def pp_totals(members: Sequence) -> Dict[str, Dict[str, float]]:
    """Summed ``ctx.metrics.summary()`` over the members' contexts."""
    out: Dict[str, Dict[str, float]] = {}
    seen = set()
    for m in members:
        metrics = m.ctx.metrics
        if id(metrics) in seen:
            continue
        seen.add(id(metrics))
        for kernel, row in metrics.summary().items():
            tot = out.setdefault(kernel, {"launches": 0.0, "seconds": 0.0})
            tot["launches"] += row["launches"]
            tot["seconds"] += row["seconds"]
    return out


def exchange_bytes(members: Sequence) -> float:
    """Bytes moved through the coupling exchange so far, all paths and
    members (the same accounting as the ``coupler.exchange.bytes`` counter)."""
    return float(sum(
        row["bytes"] for m in members for row in m.exchange.report().values()
    ))


def checkpoint_mb(members: Sequence) -> float:
    """Size (MB) of the newest published checkpoint set of each member."""
    total = 0
    for m in members:
        ckpts = getattr(m, "checkpoints", None)
        latest = ckpts.latest() if ckpts is not None else None
        if latest is not None:
            total += sum(p.stat().st_size for p in latest.rglob("*") if p.is_file())
    return total / 1e6


class StepTrace:
    """Per-layer clocks plus pp-kernel and exchange-byte deltas, summed over
    the periods run inside ``with step_trace:`` (wrappers are installed on
    entry and removed on exit)."""

    def __init__(self, members: Sequence) -> None:
        self.members = list(members)
        self.tracer = Tracer()
        self.pp: Dict[str, Dict[str, float]] = {}
        self.exchange_bytes = 0.0

    def __enter__(self) -> "StepTrace":
        self._pp0 = pp_totals(self.members)
        self._bytes0 = exchange_bytes(self.members)
        install_step_layers(self.tracer, self.members)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.restore()
        for kernel, row in pp_totals(self.members).items():
            before = self._pp0.get(kernel, {"launches": 0.0, "seconds": 0.0})
            acc = self.pp.setdefault(kernel, {"launches": 0.0, "seconds": 0.0})
            for key in acc:
                acc[key] += row[key] - before[key]
        self.exchange_bytes += exchange_bytes(self.members) - self._bytes0

    def metrics(self, setup: Tracer, wall_s: float, couplings: int) -> Dict[str, float]:
        """Per-layer values over the traced couplings, whose summed wall is
        ``wall_s``; ``setup`` holds the grid-build clocks of ``init()``.
        The caller adds ``io.checkpoint_mb`` and the diagnostics."""
        step = self.tracer

        def secs(tracer: Tracer, layer: str) -> float:
            return tracer.clock(layer).seconds

        def share(layer: str) -> float:
            return secs(step, layer) / wall_s

        out = {
            "grids.icos_build_s": secs(setup, "grids.icos"),
            "grids.icos_build_calls": float(setup.clock("grids.icos").calls),
            "grids.tripolar_build_s": secs(setup, "grids.tripolar"),
            "grids.remap_build_s": secs(setup, "grids.remap"),
            "atm.share": share("atm"),
            "atm.physics_share": share("atm.physics"),
            "atm.dycore_share": share("atm.dycore"),
        }
        zero = {"launches": 0.0, "seconds": 0.0}
        for kernel in PP_KERNELS:
            row = self.pp.get(kernel, zero)
            out[f"pp.{kernel}.s_per_coupling"] = row["seconds"] / couplings
            out[f"pp.{kernel}.launches_per_coupling"] = row["launches"] / couplings
        ai_calls = step.clock("ai").calls
        ckpt = step.clock("io.checkpoint")
        out.update({
            "pp.share": sum(row["seconds"] for row in self.pp.values()) / wall_s,
            "ocn.share": share("ocn"),
            "ocn.barotropic_share": share("ocn.barotropic"),
            "ocn.baroclinic_share": share("ocn.baroclinic"),
            "ocn.tracers_share": share("ocn.tracers"),
            "ice.share": share("ice"),
            "lnd.share": share("lnd"),
            "coupler.remap_share": share("coupler.remap"),
            "coupler.exchange_bytes_per_coupling": self.exchange_bytes / couplings,
            "ai.share": share("ai"),
            "ai.calls_per_coupling": ai_calls / couplings,
            "ai.columns_per_call": step.columns / ai_calls if ai_calls else 0.0,
            "io.checkpoint_ms_p50": float(np.median(ckpt.samples)) * 1e3 if ckpt.samples else 0.0,
            "io.checkpoint_share": share("io.checkpoint"),
            "esm.attributed_frac": step.attributed_s / wall_s,
            "esm.self_share": 1.0 - step.attributed_s / wall_s,
        })
        return out
