"""The benchmark workloads: two contrasting single-process coupled runs.

Every workload runs on ``backend="serial"`` with ``concurrent_domains=False``
(one Python thread; one OpenBLAS thread), excludes one warm-up ocean
period and then times a whole number of ocean periods of
``ocn_couple_ratio = 5`` couplings each (:data:`PERIODS`), so every run
does identical work whatever its ``--seconds``.  The shares quoted below
are of the timed coupling wall, measured with ``--trace 1`` on a 2-core
x86-64 VM.

Why each workload exists, and which ROADMAP item it exposes:

``coupled-atm``
    Atmosphere level 4 with the default 96x64x10 ocean, fp64, conventional
    physics.  ``repro.atm`` takes 0.82 of the wall (physics 0.41, dycore
    0.39), pp kernels 0.35 and ``repro.ocn`` 0.13; set-up is 3-4 s, mostly
    the level-4 icosahedral grid build.  This is where ROADMAP hot paths (a)
    per-tile dispatch and (b) icosahedral grid construction show.  It also
    writes a rotating checkpoint every ocean period (resilience on,
    ``guard_physics=False``, ``checkpoint_every=5``, keep 2), so restart
    writes run beside compute and the ROADMAP's recovery-path
    consolidation must not slow it.

``ensemble-ai``
    Four lockstep members with one batched AI physics suite, trained before
    set-up timing on 4 days x 6 samples x 64 columns harvested from a
    seeded conventional-physics level-2 atmosphere (width 16, 20 epochs).
    The members run atmosphere level 2 with a 48x32x6 ocean; AI compute
    takes 0.61 of the wall (one 648-column call per coupling) and the
    dycore 0.20.  It is the only workload that uses ``repro.ai`` and the
    lockstep ensemble, and the only one that builds N identical grids, so a
    shared grid cache shows here and nowhere else.  Of the
    conventional-physics pp kernels only the condensation diagnostic runs,
    it writes no checkpoints, and the level-4 grid build is bypassed:
    changes to those must show no change here.

A third workload, ``coupled-ocean`` (atmosphere level 2 with a 192x128x10
ocean: ``repro.ocn`` 0.85 of the wall, 1.5-1.9 s per ocean period), was
measured and dropped.  A full measurement campaign of 22 runs per workload
had to fit in under an hour, and with three workloads at 37-50 s a run on
this host it took about 3,200 s.  Its checkpoint writes moved to
``coupled-atm``; the ocean kernels are still timed on both workloads, at
0.13 and 0.08 of the wall.

Sizes were chosen under two constraints.  The coupling-step p90 needs about
100 timed couplings per run, so every coupling must be cheap, and the model
must pass the health check for the whole run.  A first design (192x128x20
ocean; level-3 ensemble members with the default ocean) needed 66 s and
88 s per 100 couplings, and its ocean blew up (non-finite state) after 8
periods.  With atmosphere level 2, ocean surface currents grow until the
state turns non-finite on every tried ocean with more than 10 levels (12-48
levels: after 20-39 periods), while 192x128x10 stayed finite for 60
periods.  The first design's AI suite, trained on the synthetic archive (8
days x 4 steps x 8 columns, width 16, 2 epochs), drove the atmosphere
temperature to 12,600 K in the first coupling at levels 2 and 3, whose
physics step is 3600 s.  A suite trained on 2 days of columns harvested
from the model itself for 10 epochs left the range after 106-144 couplings
on 5 of 10 seeds; the suite used here stayed in range for 150-200
couplings on each of those seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.atm import AIPhysicsSuite, GristConfig, GristModel, harvest_archive_from_model
from repro.esm import AP3ESM, AP3ESMConfig, EnsembleConfig, EnsembleRun
from repro.resilience.config import ResilienceConfig

#: The seed whose final-state digest is stored in ``digests.json``.
DEFAULT_SEED = 0
#: Amplitude (K) of the seeded initial atmosphere-temperature perturbation
#: on the single-model workloads.
T_PERTURBATION_K = 1e-3
#: Timed ocean periods in every run: 100 couplings, the fewest whole
#: periods that leave ten samples beyond the p90.  The AI-driven
#: ensemble passes the health check for 150-200 couplings, so it sets the
#: ceiling.
PERIODS = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``params`` is the whole configuration in plain values (hashed into the
    run manifest).
    """

    name: str
    params: Dict[str, object]
    build: Callable[[Dict[str, object], int, Path, Optional[AIPhysicsSuite]], object]

    def config_hash(self) -> str:
        blob = json.dumps({"workload": self.name, **self.params}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def make_suite(self, seed: int) -> Optional[AIPhysicsSuite]:
        """Train the workload's AI suite (input generation, outside every
        timed region); None without AI physics.  The archive is harvested
        from a conventional-physics atmosphere of the workload's resolution
        at its own physics step (``harvest_archive_from_model``)."""
        ai = self.params.get("ai")
        if ai is None:
            return None
        host = GristModel(GristConfig(level=self.params["atm_level"], nlev=ai["nlev"]))
        host.init()
        archive = harvest_archive_from_model(
            host, n_days=ai["days"], samples_per_day=ai["samples_per_day"],
            ncol_per_sample=ai["ncol_per_sample"], seed=seed,
        )
        return AIPhysicsSuite.train(
            archive, epochs=ai["epochs"], width=ai["width"], lr=ai["lr"], seed=seed,
        )

    def make_model(self, seed: int, workdir: Path, suite: Optional[AIPhysicsSuite] = None):
        """The uninitialised model (``AP3ESM`` or ``EnsembleRun``)."""
        return self.build(self.params, seed, workdir, suite)


def members(model) -> List[AP3ESM]:
    """The coupled models a workload steps (one, or the ensemble's)."""
    return list(model.members) if isinstance(model, EnsembleRun) else [model]


def perturb(model, seed: int) -> None:
    """Seeded 1e-3 K perturbation of the initial atmosphere temperature,
    applied through ``set_state`` (ensembles perturb through
    ``perturb_seed`` instead)."""
    if isinstance(model, EnsembleRun):
        return
    t_col = model.atm.state()["t_col"]
    noise = np.random.default_rng(seed).standard_normal(t_col.shape)
    model.atm.set_state({"t_col": t_col + T_PERTURBATION_K * noise})


def _base_config(p: Dict[str, object], **extra) -> AP3ESMConfig:
    return AP3ESMConfig(
        atm_level=p["atm_level"], ocn_nlon=p["ocn_nlon"], ocn_nlat=p["ocn_nlat"],
        ocn_levels=p["ocn_levels"], precision="fp64", backend="serial",
        concurrent_domains=False, **extra,
    )


def _build_coupled(p, seed, workdir, suite):
    extra = {}
    ck = p.get("checkpoint")
    if ck is not None:
        extra["resilience"] = ResilienceConfig(
            enabled=True, guard_physics=False, checkpoint_every=ck["every"],
            checkpoint_keep=ck["keep"], checkpoint_dir=str(workdir / "checkpoints"),
        )
    return AP3ESM(_base_config(p, **extra))


def _build_ensemble(p, seed, workdir, suite):
    return EnsembleRun(EnsembleConfig(
        base=_base_config(p, physics=suite), members=p["members"],
        perturb_seed=seed, batch_physics=True,
    ))


_SPEC = [
    Workload(
        name="coupled-atm",
        params={"atm_level": 4, "ocn_nlon": 96, "ocn_nlat": 64, "ocn_levels": 10,
                "checkpoint": {"every": 5, "keep": 2}},
        build=_build_coupled,
    ),
    Workload(
        name="ensemble-ai",
        params={"atm_level": 2, "ocn_nlon": 48, "ocn_nlat": 32, "ocn_levels": 6, "members": 4,
                "ai": {"days": 4, "samples_per_day": 6, "ncol_per_sample": 64, "nlev": 30,
                       "width": 16, "epochs": 20, "lr": 3e-3}},
        build=_build_ensemble,
    ),
]

WORKLOADS: Dict[str, Workload] = {w.name: w for w in _SPEC}

__all__ = [
    "DEFAULT_SEED", "PERIODS", "T_PERTURBATION_K", "WORKLOADS", "Workload",
    "members", "perturb",
]
