"""The benchmark's workloads: one kinmix JSON config per workload and seed.

Each workload fixes a config; the workload seed becomes `particles.seed`
and nothing else. The program under test receives only the generated
config text.
"""
from __future__ import annotations

import copy
import json
import math

_LX = 4.0 * math.pi

# physics blocks named after the acceptance criteria they come from
_CRITERION7 = {
    "mixture": {"m1": 1.0, "m2": 1.0, "delta": 0.5, "alpha": 0.5, "gamma": 0.1, "nu12": 1.0},
    "knudsen": {"eps1": 1e-2, "epst1": 1000.0, "eps2": 1e-2, "epst2": 1000.0},
    "init": {"preset": "cosine-perturbed", "beta": 1e-2},
}
_README = {
    "mixture": {"m1": 1.0, "m2": 1.0, "delta": 0.5, "alpha": 0.5, "gamma": 0.1, "nu12": 1.0},
    "knudsen": {"eps1": 1.0, "epst1": 1.0, "eps2": 1.0, "epst2": 1.0},
    "init": {"preset": "cosine-perturbed", "beta": 0.1},
}

WORKLOADS = {
    "fluid_limit": {
        "mode": "general",
        "domain": {"Lx": _LX, "Lv": 20.0, "Nx": 128, "Nv": 128},
        "particles": {"Np1": 500_000, "Np2": 500_000},
        "time": {"dt": 1e-2, "t_end": 5e-2, "output_every": 5},
        **_CRITERION7,
    },
    "snapshots": {
        "mode": "general",
        "domain": {"Lx": _LX, "Lv": 20.0, "Nx": 128, "Nv": 512},
        "particles": {"Np1": 20_000, "Np2": 20_000},
        "time": {"dt": 1e-2, "t_end": 4e-2, "output_every": 1},
        **_README,
    },
    "reference_oracle": {
        "mode": "reference",
        "domain": {"Lx": _LX, "Lv": 20.0, "Nx": 128, "Nv": 256},
        "particles": {},
        "time": {"dt": 4e-3, "t_end": 0.2, "output_every": 50},
        **_README,
    },
    "homogeneous_relax": {
        "mode": "homogeneous",
        "domain": {"Lx": _LX, "Lv": 20.0, "Nx": 1, "Nv": 512},
        "particles": {"Np1": 100_000, "Np2": 100_000},
        "time": {"dt": 1e-3, "t_end": 0.03, "output_every": 1},
        "mixture": {"m1": 1.0, "m2": 1.5, "delta": 0.5, "alpha": 0.5, "gamma": 0.1, "nu12": 1.0},
        "knudsen": {"eps1": 0.05, "epst1": 0.05, "eps2": 0.05, "epst2": 0.05},
        "init": {"preset": "v4-maxwellian"},
    },
}


# criterion 7's weight-decay gate applies where the fluid limit is reached
W2_DECAY_GATED = ("fluid_limit",)

# How many times an untraced run writes its outputs (the first write is the
# run's own output; `output_s` is the mean of all of them): about a second of
# writing per run, so `output_s` is timed over as much of an invocation as its
# other timings. The writer's speed drifts with the host's load, and a single
# 0.1-0.5 s write per run samples that drift too sparsely to be steady.
WRITES = {"fluid_limit": 4, "snapshots": 1, "reference_oracle": 2, "homogeneous_relax": 6}


def config_doc(workload: str, seed: int) -> dict:
    """The config of `workload` with `seed` as its particle seed."""
    doc = copy.deepcopy(WORKLOADS[workload])
    doc["particles"]["seed"] = seed
    return doc


def config_text(workload: str, seed: int) -> str:
    return json.dumps(config_doc(workload, seed), indent=2)


def steps(doc: dict) -> int:
    return int(round(doc["time"]["t_end"] / doc["time"]["dt"]))


def dof(doc: dict) -> int:
    """Degrees of freedom: Np1+Np2 for particle modes, 2*Nx*Nv for reference."""
    if doc["mode"] == "reference":
        return 2 * doc["domain"]["Nx"] * doc["domain"]["Nv"]
    return doc["particles"]["Np1"] + doc["particles"]["Np2"]
