"""Seeded workload generator: (workload name, seed) -> qfidyn CLI arguments.

Seed 0 reproduces the shipped presets (chain field 0.3, fig1 fields 0.5 and
1.5).  Any other seed draws the chain --field from [0.2, 0.4], --field-low
from [0.3, 0.7] and --field-high from [1.3, 1.7].  The program sees only the
resulting CLI arguments; the physical parameters kept next to them are what
the output checker and the dense oracle need to rebuild the expected tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("fig2-ch8", "qfi-ch10", "fig1-2q")

# The CLI's default grids, rebuilt here so the checker does not trust the
# program's own grid parser.
DEFAULT_TEMPS = tuple(float(t) for t in np.geomspace(0.05, 5.0, 100))
# fig2-ch8 sweeps the default range on 40 points instead of 100.  A 100-point
# command takes about 6 s, so a 30-s run held only four, and the host's slow
# phases (seconds to minutes long, up to 2x) moved their median by 30-40%
# between runs.  At 40 points a command takes about 2.3 s, the per-temperature
# bound is still about 75% of it, and a 55-s run holds 9-16 of them.
FIG2_GRID = "0.05:5:40:log"
FIG2_TEMPS = tuple(float(t) for t in np.geomspace(0.05, 5.0, 40))
FIG1_FIELDS = tuple(float(f) for f in np.linspace(0.05, 1.95, 39))
SETUP_GRID = "1:1:1"


@dataclass(frozen=True)
class Command:
    """One CLI invocation with the temperature grid it evaluates."""

    argv: tuple
    temps: tuple


@dataclass(frozen=True)
class Workload:
    """A resolved workload.

    full is the timed command; setup is the same command cut to one
    temperature point, or None when full already is a single point (its
    set-up time then comes from the full runs).  params holds the physical
    parameters: sites, coupling, field(s), generator and, for fig2, the
    comb temperature.
    """

    name: str
    seed: int
    full: Command
    setup: Command | None
    params: dict


def _draw(rng, lo, hi):
    # Six decimals keep the field generic (no accidental gap coincidences)
    # while the argument stays readable.
    return f"{rng.uniform(lo, hi):.6f}"


def make(name, seed):
    """Resolve a workload name and seed into CLI commands and parameters."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    seed = int(seed)
    rng = random.Random(seed)
    chain_field = "0.3" if seed == 0 else _draw(rng, 0.2, 0.4)
    if name == "fig2-ch8":
        base = ("reproduce-fig2", "--sites", "8", "--field", chain_field, "--out", "out")
        params = {"sites": 8, "coupling": 1.0, "field": float(chain_field),
                  "generator": "staggered-x", "temperature": 1.0}
        return Workload(
            name, seed,
            Command(base + ("--temp-grid", FIG2_GRID), FIG2_TEMPS),
            Command(base + ("--temp-grid", SETUP_GRID), (1.0,)),
            params,
        )
    if name == "qfi-ch10":
        argv = ("qfi", "--preset", "chain", "--sites", "10", "--field", chain_field,
                "--beta", "1")
        params = {"sites": 10, "coupling": 1.0, "field": float(chain_field),
                  "generator": "staggered-x"}
        return Workload(name, seed, Command(argv, (1.0,)), None, params)
    if seed == 0:
        low, high = "0.5", "1.5"
    else:
        low, high = _draw(rng, 0.3, 0.7), _draw(rng, 1.3, 1.7)
    base = ("reproduce-fig1", "--field-low", low, "--field-high", high, "--out", "out")
    params = {"sites": 2, "coupling": 1.0, "field_low": float(low),
              "field_high": float(high), "generator": "antisymmetric-x",
              "fields": tuple(f for f in FIG1_FIELDS if abs(abs(f) - 1.0) >= 1e-9)}
    return Workload(
        name, seed,
        Command(base, DEFAULT_TEMPS),
        Command(base + ("--temp-grid", SETUP_GRID), (1.0,)),
        params,
    )
