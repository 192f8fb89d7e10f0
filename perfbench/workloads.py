"""Seeded inputs of the four benchmark workloads.

A workload is a list of CLI jobs. A job is the JSON config file handed to
``cvdistill.cli.main``; the benchmark seed decides every number in it, and
the CLI sees nothing but the config.
"""

from __future__ import annotations

import cmath
import math
import random

WHY = {
    "scan-chain": "scan-bipartitions, subtract, 14-mode chain: the Wigner-route row loop "
                  "(slogdet, ix_ gathers, cond) over 8192 cuts of one state",
    "scan-graph": "scan-bipartitions, add, 3x4 CZ grid: the same scan loop through williamson, "
                  "bogoliubov_row and the closed form over 2048 cuts",
    "bounds": "verify-bounds, subtract then add, 5000 trials each: random_symplectic plus the "
              "closed form; no williamson, reduction or Wigner code",
    "oracle": "oracle-check, add: Fock gate application and partial traces, plus 1000 "
              "one-cut two-path trials",
}

CHAIN_MODES = 14
GRID_ROWS, GRID_COLS = 3, 4
BOUNDS_TRIALS = 5000
# The oracle's Fock cutoffs, and with them its cost (cutoff cubed), step with
# |alpha|: below ~0.41 no grid case escalates its cutoff, above it the
# m=3, r=0.8 case does once, and above ~0.6 the base cutoff grows. The seed
# draws the phase over a full turn but |alpha| only inside one such band, so
# every seed does the same amount of Fock work, one escalation included.
ORACLE_ALPHA_RADIUS = (0.45, 0.55)


def _alpha(rng: random.Random, low: float, high: float) -> str:
    z = cmath.rect(rng.uniform(low, high), rng.uniform(0.0, 2.0 * math.pi))
    return f"{z.real:.6f}{z.imag:+.6f}j"


def jobs(workload: str, seed: int) -> list[dict]:
    """CLI configs of one workload, in run order; the same seed gives the same configs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-chain":
        network = {"type": "chain", "modes": CHAIN_MODES, "r": round(rng.uniform(0.5, 1.5), 6),
                   "alpha": _alpha(rng, 0.2, 1.0), "g": rng.randrange(CHAIN_MODES)}
        return [{"experiment": "scan-bipartitions", "kind": "subtract", "network": network}]
    if workload == "scan-graph":
        network = {"type": "graph", "rows": GRID_ROWS, "cols": GRID_COLS,
                   "db": round(rng.uniform(6.0, 12.0), 6), "alpha": _alpha(rng, 0.2, 1.0),
                   "g": rng.randrange(GRID_ROWS * GRID_COLS)}
        return [{"experiment": "scan-bipartitions", "kind": "add", "network": network}]
    if workload == "bounds":
        return [{"experiment": "verify-bounds", "kind": kind, "seed": seed, "trials": BOUNDS_TRIALS}
                for kind in ("subtract", "add")]
    if workload == "oracle":
        return [{"experiment": "oracle-check", "kind": "add", "seed": seed,
                 "alphas": ["0", _alpha(rng, *ORACLE_ALPHA_RADIUS)]}]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WHY)}")
