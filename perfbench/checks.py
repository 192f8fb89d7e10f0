"""Correctness checks on the outputs of one benchmark run; they run outside the timed region.

Every check counts once toward ``attempted``; a failing one is listed with
what it compared. ``error_rate`` is ``len(failures) / attempted``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

from cvdistill.cli import build_config
from cvdistill.networks import ChainSpec, build_chain, build_graph
from cvdistill.photon import LOG_2, entanglement_increase, relative_purity_closed_form
from cvdistill.states import bogoliubov_row, reduce_state, renyi2_entanglement_pure, williamson

DELTA_E_CAP = LOG_2 + 1e-9
REFERENCE_TOL = 1e-10       # output cell vs the scalar library call, per unit of magnitude
CLOSED_FORM_TOL = 1e-8      # Wigner-route delta_e vs the closed form, relative
RATIO_FLOOR = 0.5 - 1e-12
SAMPLE_ROWS = 32

NO_SECOND_ROUTE = ("kind=add has no second analytic route until photon addition moves onto the "
                   "Wigner route (ROADMAP item 1): it is checked against the closed form alone")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _close(value: float, reference: float, tol: float) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def check_scan(checks: Checks, config_path: str, text: str, seed: int) -> int:
    """Bound on every row, and a seeded sample against the library (and, for subtract, the closed form)."""
    config = build_config([config_path])
    spec, kind = config.network, config.kind
    state = build_chain(spec) if isinstance(spec, ChainSpec) else build_graph(spec)
    g = spec.resolved_g
    rows = list(csv.DictReader(io.StringIO(text)))
    checks.check(len(rows) == 2 ** (spec.m - 1), f"scan has {len(rows)} rows, expected {2 ** (spec.m - 1)}")
    numeric = []
    for row in rows:
        try:
            delta = float(row["delta_e"])
        except ValueError:  # null row: the tag sits in delta_e
            checks.notes.append(f"null row mask={row['mask']}: {row['delta_e']}")
            continue
        checks.check(delta <= DELTA_E_CAP, f"mask {row['mask']}: delta_e {delta} above log 2")
        numeric.append(row)
    if kind == "add":
        checks.notes.append(NO_SECOND_ROUTE)
    for row in random.Random(f"check:{seed}").sample(numeric, min(SAMPLE_ROWS, len(numeric))):
        mask = int(row["mask"])
        modes = tuple(i for i in range(spec.m) if (mask >> i) & 1)
        e_before = renyi2_entanglement_pure(state, modes)
        delta = entanglement_increase(state, modes, g, kind)
        for key, ref in (("e_before", e_before), ("e_after", e_before + delta), ("delta_e", delta)):
            value = float(row[key])
            checks.check(_close(value, ref, REFERENCE_TOL),
                         f"mask {mask}: {key} {value!r} vs library {ref!r}")
        if kind == "subtract":
            decomp = williamson(reduce_state(state, modes))
            ratio = relative_purity_closed_form(decomp, bogoliubov_row(decomp, modes.index(g)), kind)
            closed = -math.log(ratio)
            value = float(row["delta_e"])
            checks.check(abs(value - closed) <= CLOSED_FORM_TOL * max(abs(closed), 1e-6),
                         f"mask {mask}: delta_e {value!r} vs closed form {closed!r}")
    return len(rows)


def check_bounds(checks: Checks, config: dict, text: str) -> int:
    doc = json.loads(text)
    tag = f"verify-bounds kind={config['kind']}"
    checks.check(doc["violations"] == 0, f"{tag}: {doc['violations']} violations")
    checks.check(doc["min_ratio"] >= RATIO_FLOOR, f"{tag}: min_ratio {doc['min_ratio']} below 1/2")
    checks.check(doc["trials"] == config["trials"] and doc["seed"] == config["seed"]
                 and doc["kind"] == config["kind"], f"{tag}: summary echoes {doc}")
    if config["kind"] == "add":
        checks.notes.append(NO_SECOND_ROUTE)
    return doc["trials"]


def check_oracle(checks: Checks, text: str) -> int:
    doc = json.loads(text)
    for block in ("grid", "thermal_traces", "two_path"):
        checks.check(doc[block]["pass"], f"oracle-check {block} failed: {doc[block]}")
    checks.check(doc["grid"]["failures"] == [], f"oracle-check grid failures {doc['grid']['failures']}")
    checks.check(doc["pass"], "oracle-check pass is false")
    return doc["grid"]["cases"] + doc["two_path"]["trials"]


def check_output(checks: Checks, config: dict, config_path: str, text: str, seed: int) -> int:
    """Check one job's output; returns its item count (rows, trials, or cases + trials)."""
    if config["experiment"] == "scan-bipartitions":
        return check_scan(checks, config_path, text, seed)
    if config["experiment"] == "verify-bounds":
        return check_bounds(checks, config, text)
    return check_oracle(checks, text)
