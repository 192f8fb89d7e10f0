"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE`` line (visible with ``pytest -s`` or
in captured output) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np

from cvdistill import (
    ChainSpec,
    GaussianState,
    GraphSpec,
    WilliamsonDecomposition,
    annihilate,
    apply_gate_fock,
    bogoliubov_row,
    build_chain,
    chain_elements,
    entanglement_increase,
    grid_adjacency,
    random_symplectic,
    reduced_purity,
    relative_purity_closed_form,
    symplectic_deviation,
    vacuum_fock,
    williamson,
)
from cvdistill.cli import SCAN_HEADER, RunConfig, oracle_check, scan_bipartitions, two_path_error, verify_bounds
from cvdistill.photon import LOG_2

DELTA_CAP = LOG_2 + 1e-9


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_purity_bound_randomised():
    start = time.time()
    results = {}
    for kind in ("subtract", "add"):
        summary = verify_bounds(RunConfig(experiment="verify-bounds", kind=kind,
                                          seed=20210409, trials=10_000))
        results[kind] = summary
    elapsed = time.time() - start
    min_ratio = min(s["min_ratio"] for s in results.values())
    violations = sum(s["violations"] for s in results.values())
    ok = min_ratio >= 0.5 - 1e-12 and violations == 0
    _report(1, "purity bound over 2x10k random mixed states", ok,
            f"min_ratio={min_ratio:.12f}, violations={violations}, {elapsed:.1f}s")


def test_criterion_2_bound_saturation():
    worst = 0.0
    for n in (2.0, 10.0, 100.0):
        dec = WilliamsonDecomposition(S=np.eye(2), nu=np.array([n]), mean=np.zeros(2))
        ratio = relative_purity_closed_form(dec, bogoliubov_row(dec, 0), "subtract")
        worst = max(worst, abs(ratio - (n * n + 1.0) / (2.0 * n * n)))
        if n == 100.0:
            saturation_gap = ratio - 0.5
            value_check = abs(ratio - 0.50005)
    ok = worst <= 1e-12 and value_check <= 1e-12 and saturation_gap <= 1e-4
    _report(2, "bound saturation on thermal modes", ok,
            f"max closed-form deviation={worst:.2e}, gap at n=100: {saturation_gap:.2e}")


def _scan(network, **kwargs):
    # the scan's columns as row dicts; a row tagged with an error has no numbers
    table = scan_bipartitions(RunConfig(experiment="scan-bipartitions", network=network, **kwargs))
    rows = [dict(zip(SCAN_HEADER, row)) for row in zip(*(table[key].tolist() for key in SCAN_HEADER))]
    for row, error in zip(rows, table["error"] or [None] * len(rows)):
        if error:
            row.update(e_before=None, e_after=None, delta_e=None, error=error)
    return rows


def test_criterion_3_entanglement_bound_full_grids():
    start = time.time()
    max_delta = -math.inf
    numeric_rows = 0
    vacuum_rows = 0
    mode_g_curve = {}
    g = ChainSpec(m=10, r=1.0).resolved_g
    g_mask = 1 << g
    for r in [round(0.1 * i, 10) for i in range(21)]:
        for alpha in (0.0, 0.5):
            rows = _scan(ChainSpec(m=10, r=r, alpha_g=alpha))
            assert len(rows) == 512
            for row in rows:
                if row.get("delta_e") is None:
                    vacuum_rows += 1
                    continue
                numeric_rows += 1
                max_delta = max(max_delta, row["delta_e"])
                if row["mask"] == g_mask:
                    mode_g_curve[(r, alpha)] = row["delta_e"]
    graph = GraphSpec(adjacency=grid_adjacency(3, 3), squeezing_db=10.0, alpha_g=0.5)
    rows = _scan(graph)
    assert len(rows) == 256
    for row in rows:
        numeric_rows += 1
        max_delta = max(max_delta, row["delta_e"])
    elapsed = time.time() - start

    # Bell-limit bipartitions saturate the cap to below double precision, so
    # the strict sub-log2 plateau is asserted on the mode-g sweep curve where
    # the margin is resolvable.
    curve_max = {a: max(v for (r, al), v in mode_g_curve.items() if al == a)
                 for a in (0.0, 0.5)}
    shape_ok = all(
        mode_g_curve[(0.1, alpha)] < mode_g_curve[(1.0, alpha)] and curve_max[alpha] < LOG_2
        for alpha in (0.0, 0.5)
    )
    ok = (
        max_delta <= DELTA_CAP
        and shape_ok
        and vacuum_rows == 512  # exactly the r=0, alpha=0 scan
        and numeric_rows == 21 * 2 * 512 - 512 + 256
    )
    _report(3, "delta-E bound on 21504 chain + 256 graph bipartitions", ok,
            f"max_delta - log2 = {max_delta - LOG_2:.2e} <= 1e-9, "
            f"mode-g plateau margin={min(LOG_2 - v for v in curve_max.values()):.2e}, "
            f"rise check={shape_ok}, {elapsed:.1f}s")


def test_criterion_4_bell_limit_with_oracle():
    spec = ChainSpec(m=3, r=0.01, alpha_g=0.0)
    state = build_chain(spec)
    g = spec.resolved_g
    delta = entanglement_increase(state, (0,), g, "subtract")

    fock = vacuum_fock(3, 20, leak_tol=1e-10)
    for elem in chain_elements(spec):
        fock = apply_gate_fock(fock, elem)
    minus = annihilate(fock, g)
    delta_oracle = math.log(reduced_purity(fock, [0]) / reduced_purity(minus, [0]))
    rel = abs(delta - delta_oracle) / abs(delta_oracle)
    ok = delta >= 0.99 * LOG_2 and rel <= 1e-6
    _report(4, "Bell-limit saturation on the weakly squeezed chain", ok,
            f"delta={delta:.9f} >= {0.99 * LOG_2:.9f}, oracle rel err={rel:.2e}")


def test_criterion_5_two_path_agreement():
    worst = two_path_error(51, 1000, ("subtract", "add"))
    ok = worst <= 1e-8
    _report(5, "two-path agreement on 1000 random pure globals, both kinds", ok,
            f"max rel discrepancy={worst:.2e}")


def test_criterion_6_oracle_equivalence():
    start = time.time()
    summary = oracle_check(RunConfig(experiment="oracle-check", seed=61, trials=200))
    elapsed = time.time() - start
    grid = summary["grid"]
    ok = grid["pass"] and not grid["failures"] and grid["max_rel_err"] <= 1e-6
    _report(6, "analytic vs Fock oracle on the m=2,3 grid", ok,
            f"max rel err={grid['max_rel_err']:.2e} over {grid['cases']} cases, {elapsed:.1f}s")


def test_criterion_7_thermal_trace_identities():
    summary = oracle_check(RunConfig(experiment="oracle-check", seed=71, trials=1))
    block = summary["thermal_traces"]
    ok = block["pass"] and block["max_rel_err"] <= 1e-8
    _report(7, "eight thermal trace identities at n=1.5,2,5", ok,
            f"max rel err={block['max_rel_err']:.2e}")


def test_criterion_8_pure_state_fixpoint():
    rng = np.random.default_rng(81)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        s_mat = random_symplectic(m, rng, squeeze_bound=2.0)
        g = int(rng.integers(m))
        alpha = 2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        mean = np.zeros(2 * m)
        mean[g], mean[m + g] = 2 * alpha.real, 2 * alpha.imag
        dec = WilliamsonDecomposition(S=s_mat, nu=np.ones(m), mean=mean)
        row = bogoliubov_row(dec, g)
        for kind in ("subtract", "add"):
            worst = max(worst, abs(relative_purity_closed_form(dec, row, kind) - 1.0))
    ok = worst <= 1e-10
    _report(8, "pure reduced states keep relative purity 1", ok,
            f"max |ratio - 1|={worst:.2e} over 100 states, both kinds")


def test_criterion_9_williamson_round_trip():
    rng = np.random.default_rng(91)
    worst_rec = 0.0
    worst_symp = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        nu = np.sort(rng.uniform(1.0, 10.0, m))[::-1]
        s_mat = random_symplectic(m, rng, squeeze_bound=2.0)
        cov = s_mat @ np.diag(np.concatenate([nu, nu])) @ s_mat.T
        state = GaussianState(m=m, mean=np.zeros(2 * m), cov=0.5 * (cov + cov.T))
        dec = williamson(state)
        rebuilt = dec.S @ np.diag(np.concatenate([dec.nu, dec.nu])) @ dec.S.T
        rec = np.linalg.norm(rebuilt - state.cov) / np.linalg.norm(state.cov)
        worst_rec = max(worst_rec, rec)
        worst_symp = max(worst_symp, symplectic_deviation(dec.S))
    ok = worst_rec <= 1e-8 and worst_symp <= 1e-9
    _report(9, "Williamson round trip on 1000 random states", ok,
            f"max reconstruction={worst_rec:.2e}, max symplectic dev={worst_symp:.2e}")
