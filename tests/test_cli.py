"""Tests for the experiment runner: config handling, schemas, determinism,
row combinatorics and exit codes."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import cli, photon
from cvdistill import (
    BoundViolation,
    ChainSpec,
    ConfigError,
    GaussianState,
    GlobalStateNotPure,
    GraphSpec,
    SingularCovariance,
    TooManyModes,
    bogoliubov_row,
    build_chain,
    entanglement_increase,
    grid_adjacency,
    purity,
    reduce_state,
    reduced_purity,
    relative_purity_closed_form,
    renyi2_entanglement_pure,
    williamson,
)
from cvdistill.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VIOLATION,
    DELTA_E_CAP,
    RunConfig,
    build_config,
    main,
    oracle_check,
    render_table,
    scan_bipartitions,
    SCAN_HEADER,
    SWEEP_HEADER,
)
from fock_reference import density_purity, reduce_density


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


# ---------------------------------------------------------------------------
# configuration


def test_defaults_match_reference_figure():
    config = build_config([])
    assert config.experiment == "sweep-squeezing"
    assert config.network.m == 10
    assert config.network.r == 1.0
    assert config.network.alpha_g == 0.5
    assert config.network.resolved_g == 4
    assert config.kind == "subtract"
    assert config.format == "csv"


def test_flags_override_file_and_env(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "scan-bipartitions",
        "network": {"type": "chain", "modes": 5, "r": 0.7},
        "seed": 1,
        "trials": 5,
    }))
    monkeypatch.setenv("CVD_SEED", "99")
    config = build_config([str(cfg), "--trials", "7"])
    assert config.experiment == "scan-bipartitions"
    assert config.network.m == 5
    assert config.seed == 99      # env beats file
    assert config.trials == 7     # flag beats file
    config2 = build_config([str(cfg), "--seed", "123"])
    assert config2.seed == 123    # flag beats env


def test_flags_beat_network_keys_from_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"type": "chain", "modes": 4, "r": 0.7, "alpha": 0.2, "g": 0}}))
    flags = ("--experiment", "scan-bipartitions", "--r", "0.3", "--alpha", "0.9", "--g", "2")
    _, from_file = run_cli(tmp_path, str(cfg), *flags)
    _, flags_only = run_cli(tmp_path, "--modes", "4", *flags)
    assert from_file and from_file == flags_only


def test_unknown_config_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    # a misspelled field, a misspelled network key, and a network key at the top level
    for doc in ({"r_grd": [0.1, 0.2]}, {"network": {"modes": 3, "alpah": 0.5}}, {"r": 0.5}):
        cfg.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            build_config([str(cfg)])


def test_null_file_values_keep_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": None, "g_prime": None, "network": {"g": None}}))
    config = build_config([str(cfg)])
    assert config.out is None and config.g_prime is None
    assert config.network.resolved_g == 4


def test_benchmark_config_shapes_parse(tmp_path, monkeypatch):
    monkeypatch.delenv("CVD_SEED", raising=False)
    cfg = tmp_path / "cfg.json"

    def parse(doc):
        cfg.write_text(json.dumps(doc))
        return build_config([str(cfg)])

    chain = parse({"experiment": "scan-bipartitions", "kind": "subtract",
                   "network": {"type": "chain", "modes": 14, "r": 1.2, "alpha": "0.3-0.4j", "g": 5}})
    assert chain == RunConfig(experiment="scan-bipartitions",
                              network=ChainSpec(m=14, r=1.2, g=5, alpha_g=0.3 - 0.4j))
    graph = parse({"experiment": "scan-bipartitions", "kind": "add",
                   "network": {"type": "graph", "rows": 3, "cols": 4, "db": 8.5,
                               "alpha": "0.2+0.1j", "g": 7}})
    assert np.array_equal(graph.network.adjacency, grid_adjacency(3, 4))
    assert (graph.network.squeezing_db, graph.network.g, graph.network.alpha_g) == (8.5, 7, 0.2 + 0.1j)
    assert (graph.kind, graph.r_grid, graph.db_grid, graph.alphas) == ("add", None, None, None)
    bounds = parse({"experiment": "verify-bounds", "kind": "add", "seed": 3, "trials": 5000})
    assert bounds == RunConfig(experiment="verify-bounds", kind="add", seed=3, trials=5000)
    oracle = parse({"experiment": "oracle-check", "kind": "add", "seed": 2,
                    "alphas": ["0", "0.45+0.1j"]})
    assert oracle == RunConfig(experiment="oracle-check", kind="add", seed=2, alphas=(0j, 0.45 + 0.1j))


@pytest.mark.parametrize("doc", [
    {"trials": 2.7},
    {"seed": True},
    {"cutoff": 9.5},
    {"g_prime": False},
    {"network": {"modes": 4.9}},
    {"network": {"type": "graph", "rows": 3, "cols": 2.5}},
])
def test_integer_keys_reject_fractions_and_booleans(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        build_config([str(cfg)])


def test_integer_keys_accept_integral_numbers_and_flag_strings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 12.0, "seed": 7, "network": {"modes": 4.0}}))
    config = build_config([str(cfg), "--g", "1"])
    assert (config.trials, config.seed, config.network.m, config.network.g) == (12, 7, 4, 1)
    assert all(type(v) is int for v in (config.trials, config.seed, config.network.m))
    assert build_config(["--trials", "12"]).trials == 12


@pytest.mark.parametrize("argv", [
    ("--modes", "1"),
    ("--network", "graph", "--modes", "4", "--db", "-1"),
    ("--modes", "4", "--g", "9"),
    ("--experiment", "oracle-check", "--network", "graph", "--modes", "1"),
])
def test_bad_network_input_is_a_config_error(argv, capsys):
    assert main(list(argv)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("argv", [
    ("--experiment", "sweep-squeezing", "--r", "0.1", "--alpha", "nan"),
    ("--experiment", "scan-bipartitions", "--modes", "3", "--r", "inf"),
    ("--experiment", "scan-bipartitions", "--network", "graph", "--modes", "4", "--db", "nan"),
    ("--experiment", "oracle-check", "--alpha", "0,inf"),
])
def test_non_finite_flag_values_are_config_errors(argv, capsys):
    assert main(list(argv)) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"experiment": "sweep-squeezing", "r_grid": [0.1], "alphas": ["nan"]},
    {"experiment": "scan-bipartitions", "network": {"modes": 3}, "r_grid": "inf"},
    {"experiment": "scan-bipartitions", "network": {"modes": 3, "r": "nan"}},
    {"experiment": "scan-bipartitions", "network": {"type": "graph", "modes": 4, "db": "inf"}},
    {"experiment": "scan-bipartitions", "network": {"modes": 3, "alpha": "nan+1j"}},
])
def test_non_finite_file_values_are_config_errors(tmp_path, doc, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([str(cfg)]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


def test_graph_network_from_modes_square():
    config = build_config(["--network", "graph", "--modes", "9", "--db", "10"])
    assert isinstance(config.network, GraphSpec)
    assert config.network.m == 9
    assert config.network.squeezing_db == 10.0


def test_graph_network_rejects_non_square_modes():
    with pytest.raises(ConfigError):
        build_config(["--network", "graph", "--modes", "8"])


def test_invalid_grid_rejected(tmp_path, monkeypatch):
    with pytest.raises(ConfigError):
        build_config(["--r", "0.5,0.4"])
    with pytest.raises(ConfigError):
        build_config(["--trials", "0", "--experiment", "verify-bounds"])
    # a negative seed, from the flag, the file and CVD_SEED in turn
    monkeypatch.delenv("CVD_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for argv in (["--seed", "-1"], [str(cfg)]):
        with pytest.raises(ConfigError):
            build_config(["--experiment", "verify-bounds", *argv])
    monkeypatch.setenv("CVD_SEED", "-1")
    with pytest.raises(ConfigError):
        build_config(["--experiment", "oracle-check"])


def test_scan_requires_single_r():
    with pytest.raises(ConfigError):
        build_config(["--experiment", "scan-bipartitions", "--r", "0.1,0.2"])
    with pytest.raises(ConfigError):
        build_config(["--experiment", "scan-bipartitions", "--alpha", "0.1,0.2"])


def test_complex_alpha_parsing():
    config = build_config(["--alpha", "0.5,0.3+0.2j"])
    assert config.alphas == (0.5 + 0j, 0.3 + 0.2j)


def test_bad_flag_exits_with_config_code(capsys):
    assert main(["--experiment", "nonsense"]) == EXIT_CONFIG
    capsys.readouterr()


VB = ("--experiment", "verify-bounds", "--trials", "3", "--seed", "4")
SCAN = ("--experiment", "scan-bipartitions")


# each case: a run given extra keys, the same run without them, and the note naming them
@pytest.mark.parametrize("doc, argv, lean_doc, lean_argv, unread", [
    ({}, (*VB, "--modes", "3", "--r", "0.5", "--g-prime", "1", "--cutoff", "9"), {}, VB,
     "cutoff (--cutoff), g_prime (--g-prime), network.modes (--modes), r_grid (--r)"),
    ({}, (*SCAN, "--modes", "3", "--db", "4"), {}, (*SCAN, "--modes", "3"), "db_grid (--db)"),
    ({"network": {"type": "graph", "rows": 2, "cols": 2, "modes": 4, "db": 6, "r": 0.4}},
     (*SCAN, "--trials", "9"), {"network": {"type": "graph", "rows": 2, "cols": 2, "db": 6}}, SCAN,
     "network.modes (--modes), network.r, trials (--trials)"),
    # the state dump reads the network, where a single --r replaces the file's r
    ({"network": {"r": 0.2}, "dump_state": "state.json"}, (*VB, "--modes", "3", "--r", "0.5"),
     {"dump_state": "state.json"}, (*VB, "--modes", "3", "--r", "0.5"), "network.r"),
])
def test_unread_keys_are_noted_and_change_nothing(tmp_path, monkeypatch, capsys,
                                                  doc, argv, lean_doc, lean_argv, unread):
    monkeypatch.chdir(tmp_path)
    runs = []
    for config, flags in ((doc, argv), (lean_doc, lean_argv)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, text = run_cli(tmp_path, str(cfg), *flags)
        state = tmp_path / "state.json"
        runs.append((code, text, state.read_text() if state.exists() else None))
        state.unlink(missing_ok=True)
        runs.append(capsys.readouterr().err)
    full, full_err, lean, lean_err = runs
    assert full == lean and full[0] == EXIT_OK and full[1]
    assert full_err == f"note: {argv[1]} does not read {unread}\n"
    assert lean_err == ""


# ---------------------------------------------------------------------------
# sweep


def test_sweep_row_combinatorics_and_schema(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "sweep-squeezing",
        "--modes", "3", "--r", "0,0.1", "--alpha", "0,0.5",
    )
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 1 + 2 * 2 * 2  # grid x alphas x {g, g_prime}
    # the r=0, alpha=0 network is vacuum: null rows tagged in delta_e
    vacuum_rows = [ln for ln in lines[1:] if ln.startswith("0,0,")]
    assert len(vacuum_rows) == 2
    for row in vacuum_rows:
        cells = row.split(",")
        assert cells[3] == "" and cells[4] == ""
        assert cells[5] == "VacuumModeSubtraction"


def test_sweep_delta_bounded_and_bell_limit(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "sweep-squeezing",
        "--modes", "3", "--r", "0.01,0.1", "--alpha", "0",
    )
    assert code == EXIT_OK
    rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
    for cells in rows:
        delta = float(cells[5])
        assert delta <= DELTA_E_CAP
    # neighbour partition at weak squeezing sits at the Bell limit
    bell = [float(c[5]) for c in rows if c[0] == "0.01" and c[2] == "g_prime"]
    assert bell and bell[0] >= 0.99 * math.log(2.0)


def test_sweep_deterministic_bytes(tmp_path):
    args = ("--experiment", "sweep-squeezing", "--modes", "3", "--r", "0,0.3", "--alpha", "0.5")
    _, first = run_cli(tmp_path, *args)
    _, second = run_cli(tmp_path, *args)
    assert first == second


def test_sweep_json_format(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "sweep-squeezing", "--format", "json",
        "--modes", "3", "--r", "0,0.2", "--alpha", "0",
    )
    assert code == EXIT_OK
    rows = json.loads(text)
    assert len(rows) == 4  # two grid points x one alpha x two partitions
    tagged = [r for r in rows if "error" in r]
    assert all(r["delta_e"] is None for r in tagged)
    assert all(set(SWEEP_HEADER) <= set(r) for r in rows)


def test_sweep_default_configuration_reproduces_reference_curves(tmp_path):
    # default: 10-mode chain, r grid 0..2, alpha in {0, 0.5}, partitions g/g_prime
    code, text = run_cli(tmp_path, "--experiment", "sweep-squeezing")
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 21 * 2 * 2
    curves = {}
    for ln in lines[1:]:
        r, alpha, part, _, _, delta = ln.split(",")
        if delta and delta != "VacuumModeSubtraction":
            curves.setdefault((alpha, part), {})[float(r)] = float(delta)
    assert set(curves) == {(a, p) for a in ("0", "0.5") for p in ("g", "g_prime")}
    for (alpha, part), curve in curves.items():
        assert max(curve.values()) < math.log(2.0)
        if part == "g":
            # the subtracted-mode curve rises toward its sub-log2 plateau; the
            # neighbour curve instead starts at the Bell limit for alpha = 0
            assert curve[0.1] < curve[1.0]


def test_sweep_graph_network(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "sweep-squeezing", "--network", "graph",
        "--modes", "4", "--db", "0,6", "--alpha", "0.5",
    )
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 2 * 1 * 2


# ---------------------------------------------------------------------------
# scan


def test_scan_row_count_and_masks(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "scan-bipartitions",
        "--modes", "4", "--r", "0.6", "--alpha", "0.5",
    )
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SCAN_HEADER)
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 2 ** 3
    masks = [int(r[0]) for r in rows]
    assert masks == sorted(masks)
    g = 1  # default middle mode of a 4-chain
    assert all(mask >> g & 1 for mask in masks)
    assert {int(r[1]) for r in rows} == {1, 2, 3, 4}
    full = [r for r in rows if int(r[1]) == 4]
    assert len(full) == 1 and abs(float(full[0][4])) < 1e-12


def test_scan_two_modes(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "scan-bipartitions", "--modes", "2", "--r", "0.4",
    )
    assert code == EXIT_OK
    assert len(text.strip().split("\n")) == 3  # header + {g} + {g, other}


def test_scan_vacuum_mode_gives_null_rows(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "scan-bipartitions",
        "--modes", "4", "--r", "0", "--alpha", "0",
    )
    assert code == EXIT_OK
    rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
    assert len(rows) == 2 ** 3
    assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
    assert all(r[2:] == ["", "", "VacuumModeSubtraction"] for r in rows)


def test_scan_deterministic_bytes(tmp_path):
    args = ("--experiment", "scan-bipartitions", "--modes", "6", "--r", "0.9",
            "--alpha", "0.3-0.4j", "--kind", "add")
    _, first = run_cli(tmp_path, *args)
    _, second = run_cli(tmp_path, *args)
    assert first and first == second


def test_scan_mode_limit():
    config = build_config(["--experiment", "scan-bipartitions", "--modes", "21"])
    with pytest.raises(TooManyModes):
        scan_bipartitions(config)
    assert main(["--experiment", "scan-bipartitions", "--modes", "21"]) == EXIT_CONFIG


def test_scan_graph_reference(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "scan-bipartitions", "--network", "graph",
        "--modes", "9", "--db", "10", "--alpha", "0.5",
    )
    assert code == EXIT_OK
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 2 ** 8
    assert all(float(r.split(",")[4]) <= DELTA_E_CAP for r in rows)


# ---------------------------------------------------------------------------
# verify-bounds


def test_verify_bounds_summary(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "verify-bounds", "--trials", "500", "--seed", "11",
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["trials"] == 500
    assert doc["violations"] == 0
    assert doc["min_ratio"] >= 0.5 - 1e-12
    assert doc["seed"] == 11
    assert math.isclose(doc["max_delta_e"], -math.log(doc["min_ratio"]), rel_tol=1e-9)


def test_verify_bounds_add_kind(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "verify-bounds", "--trials", "300",
        "--seed", "12", "--kind", "add",
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["violations"] == 0
    assert doc["kind"] == "add"


def test_verify_bounds_deterministic_bytes(tmp_path):
    args = ("--experiment", "verify-bounds", "--trials", "100", "--seed", "5")
    _, first = run_cli(tmp_path, *args)
    _, second = run_cli(tmp_path, *args)
    assert first == second


# Summaries recorded from the per-trial loop that verify-bounds ran before it
# was batched; any drift in the RNG draw order or the closed form shows here.
GOLDEN_BOUNDS = [
    (("--kind", "add", "--trials", "10000", "--seed", "1"),  # the README example
     '{\n  "kind": "add",\n  "max_delta_e": 0.676428251773,\n  "min_ratio": 0.508429736115,\n'
     '  "seed": 1,\n  "trials": 10000,\n  "violations": 0\n}\n'),
    (("--kind", "subtract", "--trials", "10000"),
     '{\n  "kind": "subtract",\n  "max_delta_e": 0.690524376507,\n  "min_ratio": 0.501313123306,\n'
     '  "seed": 20210409,\n  "trials": 10000,\n  "violations": 0\n}\n'),
    (("--kind", "add", "--trials", "10000"),
     '{\n  "kind": "add",\n  "max_delta_e": 0.683096614168,\n  "min_ratio": 0.505050621484,\n'
     '  "seed": 20210409,\n  "trials": 10000,\n  "violations": 0\n}\n'),
    (("--kind", "subtract", "--trials", "5000", "--seed", "3"),
     '{\n  "kind": "subtract",\n  "max_delta_e": 0.677458938691,\n  "min_ratio": 0.5079059742,\n'
     '  "seed": 3,\n  "trials": 5000,\n  "violations": 0\n}\n'),
    (("--kind", "add", "--trials", "5000", "--seed", "3"),
     '{\n  "kind": "add",\n  "max_delta_e": 0.677043838459,\n  "min_ratio": 0.508116849853,\n'
     '  "seed": 3,\n  "trials": 5000,\n  "violations": 0\n}\n'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_BOUNDS)
def test_verify_bounds_golden_bytes(tmp_path, monkeypatch, argv, expected):
    monkeypatch.delenv("CVD_SEED", raising=False)
    code, text = run_cli(tmp_path, "--experiment", "verify-bounds", *argv)
    assert code == EXIT_OK
    assert text == expected


# sha256 of the outputs of the README example runs, with CVD_SEED unset; any
# change to a number, its rounding or the row order shows here. The
# verify-bounds example is pinned by GOLDEN_BOUNDS.
README_EXAMPLES = [
    (("--experiment", "sweep-squeezing"),
     {"out": "d7f81fbbdf0bf65ca9b5c9e07183ff0f935a4d9a366a2e4f5d540651444491af"}),
    # re-recorded when the scan moved to one Cholesky factor per V_A: 10 cells in
    # 7 rows moved in the 12th digit; test_readme_scans_match_scalar_route
    # checks every row against the scalar route.
    # Re-recorded when each cut moved to its smaller side (W = V^{-1} on the
    # complement plus g for |A| > (m + 1) / 2): 10 cells in 9 rows moved, 5 by
    # one unit in the 12th digit and 5 delta_e cells that are round-off around
    # zero (-2.4e-14 to -8.5e-14); test_cut_sides_match_scalar_route checks both
    # sides of every row
    (("--experiment", "scan-bipartitions", "--network", "graph", "--modes", "9", "--db", "10",
      "--alpha", "0.5"),
     {"out": "3881f6891790ad643a2573d3716dc14243d06757a0bf60881b2a9ab0ecefc9bd"}),
    # re-recorded when the Fock gates moved from expm_multiply to exact cached
    # propagators and purity_fock to a flat einsum: the grid max_rel_err moved
    # from 9.76565091174e-10 to 9.76565912764e-10, the same at any BLAS thread
    # count; test_readme_oracle_check_blocks pins the other two blocks byte for byte.
    # Re-recorded when williamson moved from a real Schur form to two eigh calls and
    # the two-path block was batched: two_path max_rel_err 9.70334923522e-14 ->
    # 9.45910016981e-14; the grid and thermal_traces bytes did not change.
    # Re-recorded when the grid purities moved from the full reduced density to
    # the Gram matrix of the smaller Schmidt side (fock.reduced_purity): grid
    # max_rel_err 9.76565912764e-10 -> 9.76564269584e-10; the other blocks did not change.
    # Re-recorded when the gate exponentials moved from scipy's expm to cached
    # real eigendecompositions of the unit generators (fock._unit_spectrum): grid
    # max_rel_err 9.76564269584e-10 -> 9.76561804813e-10; the other blocks did not change
    (("--experiment", "oracle-check"),
     {"out": "3f764d5257a3f789c73ba931aa8413ab39969a26036ac765df257609c6097cce"}),
    # re-recorded when each cut moved to its smaller side: the full cut's
    # e_before and delta_e, round-off around zero, moved from -1.33226762955e-15
    # to -1.11022302463e-15; the other 7 rows and the snapshot did not change
    (("--experiment", "scan-bipartitions", "--modes", "4", "--r", "0.7",
      "--dump-state", "state.json"),
     {"out": "79e9af39a27dead70576738a7eff5731c4573cc272d1244b3a7ac8fc7018d772",
      "state.json": "ff0871cbb1161048d01ffe134e0246f83eea7a771658833e6ce18d6baa508ca0"}),
    # the README graph scan as JSON, recorded when the scan was first rendered from
    # columns; test_readme_graph_scan_json_matches_csv checks it cell for cell
    # against the CSV above
    (("--experiment", "scan-bipartitions", "--network", "graph", "--modes", "9", "--db", "10",
      "--alpha", "0.5", "--format", "json"),
     {"out": "e98fcb2cb5d1dc575f00f18f0b6bbeb76aaca91ad07fc19cf192cf49a6568859"}),
    # the path the oracle benchmark runs: photon addition at a complex displacement,
    # recorded before the grid and the two-path block moved to stacked passes
    (("--experiment", "oracle-check", "--kind", "add", "--alpha", "0,0.3-0.4j"),
     {"out": "bc5ba03d7a694866a5df40642ab7384141c8c61f1d888190598be751d978eaaf"}),
]


@pytest.mark.parametrize("argv, digests", README_EXAMPLES)
def test_readme_example_bytes(tmp_path, monkeypatch, argv, digests):
    monkeypatch.delenv("CVD_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == EXIT_OK
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_readme_oracle_check_blocks(tmp_path, monkeypatch):
    # thermal_traces as the expm_multiply route gave it; the Fock grid may move.
    # two_path max_rel_err 9.70334923522e-14 with the Schur williamson, now the
    # value of the two-eigh williamson and the batched two-path block
    monkeypatch.delenv("CVD_SEED", raising=False)
    code, text = run_cli(tmp_path, "--experiment", "oracle-check")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["thermal_traces"] == {
        "max_rel_err": 3.27145717923e-13, "pass": True, "tolerance": 1e-08}
    assert doc["two_path"] == {
        "max_rel_err": 9.45910016981e-14, "pass": True, "tolerance": 1e-08, "trials": 1000}
    assert abs(doc["grid"]["max_rel_err"] - 9.76565091174e-10) <= 1e-12


@pytest.mark.parametrize("argv", [README_EXAMPLES[1][0], README_EXAMPLES[3][0][:-2]])
def test_readme_scans_match_scalar_route(argv):
    config = build_config(list(argv))
    spec = cli._network(config)
    state, g = cli._build_network(spec), spec.resolved_g
    table = scan_bipartitions(config)
    rows = list(zip(*(table[key].tolist() for key in SCAN_HEADER)))
    assert len(rows) == 2 ** (spec.m - 1)
    for mask, m_a, e_before, e_after, delta_e in rows:
        modes = [i for i in range(spec.m) if mask >> i & 1]
        assert m_a == len(modes)
        assert abs(e_before - renyi2_entanglement_pure(state, modes)) <= 1e-12
        assert abs(delta_e - entanglement_increase(state, modes, g, config.kind)) <= 1e-12
        assert e_after == e_before + delta_e


def _benchmark_jobs():
    # perfbench/workloads.py, imported by path: the benchmark's seeded scan configs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.jobs


SCALAR_ROUTE_SCANS = [argv for argv, _ in README_EXAMPLES
                      if "scan-bipartitions" in argv and "json" not in argv]
SCALAR_ROUTE_SCANS += [(workload, seed) for workload in ("scan-chain", "scan-graph") for seed in (1, 2, 3)]


@pytest.mark.parametrize("source", SCALAR_ROUTE_SCANS,
                         ids=["readme-graph", "readme-chain"] + [f"{w}-{n}" for w, n in SCALAR_ROUTE_SCANS[2:]])
def test_cut_sides_match_scalar_route(tmp_path, source):
    # every size group of cuts from both sides, V_A and W = V^{-1} on the
    # complement plus g, for both kinds, against the scalar route: the kernel
    # picks the smaller side, and either must hold to 1e-12
    if isinstance(source[1], int):
        (tmp_path / "job.json").write_text(json.dumps(_benchmark_jobs()(*source)[0]))
        source = (str(tmp_path / "job.json"),)
    spec = cli._network(build_config(list(source)))
    state, g, m = cli._build_network(spec), spec.resolved_g, spec.m
    masks = photon.cut_masks(m, g)
    parts = [[i for i in range(m) if mask >> i & 1] for mask in masks.tolist()]
    e_ref = np.array([renyi2_entanglement_pure(state, part) for part in parts])
    others = np.array([i for i in range(m) if i != g])
    held = (masks[:, None] >> others) & 1
    for kind in ("subtract", "add"):
        d_ref = np.array([entanglement_increase(state, part, g, kind) for part in parts])
        e_before, delta = photon.entanglement_increase_cuts(state, g, kind)
        assert np.abs(e_before - e_ref).max() <= 1e-12
        assert np.abs(delta - d_ref).max() <= 1e-12
        sign, norm, inverse = photon._batch_guards(state, g, kind)
        for size in range(m):  # |A| = size + 1; B is empty at size m - 1
            rows = np.flatnonzero(held.sum(axis=1) == size)
            for on_w in (False, True):
                side = others[np.nonzero(held[rows] != on_w)[1]].reshape(len(rows), -1)
                e, d = photon._increase_chunk(state, side, g, sign, norm, inverse if on_w else None)
                assert np.abs(e - e_ref[rows]).max() <= 1e-12
                assert np.abs(d - d_ref[rows]).max() <= 1e-12


def test_readme_graph_scan_json_matches_csv(tmp_path):
    # the two formats carry the same numbers, cell for cell
    argv = README_EXAMPLES[1][0]
    _, csv_text = run_cli(tmp_path, *argv)
    _, json_text = run_cli(tmp_path, *argv, "--format", "json")
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(SCAN_HEADER)
    docs = json.loads(json_text)
    assert len(docs) == len(lines) - 1 == 2 ** 8
    for line, doc in zip(lines[1:], docs):
        assert sorted(doc) == sorted(SCAN_HEADER)
        for key, cell in zip(SCAN_HEADER, line.split(",")):
            assert (int if key in ("mask", "m_a") else float)(cell) == doc[key]


_WITHOUT_SCIPY_SCRIPT = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import cvdistill.cli as cli
loaded = {"scipy_at_import": "scipy" in sys.modules}
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded.update({name: name in sys.modules for name in ("scipy", "numpy.ma")})
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_readme_runs_without_scipy(tmp_path, monkeypatch):
    # scipy is a test dependency only: the CLI never imports it, and with
    # np.unique gone the runs do not load numpy.ma either
    monkeypatch.delenv("CVD_SEED", raising=False)
    (oracle_argv, oracle_digests), (scan_argv, scan_digests) = README_EXAMPLES[2], README_EXAMPLES[3]
    bounds_argv, bounds_text = GOLDEN_BOUNDS[0]
    runs = [[*oracle_argv, "--out", "oracle"], [*scan_argv, "--out", "out"],
            ["--experiment", "verify-bounds", *bounds_argv, "--out", "bounds"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY_SCRIPT, json.dumps(runs)], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(run.stdout.splitlines()[-1])
    assert report == {"codes": [EXIT_OK] * 3,
                      "loaded": {"scipy_at_import": False, "scipy": False, "numpy.ma": False}}
    digests = {"oracle": oracle_digests["out"], **scan_digests}
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    assert (tmp_path / "bounds").read_text() == bounds_text


def test_scan_checks_the_global_state_before_enumerating(monkeypatch):
    def unreachable(*args):
        raise AssertionError("subsets enumerated before the global checks")

    for module in (photon, cli):
        monkeypatch.setattr(module, "cut_masks", unreachable)
    monkeypatch.setattr(photon, "_g_schur", unreachable)
    monkeypatch.setattr(cli, "_build_network", lambda spec: GaussianState(
        m=spec.m, mean=np.ones(2 * spec.m), cov=2.0 * np.eye(2 * spec.m)))
    config = build_config(["--experiment", "scan-bipartitions", "--modes", "4", "--r", "0.6"])
    with pytest.raises(GlobalStateNotPure):
        scan_bipartitions(config)


# the null rows of a vacuum-g scan, recorded before the scan moved onto arrays
VACUUM_SCAN_BYTES = [
    ("csv", "d73b94381a39d7e761eb675bf48bcacf151df48a9061f975da6b519d774f816b"),
    ("json", "a73a9c3946e449a336f63f2c5fe2dc1c208c9f6db93932ea461851a0e511a38c"),
]


@pytest.mark.parametrize("fmt, digest", VACUUM_SCAN_BYTES)
def test_scan_vacuum_null_rows_bytes(tmp_path, monkeypatch, fmt, digest):
    def unreachable(*args):
        raise AssertionError("the kernel ran for a vacuum mode g")

    monkeypatch.setattr(photon, "_g_schur", unreachable)
    code, text = run_cli(tmp_path, "--experiment", "scan-bipartitions", "--modes", "4",
                         "--r", "0", "--alpha", "0", "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_small_grid(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "oracle-check",
        "--modes", "2", "--r", "0.3", "--alpha", "0.5", "--trials", "50", "--seed", "2",
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["pass"] is True
    assert doc["grid"]["max_rel_err"] <= 1e-6
    assert doc["thermal_traces"]["max_rel_err"] <= 1e-8
    assert doc["two_path"]["max_rel_err"] <= 1e-8


def test_oracle_check_two_path_runs_configured_kind(tmp_path, monkeypatch):
    # the grid and the two-path block both run the stacked Wigner route and the
    # stacked closed form, each for the configured kind
    calls, block = [], [None]

    def spy(name):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append((block[0], name, args[-1])) or fn(*args))

    def labelled(name):
        fn = getattr(cli, name)

        def run(*args):
            block[0] = name
            return fn(*args)
        monkeypatch.setattr(cli, name, run)

    for name in ("relative_purity_many", "relative_purity_wigner_many"):
        spy(name)
    for name in ("_oracle_grid_case", "two_path_ratios"):
        labelled(name)
    code, text = run_cli(
        tmp_path, "--experiment", "oracle-check", "--kind", "add",
        "--modes", "2", "--r", "0.3", "--alpha", "0.4+0.3j", "--trials", "50", "--seed", "3",
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["kind"] == "add"
    assert doc["two_path"]["trials"] == 50
    assert doc["two_path"]["max_rel_err"] <= 1e-8
    assert {(where, name) for where, name, _ in calls} == {
        (where, name) for where in ("_oracle_grid_case", "two_path_ratios")
        for name in ("relative_purity_many", "relative_purity_wigner_many")}
    assert {kind for *_, kind in calls} == {"add"}


def test_oracle_check_honours_network_modes_from_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "oracle-check", "network": {"modes": 2}, "trials": 10}))
    code, text = run_cli(tmp_path, str(cfg))
    assert code == EXIT_OK
    assert json.loads(text)["grid"]["cases"] == 6  # m=2 only: 3 r values x 2 alphas


def test_oracle_check_rejects_large_modes():
    config = build_config(["--experiment", "oracle-check", "--modes", "4"])
    with pytest.raises(ConfigError):
        oracle_check(config)


def test_oracle_check_pinned_cutoff_fails_loud(tmp_path):
    # a deliberately tiny pinned cutoff surfaces as per-case failures, exit 1
    code, text = run_cli(
        tmp_path, "--experiment", "oracle-check",
        "--modes", "2", "--r", "0.8", "--alpha", "0", "--cutoff", "4",
        "--trials", "10", "--seed", "2",
    )
    assert code == EXIT_VIOLATION
    doc = json.loads(text)
    assert doc["pass"] is False
    assert doc["grid"]["failures"][0]["error"] == "CutoffTooSmall"


def _cli_process(tmp_path, *argv):
    # the installed CLI as a user runs it: NumPy's overflow warnings are only printed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("CVD_SEED", None)
    return subprocess.run([sys.executable, "-m", "cvdistill.cli", *argv, "--out", "out"], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_overflowing_covariance_is_a_numerical_failure(tmp_path):
    # at r = 1000 the chain covariance overflows to inf and its purity would be
    # NaN, which passes both comparisons of the purity check
    with np.errstate(over="ignore", invalid="ignore"):
        state = build_chain(ChainSpec(m=3, r=1000.0))
        with pytest.raises(SingularCovariance):
            purity(state)
    for argv in (("--modes", "3", "--r", "1000"), ("--network", "graph", "--modes", "4", "--db", "400")):
        run = _cli_process(tmp_path, "--experiment", "scan-bipartitions", *argv)
        assert run.returncode == EXIT_NUMERICAL and "Traceback" not in run.stderr


def test_oracle_check_non_finite_photon_number_is_a_cutoff_failure(tmp_path):
    # an overflowing chain has no finite Fock cutoff: each grid case fails as
    # CutoffTooSmall in the summary, in place of an OverflowError traceback
    run = _cli_process(tmp_path, "--experiment", "oracle-check", "--modes", "2", "--r", "1000")
    assert run.returncode == EXIT_VIOLATION and "Traceback" not in run.stderr
    grid = json.loads((tmp_path / "out").read_text())["grid"]
    assert grid["failures"] == [{"m": 2, "r": 1000.0, "alpha": alpha, "error": "CutoffTooSmall"}
                                for alpha in ("0", "0.5")]


def test_oracle_add_escalates_past_create_leakage():
    # at the automatic cutoff 20 the chain itself leaks little, but create drops
    # 1.45e-10 of the a^dag weight at the top level, above ORACLE_LEAK_TOL
    spec = ChainSpec(m=3, r=0.8, alpha_g=0.0)
    fock, plus = cli._chain_fock_state(spec, "add", None, build_chain(spec))
    assert fock.cutoff == 30
    assert plus.leakage <= cli.ORACLE_LEAK_TOL
    assert cli._chain_fock_state(spec, "subtract", None, build_chain(spec))[0].cutoff == 20


def _density_route_purity(state, part):
    # reference route: the full reduced density of the side, then its purity
    return density_purity(reduce_density(state, part))


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_oracle_grid_matches_reduced_density_route(monkeypatch, kind):
    cases = [(m, r, alpha) for m in (2, 3) for r in cli.ORACLE_R_VALUES for alpha in (0j, 0.5 + 0.3j)]
    new = [cli._oracle_grid_case(m, r, alpha, kind, None) for m, r, alpha in cases]
    monkeypatch.setattr(cli, "reduced_purity", _density_route_purity)
    old = [cli._oracle_grid_case(m, r, alpha, kind, None) for m, r, alpha in cases]
    assert_allclose(new, old, rtol=0, atol=1e-12)


def _scalar_grid_terms(m, r, alpha, kind):
    # the grid case as a per-subset loop of scalar calls: the (analytic, oracle)
    # pair of every compared term, in the order the grid compares them
    spec = ChainSpec(m=m, r=r, alpha_g=alpha)
    gauss, g = build_chain(spec), spec.resolved_g
    fock, altered = cli._chain_fock_state(spec, kind, None, gauss)
    terms = []
    for bits in range(1, 2 ** m - 1):
        part = tuple(i for i in range(m) if bits >> i & 1)
        before, after = reduced_purity(fock, part), reduced_purity(altered, part)
        terms.append((purity(reduce_state(gauss, part)), before))
        delta = float(-np.log(after)) - float(-np.log(before))
        terms.append((entanglement_increase(gauss, part, g, kind), delta))
        if g in part:
            decomp = williamson(reduce_state(gauss, part))
            row = bogoliubov_row(decomp, part.index(g))
            terms.append((relative_purity_closed_form(decomp, row, kind), after / before))
    return terms


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_stacked_oracle_grid_matches_scalar_loop(monkeypatch, kind):
    # term by term and bit for bit; the global purity is checked once per case,
    # and each Fock state's purity once per side whose Gram matrix it forms
    terms, counts = [], {"require_pure": 0, "reduced_purity": 0}
    monkeypatch.setattr(cli, "_rel_err", lambda value, reference: terms.append((value, reference)) or 0.0)
    for name in counts:
        fn = getattr(cli, name)

        def counted(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(cli, name, counted)
    for m in (2, 3):
        for r in cli.ORACLE_R_VALUES:
            for alpha in (0j, 0.5 + 0.3j):
                terms.clear()
                counts.update(dict.fromkeys(counts, 0))
                assert cli._oracle_grid_case(m, r, alpha, kind, None) == 0.0
                assert terms == _scalar_grid_terms(m, r, alpha, kind)
                assert counts == {"require_pure": 1, "reduced_purity": 2 * m}


@pytest.mark.parametrize("pinned, expected", [((), EXIT_OK), (("--cutoff", "20"), EXIT_VIOLATION)])
def test_oracle_add_case_pinned_cutoff(tmp_path, pinned, expected):
    code, text = run_cli(
        tmp_path, "--experiment", "oracle-check", "--kind", "add",
        "--modes", "3", "--r", "0.8", "--alpha", "0", "--trials", "10", *pinned,
    )
    assert code == expected
    grid = json.loads(text)["grid"]
    if pinned:
        assert grid["failures"] == [
            {"m": 3, "r": 0.8, "alpha": "0", "error": "CutoffTooSmall"}]
    else:
        assert grid["failures"] == [] and grid["max_rel_err"] <= 1e-9


# ---------------------------------------------------------------------------
# misc surfaces


def test_dump_state_snapshot(tmp_path):
    snap = tmp_path / "state.json"
    code = main([
        "--experiment", "scan-bipartitions", "--modes", "3", "--r", "0.5",
        "--dump-state", str(snap), "--out", str(tmp_path / "rows.csv"),
    ])
    assert code == EXIT_OK
    doc = json.loads(snap.read_text())
    state = GaussianState(m=doc["m"], mean=doc["mean"], cov=np.reshape(doc["cov"], (6, 6)))
    assert state.m == 3
    assert abs(purity(state) - 1.0) < 1e-9


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_table_enforces_delta_cap(monkeypatch, fmt):
    # the cap is checked on the whole delta_e column before any cell is formatted;
    # the null row's NaN values are not compared
    def unreachable(*args):
        raise AssertionError("cells formatted before the cap check")

    columns = {"mask": np.array([1, 3]), "m_a": np.array([1, 2]),
               "e_before": np.array([np.nan, 0.0]), "e_after": np.array([np.nan, 1.0]),
               "delta_e": np.array([np.nan, 1.0]), "error": ["VacuumModeSubtraction", None]}
    monkeypatch.setattr(cli, "_cells", unreachable)
    with pytest.raises(BoundViolation):
        render_table(columns, SCAN_HEADER, fmt)


def test_table_over_the_cap_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "DELTA_E_CAP", -1.0)
    out = tmp_path / "rows.csv"
    assert main(["--experiment", "scan-bipartitions", "--modes", "3", "--out", str(out)]) == EXIT_VIOLATION
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_table_writes_each_chunk_as_formatted(monkeypatch, capsys, fmt):
    table = scan_bipartitions(build_config(["--experiment", "scan-bipartitions", "--modes", "4"]))
    render_table(table, SCAN_HEADER, fmt)
    whole = capsys.readouterr().out
    events, render_rows = [], cli._render_rows

    class Recorder:
        def write(self, text):
            events.append(text)

    monkeypatch.setattr(cli, "RENDER_CHUNK", 3)
    monkeypatch.setattr(cli, "_render_rows", lambda *args: events.append(None) or render_rows(*args))
    monkeypatch.setattr(sys, "stdout", Recorder())
    render_table(table, SCAN_HEADER, fmt)
    # 8 rows in chunks of 3, 3 and 2, each written before the next is formatted
    formatted = [i for i, text in enumerate(events) if text is None]
    assert len(formatted) == 3 and all(events[i + 1] for i in formatted)
    assert "".join(text for text in events if text is not None) == whole


def test_float_formatting_12_digits(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "scan-bipartitions", "--modes", "2", "--r", "0.5",
    )
    assert code == EXIT_OK
    value = text.strip().split("\n")[1].split(",")[2]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12
