"""Tests for the experiment runner: config handling, schemas, determinism,
row combinatorics and exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from cvdistill import cli
from cvdistill import (
    ChainSpec,
    ConfigError,
    GraphSpec,
    TooManyModes,
    from_snapshot,
    grid_adjacency,
    purity,
)
from cvdistill.cli import (
    EXIT_CONFIG,
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
])
def test_bad_network_input_is_a_config_error(argv, capsys):
    assert main(list(argv)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")


def test_graph_network_from_modes_square():
    config = build_config(["--network", "graph", "--modes", "9", "--db", "10"])
    assert isinstance(config.network, GraphSpec)
    assert config.network.m == 9
    assert config.network.squeezing_db == 10.0


def test_graph_network_rejects_non_square_modes():
    with pytest.raises(ConfigError):
        build_config(["--network", "graph", "--modes", "8"])


def test_invalid_grid_rejected():
    with pytest.raises(ConfigError):
        build_config(["--r", "0.5,0.4"])
    with pytest.raises(ConfigError):
        build_config(["--trials", "0", "--experiment", "verify-bounds"])


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
    (("--experiment", "scan-bipartitions", "--network", "graph", "--modes", "9", "--db", "10",
      "--alpha", "0.5"),
     {"out": "7b24871b4d7e0b2ea42abd2328a6937306bd0a3cf28f93d22b0e042d2c798aab"}),
    (("--experiment", "oracle-check"),
     {"out": "4b191f98d4c997392a1021dced26750a61c3fb439ffd70b5f5c0924bf27b11e7"}),
    (("--experiment", "scan-bipartitions", "--modes", "4", "--r", "0.7",
      "--dump-state", "state.json"),
     {"out": "90d5abfcfe1204cbc45da020c38b05c1d67b1e275ee057685823480d02434c4d",
      "state.json": "ff0871cbb1161048d01ffe134e0246f83eea7a771658833e6ce18d6baa508ca0"}),
]


@pytest.mark.parametrize("argv, digests", README_EXAMPLES)
def test_readme_example_bytes(tmp_path, monkeypatch, argv, digests):
    monkeypatch.delenv("CVD_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == EXIT_OK
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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
    kinds = []
    closed_form = cli.relative_purity_closed_form

    def recording(decomp, row, kind):
        kinds.append(kind)
        return closed_form(decomp, row, kind)

    monkeypatch.setattr(cli, "relative_purity_closed_form", recording)
    code, text = run_cli(
        tmp_path, "--experiment", "oracle-check", "--kind", "add",
        "--modes", "2", "--r", "0.3", "--alpha", "0.4+0.3j", "--trials", "50", "--seed", "3",
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["kind"] == "add"
    assert doc["two_path"]["trials"] == 50
    assert doc["two_path"]["max_rel_err"] <= 1e-8
    assert set(kinds) == {"add"}


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
    state = from_snapshot(doc)
    assert state.m == 3
    assert abs(purity(state) - 1.0) < 1e-9


def test_render_table_enforces_delta_cap():
    rows = [{"mask": 1, "m_a": 1, "e_before": 0.0, "e_after": 1.0, "delta_e": 1.0}]
    from cvdistill import BoundViolation

    with pytest.raises(BoundViolation):
        render_table(rows, SCAN_HEADER, "csv")


def test_float_formatting_12_digits(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "scan-bipartitions", "--modes", "2", "--r", "0.5",
    )
    assert code == EXIT_OK
    value = text.strip().split("\n")[1].split(",")[2]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12
