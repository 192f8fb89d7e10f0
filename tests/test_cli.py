"""Tests for the experiment runner: config handling, schemas, determinism,
row combinatorics and exit codes."""

import contextlib
import dataclasses
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvdistill import cli, fock, photon
from cvdistill import (
    BoundViolation,
    ChainSpec,
    ConfigError,
    CutoffTooSmall,
    FockBudgetExceeded,
    GaussianState,
    GlobalStateNotPure,
    GraphSpec,
    SingularCovariance,
    TooManyModes,
    VacuumModeSubtraction,
    bogoliubov_row,
    build_chain,
    entanglement_increase,
    gaussian_fock,
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
from cvdistill.errors import LEAK_TOL
from fock_reference import density_purity, reduce_density
from render_reference import render
from scalar_reference import scalar_entanglement_increase

ROOT = Path(__file__).resolve().parent.parent


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
    # a config file: oracle-check has no graph grid, so it must not check a chain in its place
    {"experiment": "oracle-check", "network": {"type": "graph", "rows": 1, "cols": 3, "db": 6}},
])
def test_bad_network_input_is_a_config_error(tmp_path, argv, capsys):
    if isinstance(argv, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(argv))
        argv = (str(tmp_path / "cfg.json"),)
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


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_flag_and_writes_nothing(tmp_path, capsys, flag):
    out = tmp_path / "out.txt"
    assert main(["--experiment", "scan-bipartitions", "--modes", "3", flag, "--out", str(out)]) == EXIT_OK
    assert not out.exists()
    text = capsys.readouterr().out
    for table in (cli.CONFIG_KEYS, cli.NETWORK_KEYS):
        for _, name, help_text in table.values():
            if name:
                assert re.search(rf"^  {re.escape(name)} +{re.escape(help_text)}$", text, re.M)
    with pytest.raises(SystemExit) as exited:  # build_config, as the CLI, exits 0 after the usage
        build_config([flag])
    assert exited.value.code == EXIT_OK and capsys.readouterr().out == text


@pytest.mark.parametrize("argv", [
    ("--experiment", "verify-bounds", "--nonsense", "1"),  # not a flag of the key table
    ("--tri", "3"),  # a prefix of --trials: flag names are exact
    ("--experiment", "verify-bounds", "--trials"),  # no value
    ("a.json", "b.json"),  # a second config file
], ids=["unknown", "abbreviation", "no-value", "second-positional"])
def test_reader_rejects_bad_argv(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps({"experiment": "verify-bounds", "trials": 3}))
    code, _ = run_cli(tmp_path, *argv)
    assert code == EXIT_CONFIG and not (tmp_path / "out.txt").exists()
    assert capsys.readouterr().err.startswith("configuration error:")
    with pytest.raises(ConfigError):
        build_config(list(argv))


def test_flag_equals_form_and_last_repeat():
    spaced = build_config(["--experiment", "scan-bipartitions", "--modes", "3", "--r", "0.5", "--alpha", "0.1+0.2j",
                           "--g", "0", "--out", "x=y.csv"])
    assert spaced == build_config(["--experiment=scan-bipartitions", "--modes=3", "--r=0.5", "--alpha=0.1+0.2j",
                                   "--g=0", "--out=x=y.csv"])
    assert spaced.out == "x=y.csv"
    assert build_config(["--trials", "5", "--trials=6", "--trials", "7"]).trials == 7
    assert build_config(["--seed=3", "--seed", "4"]).seed == 4
    # the next token is the value, whatever it starts with
    assert build_config(["--out", "-h"]).out == "-h"


@pytest.mark.parametrize("flag, key, value", [
    ("--alpha", "alphas", "-0.3-0.4j"),
    ("--alpha", "alphas", "-0.5,0.3"),
    ("--r", "r_grid", "-1e-3"),
    ("--g-prime", "g_prime", "0"),
])
def test_flag_values_starting_with_minus_match_the_file(tmp_path, flag, key, value):
    # a flag takes the next token as its value even when it starts with "-", as the file form reads it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    from_file = build_config([str(cfg)])
    assert build_config([flag, value]) == from_file == build_config([f"{flag}={value}"])


def test_negative_db_stays_a_configuration_error(capsys):
    # a negative dB fails validation, not parsing
    argv = ["--experiment", "scan-bipartitions", "--network", "graph", "--modes", "4", "--db", "-1"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: db_grid must be nonnegative\n"


def test_cli_run_loads_no_argparse_gettext_or_locale(tmp_path):
    # pytest itself loads argparse, so the run happens in a child interpreter
    argv = ["--experiment", "scan-bipartitions", "--modes", "3", "--out", str(tmp_path / "o")]
    code = (f"import sys; import cvdistill.cli as cli; code = cli.main({argv!r}); "
            "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "0 []\n"
    assert (tmp_path / "o").read_text().startswith(",".join(SCAN_HEADER))


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


def test_sweep_one_mode_network_has_no_neighbour_mode(tmp_path, capsys):
    # a 1-mode network has no g_prime partition, whether or not --g-prime is given
    for extra in ((), ("--g-prime", "0")):
        code, _ = run_cli(tmp_path, "--experiment", "sweep-squeezing", "--network", "graph",
                          "--modes", "1", *extra)
        assert code == EXIT_CONFIG
        assert "a 1-mode network has no neighbour mode" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    (),  # the reference chain: 84 rows, two of them vacuum
    ("--network", "graph", "--modes", "9", "--kind", "add"),
    ("--modes", "6", "--alpha", "0,0.3-0.4j,1.1"),
    ("--modes", "6", "--alpha", "0,0.3-0.4j,1.1", "--kind", "add"),
])
def test_sweep_matches_scalar_reference_bitwise(argv):
    # each row against the scalar Wigner route and the scalar Renyi-2 entropy of its own state
    config = build_config(["--experiment", "sweep-squeezing", *argv])
    spec, table = config.network, cli.sweep_squeezing(config)
    g = spec.resolved_g
    g_prime = cli._neighbour_mode(spec.m, g, config.g_prime)
    field = "r" if isinstance(spec, ChainSpec) else "squeezing_db"
    rows = zip(*(table[key] for key in ("r", "alpha_g", "partition", "e_before", "delta_e", "error")))
    for value, alpha, label, e_before, delta, error in rows:
        state = cli._build_network(dataclasses.replace(spec, **{field: value}, alpha_g=alpha))
        modes = (g,) if label == "g" else (g_prime,)
        try:
            reference = scalar_entanglement_increase(state, modes, g, config.kind)
        except VacuumModeSubtraction:
            assert error == "VacuumModeSubtraction" and np.isnan(e_before) and np.isnan(delta)
            continue
        assert error is None
        assert delta == reference and delta == entanglement_increase(state, modes, g, config.kind)
        assert e_before == renyi2_entanglement_pure(state, modes)


def test_sweep_takes_one_stacked_wigner_call_per_partition(monkeypatch):
    calls, wigner = [], cli.relative_purity_wigner_many
    monkeypatch.setattr(cli, "relative_purity_wigner_many", lambda *a: calls.append(len(a[0])) or wigner(*a))
    table = cli.sweep_squeezing(build_config(["--experiment", "sweep-squeezing"]))
    assert calls == [42, 42] and len(table["delta_e"]) == 84


def test_sweep_nan_row_fails_the_cap(tmp_path, monkeypatch):
    # a NaN relative purity is not a vacuum mode: its row carries no tag, and the cap fails
    wigner = cli.relative_purity_wigner_many

    def one_nan(*args):
        ratios = wigner(*args)
        ratios[1] = np.nan
        return ratios
    monkeypatch.setattr(cli, "relative_purity_wigner_many", one_nan)
    code, _ = run_cli(tmp_path, "--experiment", "sweep-squeezing", "--modes", "3", "--r", "0.2,0.4")
    assert code == EXIT_VIOLATION and not (tmp_path / "out.txt").exists()


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


def test_verify_bounds_counts_a_nan_ratio_as_a_violation(tmp_path, monkeypatch):
    closed, calls = cli.relative_purity_many, []

    def first_nan(*args):
        ratios = closed(*args)
        if not calls:
            ratios[0] = np.nan
        calls.append(None)
        return ratios
    monkeypatch.setattr(cli, "relative_purity_many", first_nan)
    code, text = run_cli(tmp_path, "--experiment", "verify-bounds", "--trials", "300", "--seed", "5")
    assert code == EXIT_VIOLATION
    doc = json.loads(text)
    assert doc["violations"] == 1 and math.isnan(doc["min_ratio"])


def test_verify_bounds_memory_does_not_grow_with_trials(monkeypatch):
    # 10**12 trials: no array of that length is allocated; the draws stop by
    # a sentinel once the first chunk's stacks have been evaluated. The count is
    # set past build_config, which rejects it above TRIALS_LIMIT, since only at
    # this size would an array of trials fail to allocate
    class Sentinel(Exception):
        pass
    evaluated, draw, closed = [], cli._draw_chunk, cli.relative_purity_many

    def one_chunk(rng):
        if evaluated:
            raise Sentinel
        return draw(rng)
    monkeypatch.setattr(cli, "relative_purity_many", lambda *args: evaluated.append(len(args[0])) or closed(*args))
    monkeypatch.setattr(cli, "_draw_chunk", one_chunk)
    config = dataclasses.replace(build_config(["--experiment", "verify-bounds"]), trials=10**12)
    with pytest.raises(Sentinel):
        cli.verify_bounds(config)
    assert len(evaluated) == 5 and sum(evaluated) == cli.TRIAL_CHUNK  # one stack per mode count


def test_verify_bounds_trials_above_the_limit_exit_2_before_any_draw(tmp_path, monkeypatch):
    # --trials 10**12 would run for months with no output; it fails validation
    def no_draw(*args):
        raise AssertionError("a trial was drawn")
    monkeypatch.setattr(cli, "_draw_chunk", no_draw)
    for trials in (cli.TRIALS_LIMIT + 1, 10**12):
        code, text = run_cli(tmp_path, "--experiment", "verify-bounds", "--trials", str(trials))
        assert (code, text) == (EXIT_CONFIG, "")
    with pytest.raises(ConfigError, match="exceeds 100000000"):
        build_config(["--experiment", "verify-bounds", "--trials", str(10**12)])


# Summaries of the trial stream of bulk draws per chunk of TRIAL_CHUNK trials; any
# drift in the draw order or the closed form shows here. Re-recorded when the trials
# moved from per-trial Generator calls to that stream (min_ratio old -> new):
# seed 1 add 0.508429736115 -> 0.506445064898; seed 20210409 subtract 0.501313123306 ->
# 0.502695558444 and add 0.505050621484 -> 0.504604886209; seed 3 subtract
# 0.5079059742 -> 0.512456986149 and add 0.508116849853 -> 0.514932680424
GOLDEN_BOUNDS = [
    (("--kind", "add", "--trials", "10000", "--seed", "1"),  # the README example
     '{\n  "kind": "add",\n  "max_delta_e": 0.680339421396,\n  "min_ratio": 0.506445064898,\n'
     '  "seed": 1,\n  "trials": 10000,\n  "violations": 0\n}\n'),
    (("--kind", "subtract", "--trials", "10000"),
     '{\n  "kind": "subtract",\n  "max_delta_e": 0.687770543724,\n  "min_ratio": 0.502695558444,\n'
     '  "seed": 20210409,\n  "trials": 10000,\n  "violations": 0\n}\n'),
    (("--kind", "add", "--trials", "10000"),
     '{\n  "kind": "add",\n  "max_delta_e": 0.68397955949,\n  "min_ratio": 0.504604886209,\n'
     '  "seed": 20210409,\n  "trials": 10000,\n  "violations": 0\n}\n'),
    (("--kind", "subtract", "--trials", "5000", "--seed", "3"),
     '{\n  "kind": "subtract",\n  "max_delta_e": 0.668538500956,\n  "min_ratio": 0.512456986149,\n'
     '  "seed": 3,\n  "trials": 5000,\n  "violations": 0\n}\n'),
    (("--kind", "add", "--trials", "5000", "--seed", "3"),
     '{\n  "kind": "add",\n  "max_delta_e": 0.663719104486,\n  "min_ratio": 0.514932680424,\n'
     '  "seed": 3,\n  "trials": 5000,\n  "violations": 0\n}\n'),
]


# Summaries of 100000 trials, some 98 chunks, per seed and kind: ten to twenty times the
# trials of the summaries above, so min_ratio sits nearer 1/2, where round-off in the closed
# form, the draws or the Haar factors shows first. Recorded before the Haar factors moved
# from LAPACK QR to two-pass Gram-Schmidt, which left all six byte for byte. The runtime-deps
# CI job runs all six; the tier-1 suite runs the seed-1 pair
GOLDEN_BOUNDS_AT_SCALE = [
    (("--kind", "subtract", "--trials", "100000", "--seed", "1"),
     '{\n  "kind": "subtract",\n  "max_delta_e": 0.691662602243,\n  "min_ratio": 0.500742840424,\n'
     '  "seed": 1,\n  "trials": 100000,\n  "violations": 0\n}\n'),
    (("--kind", "add", "--trials", "100000", "--seed", "1"),
     '{\n  "kind": "add",\n  "max_delta_e": 0.689550632334,\n  "min_ratio": 0.501801511783,\n'
     '  "seed": 1,\n  "trials": 100000,\n  "violations": 0\n}\n'),
    (("--kind", "subtract", "--trials", "100000", "--seed", "7"),
     '{\n  "kind": "subtract",\n  "max_delta_e": 0.688230296333,\n  "min_ratio": 0.502464495969,\n'
     '  "seed": 7,\n  "trials": 100000,\n  "violations": 0\n}\n'),
    (("--kind", "add", "--trials", "100000", "--seed", "7"),
     '{\n  "kind": "add",\n  "max_delta_e": 0.686492787386,\n  "min_ratio": 0.50333829142,\n'
     '  "seed": 7,\n  "trials": 100000,\n  "violations": 0\n}\n'),
    (("--kind", "subtract", "--trials", "100000", "--seed", "941"),
     '{\n  "kind": "subtract",\n  "max_delta_e": 0.690262799691,\n  "min_ratio": 0.501444272349,\n'
     '  "seed": 941,\n  "trials": 100000,\n  "violations": 0\n}\n'),
    (("--kind", "add", "--trials", "100000", "--seed", "941"),
     '{\n  "kind": "add",\n  "max_delta_e": 0.689740484427,\n  "min_ratio": 0.501706252759,\n'
     '  "seed": 941,\n  "trials": 100000,\n  "violations": 0\n}\n'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_BOUNDS + GOLDEN_BOUNDS_AT_SCALE[:2])
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
    # zero (-2.4e-14 to -8.5e-14).
    # Re-recorded when the cuts moved to one trie of Schur complements: 16 cells
    # in 12 rows moved, 10 by one unit in the 12th digit (at most 1e-11) and 6 that
    # are round-off around zero: four delta_e cells -8.48e-14 -> 3.1e-15 to 3.7e-15,
    # and the full cut's e_before 0 -> 7.5e-15 and e_after -8.5e-14 -> 1.1e-14;
    # test_cut_sides_match_scalar_route checks every row against the scalar route
    (("--experiment", "scan-bipartitions", "--network", "graph", "--modes", "9", "--db", "10",
      "--alpha", "0.5"),
     {"out": "921d51e86256195d00b0a843443e38d8ad86e9b99d973137cb555c2cfdc1033d"}),
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
    # max_rel_err 9.76564269584e-10 -> 9.76561804813e-10; the other blocks did not change.
    # Re-recorded when the thermal block moved from the eight closed-form trace
    # identities to one thermal mode's relative purity by the three routes:
    # thermal_traces max_rel_err 3.27145717923e-13 -> 1.69975145067e-11, set by the
    # Fock truncation at n = 5; the other blocks did not change.
    # Re-recorded when the two-path trials became verify-bounds' own trials, with the
    # Wigner route on their purifications: two_path max_rel_err 9.45910016981e-14 ->
    # 5.69314936473e-14; the other bytes did not change.
    # Re-recorded when the trials moved to bulk draws per chunk, a new trial stream, and
    # the Wigner route to the m-mode states: two_path max_rel_err 5.69314936473e-14 ->
    # 1.49654464118e-13; the other bytes did not change.
    # Re-recorded when the Haar factors moved from LAPACK QR to two-pass Gram-Schmidt
    # (c8f19164... -> cfa18818...): two_path max_rel_err 1.49654464118e-13 ->
    # 9.10759632141e-14; the other bytes did not change.
    # Re-recorded when the gate exponentials moved from complex eigendecompositions to
    # the real normal form of each block, one SVD of its half-size coupling
    # (cfa18818... -> 270dbda2...): grid max_rel_err 9.76561804813e-10 -> 9.76559066179e-10;
    # the other bytes did not change. Re-recorded when the grid's Fock tensors moved from
    # gate-by-gate exponentials to the Bargmann recurrence of each state (fock.gaussian_fock)
    # (270dbda2... -> 75de877f...): grid max_rel_err 9.76559066179e-10 -> 9.76561257086e-10;
    # the other bytes did not change
    (("--experiment", "oracle-check"),
     {"out": "75de877f14bfda1652afee199835ad89c2ec28b7e83aa1194b33c6eab733d139"}),
    # re-recorded when each cut moved to its smaller side: the full cut's
    # e_before and delta_e, round-off around zero, moved from -1.33226762955e-15
    # to -1.11022302463e-15; the other 7 rows and the snapshot did not change
    (("--experiment", "scan-bipartitions", "--modes", "4", "--r", "0.7",
      "--dump-state", "state.json"),
     {"out": "79e9af39a27dead70576738a7eff5731c4573cc272d1244b3a7ac8fc7018d772",
      "state.json": "ff0871cbb1161048d01ffe134e0246f83eea7a771658833e6ce18d6baa508ca0"}),
    # the README graph scan as JSON, recorded when the scan was first rendered from
    # columns and re-recorded with the CSV above for the trie, the same 16 cells;
    # test_readme_graph_scan_json_matches_csv checks it cell for cell against the CSV
    (("--experiment", "scan-bipartitions", "--network", "graph", "--modes", "9", "--db", "10",
      "--alpha", "0.5", "--format", "json"),
     {"out": "4d9db63729382a49452a34d4a788ed8c9226aa0c473d3097cd59d005562ec2fd"}),
    # the path the oracle benchmark runs: photon addition at a complex displacement,
    # recorded before the grid and the two-path block moved to stacked passes, and
    # re-recorded with the oracle-check run above for the three-route thermal block:
    # thermal_traces max_rel_err 3.27145717923e-13 -> 1.70030656218e-11; the grid
    # and two_path blocks did not change. Re-recorded with the run above for the
    # purified verify-bounds trials: two_path max_rel_err 5.88418203051e-14 ->
    # 9.2829195824e-14; the other bytes did not change. Re-recorded with the run above
    # for the chunked trial stream: two_path max_rel_err 9.2829195824e-14 ->
    # 2.37154347746e-13; the other bytes did not change. Re-recorded with the run above
    # for the Gram-Schmidt Haar factors (b25b1732... -> a615f7a6...): two_path
    # max_rel_err 2.37154347746e-13 -> 1.68145630517e-13; the other bytes did not change.
    # Re-recorded when the closed form's row moved from ladder_blocks of the assembled S
    # to the Euler factors (a615f7a6... -> ad21cc65...): two_path max_rel_err
    # 1.68145630517e-13 -> 1.67977316572e-13; the other bytes did not change, nor did
    # the default oracle-check run's above. Re-recorded with the run above for the real
    # normal form of the Fock gates (ad21cc65... -> 2569af6a...): grid max_rel_err
    # 2.28124379385e-11 -> 2.28114103898e-11; the other bytes did not change. Re-recorded with
    # the run above for the Bargmann recurrence (2569af6a... -> a1fb8378...): grid max_rel_err
    # 2.28114103898e-11 -> 2.2811752906e-11; the other bytes did not change
    (("--experiment", "oracle-check", "--kind", "add", "--alpha", "0,0.3-0.4j"),
     {"out": "a1fb8378987fe809f16a2f0abbea9679750a8197675170f9c92476411b825d89"}),
]


# sha256 of oracle-check runs through the grid's Fock side, with CVD_SEED unset, recorded
# before that side moved to one squeezed tensor per row and rung: the oracle benchmark's
# configs at seeds 1 and 89, a 3-mode row whose alphas keep one ladder base, five r
# values of 2-mode rows, and a pinned cutoff at which the r = 0.8 add cases fail.
# Re-recorded when the gate exponentials moved from complex eigendecompositions to the
# real normal form of each block, and again when the grid's Fock tensors moved to the
# Bargmann recurrence of each case's state (fock.gaussian_fock); only the grid max_rel_err
# moved, each run keeping its exit code and failure list (old -> new digest: grid
# max_rel_err old -> new, per re-recording)
ORACLE_PINS = [
    # 7ff64b13... -> 93337d8b...: 1.0001579317e-11 -> 1.00028521875e-11;
    # 93337d8b... -> b758980b...: 1.00028521875e-11 -> 1.00050797107e-11
    (("--kind", "add", "--seed", "1", "--alpha", "0,0.438557-0.102652j"), EXIT_OK,
     "b758980b4b398122229c2c2391ef091d154736f411d12c5a7e365b27ec0958f0"),
    # 6f2f6365... -> c9b74152...: 1.17661677868e-11 -> 1.17703632469e-11;
    # c9b74152... -> 513f6177...: 1.17703632469e-11 -> 1.17677814253e-11
    (("--kind", "add", "--seed", "89", "--alpha", "0,-0.263765+0.377049j"), EXIT_OK,
     "513f6177ca3a8b01f17673403929f8b453c52379055f6d71ceb2bb48f1d97325"),
    # 2a346fec... -> ac048cc7...: 2.04985693108e-09 -> 2.04985944342e-09;
    # ac048cc7... -> 9c780aab...: 2.04985944342e-09 -> 2.04735295967e-09
    (("--modes", "3", "--alpha", "0,0.7", "--r", "0.8,1.0"), EXIT_OK,
     "9c780aab4418a6933d906a2da0dc7b673b5c5079eb93fcdddb46172c15d8b294"),
    # 23b2bc7f... -> 29f4b582...: 3.85818997359e-10 -> 1.96781755385e-10; the recurrence
    # left these bytes as they were
    (("--modes", "2", "--r", "0.1,0.2,0.3,0.5,0.7", "--alpha", "0,0.3+0.2j"), EXIT_OK,
     "29f4b582fa8b10eade38148537beeb2c352c19781cc1d1625b811b12217217fa"),
    # 9e4bee37... -> f6d5aec5...: 2.72935954644e-14 -> 3.01366783252e-14;
    # f6d5aec5... -> bc1279a3...: 3.01366783252e-14 -> 2.98523700391e-14
    (("--modes", "3", "--kind", "add", "--alpha", "0,0.5", "--cutoff", "20", "--r", "0.4,0.8"), EXIT_VIOLATION,
     "bc1279a33f7d858e831a53e8d238a281d75340bdb7d8ed0751cf490ea23457d1"),
]


@pytest.mark.parametrize("argv, code, digest", ORACLE_PINS,
                         ids=["oracle-seed-1", "oracle-seed-89", "m3-two-rows", "m2-five-rows", "m3-pinned-20"])
def test_oracle_check_pinned_bytes(tmp_path, monkeypatch, argv, code, digest):
    monkeypatch.delenv("CVD_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["--experiment", "oracle-check", *argv, "--out", "out"]) == code
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("argv, digests", README_EXAMPLES)
def test_readme_example_bytes(tmp_path, monkeypatch, argv, digests):
    monkeypatch.delenv("CVD_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == EXIT_OK
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_readme_oracle_check_blocks(tmp_path, monkeypatch):
    # thermal_traces: one thermal mode's excess ratio - 1/2 by the closed form and
    # the Wigner route against the Fock purification, 3.27145717923e-13 under the
    # eight trace identities before; the Fock grid may move. two_path max_rel_err
    # 9.70334923522e-14 with the Schur williamson, 9.45910016981e-14 with the two-eigh
    # williamson and the batched two-path block, 5.69314936473e-14 on the purified
    # verify-bounds trials, which run no williamson, 1.49654464118e-13 on the
    # chunked trial stream, the Wigner route on each m-mode state, now 9.10759632141e-14
    # with the Haar factors by two-pass Gram-Schmidt. The grid value, 9.76565091174e-10
    # before, is now that of the Bargmann recurrence (9.76559066179e-10 with the Fock
    # gates' real normal form and 9.76561804813e-10 with their complex
    # eigendecompositions, which the old values held to 1e-12 too)
    monkeypatch.delenv("CVD_SEED", raising=False)
    code, text = run_cli(tmp_path, "--experiment", "oracle-check")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["thermal_traces"] == {
        "max_rel_err": 1.69975145067e-11, "pass": True, "tolerance": 1e-08}
    assert doc["two_path"] == {
        "max_rel_err": 9.10759632141e-14, "pass": True, "tolerance": 1e-08, "trials": 1000}
    assert abs(doc["grid"]["max_rel_err"] - 9.76561257086e-10) <= 1e-12


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


def _perfbench_module(name):
    # a perfbench module, imported by path as the benchmark imports it
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_jobs():
    # the benchmark's seeded scan configs
    return _perfbench_module("workloads").jobs


def test_benchmark_checks_import_from_the_package():
    # the benchmark's correctness checks import library names; one that leaves
    # the package fails here rather than in every benchmark job
    assert callable(_perfbench_module("checks").check_output)


SCALAR_ROUTE_SCANS = [argv for argv, _ in README_EXAMPLES
                      if "scan-bipartitions" in argv and "json" not in argv]
SCALAR_ROUTE_SCANS += [(workload, seed) for workload in ("scan-chain", "scan-graph") for seed in (1, 2, 3)]


@pytest.mark.parametrize("source", SCALAR_ROUTE_SCANS,
                         ids=["readme-graph", "readme-chain"] + [f"{w}-{n}" for w, n in SCALAR_ROUTE_SCANS[2:]])
def test_cut_sides_match_scalar_route(tmp_path, source):
    # every cut, for both kinds, against the scalar route to 1e-12
    if isinstance(source[1], int):
        (tmp_path / "job.json").write_text(json.dumps(_benchmark_jobs()(*source)[0]))
        source = (str(tmp_path / "job.json"),)
    spec = cli._network(build_config(list(source)))
    state, g, m = cli._build_network(spec), spec.resolved_g, spec.m
    masks = photon.cut_masks(m, g)
    parts = [[i for i in range(m) if mask >> i & 1] for mask in masks.tolist()]
    e_ref = np.array([renyi2_entanglement_pure(state, part) for part in parts])
    for kind in ("subtract", "add"):
        d_ref = np.array([entanglement_increase(state, part, g, kind) for part in parts])
        e_before, delta = photon.entanglement_increase_cuts(state, g, kind)
        assert np.abs(e_before - e_ref).max() <= 1e-12
        assert np.abs(delta - d_ref).max() <= 1e-12


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
    monkeypatch.setattr(photon, "_trie_level", unreachable)
    monkeypatch.setattr(cli, "_build_network", lambda spec: GaussianState(
        m=spec.m, mean=np.ones(2 * spec.m), cov=2.0 * np.eye(2 * spec.m)))
    config = build_config(["--experiment", "scan-bipartitions", "--modes", "4", "--r", "0.6"])
    with pytest.raises(GlobalStateNotPure):
        scan_bipartitions(config)


def test_scan_nan_row_fails_the_cap(tmp_path, monkeypatch):
    cuts = cli.entanglement_increase_cuts

    def one_nan(*args):
        e_before, delta = cuts(*args)
        delta[3] = np.nan
        return e_before, delta
    monkeypatch.setattr(cli, "entanglement_increase_cuts", one_nan)
    code, _ = run_cli(tmp_path, "--experiment", "scan-bipartitions", "--modes", "4")
    assert code == EXIT_VIOLATION and not (tmp_path / "out.txt").exists()


# the null rows of a vacuum-g scan, recorded before the scan moved onto arrays
VACUUM_SCAN_BYTES = [
    ("csv", "d73b94381a39d7e761eb675bf48bcacf151df48a9061f975da6b519d774f816b"),
    ("json", "a73a9c3946e449a336f63f2c5fe2dc1c208c9f6db93932ea461851a0e511a38c"),
]


@pytest.mark.parametrize("fmt, digest", VACUUM_SCAN_BYTES)
def test_scan_vacuum_null_rows_bytes(tmp_path, monkeypatch, fmt, digest):
    def unreachable(*args):
        raise AssertionError("the kernel ran for a vacuum mode g")

    monkeypatch.setattr(photon, "_trie_level", unreachable)
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
    # the grid, the thermal block (calls outside both labelled functions) and the
    # two-path block all run the stacked Wigner route and the stacked closed form,
    # each for the configured kind
    calls, block = [], [None]

    def spy(name):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append((block[0], name, args[-1])) or fn(*args))

    def labelled(name):
        fn = getattr(cli, name)

        def run(*args):
            block[0] = name
            try:
                return fn(*args)
            finally:
                block[0] = None
        monkeypatch.setattr(cli, name, run)

    for name in ("relative_purity_many", "relative_purity_wigner_many"):
        spy(name)
    for name in ("_oracle_grid", "two_path_ratios"):
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
        (where, name) for where in ("_oracle_grid", None, "two_path_ratios")
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


def _nan_on_side_1(fock, side):
    return math.nan if tuple(side) == (1,) else reduced_purity(fock, side)


def _first_row_in(caller, names, value=np.nan, modules=(cli,)):
    # (module, name, patch) triples: each of `names`, as each module binds it, puts `value` (or, for a
    # dict `names`, the name's own value) in the first row of its first call from cli's `caller`
    outer, inside, done = getattr(cli, caller), [False], set()
    values_of = names if isinstance(names, dict) else dict.fromkeys(names, value)

    def labelled(*args):
        inside[0] = True
        try:
            return outer(*args)
        finally:
            inside[0] = False

    def patch(module, name):
        fn = getattr(module, name)

        def patched(*args):
            values = fn(*args)
            if inside[0] and (module, name) not in done:
                values[0] = values_of[name]
                done.add((module, name))
            return values
        return patched
    return [(cli, caller, labelled), *((module, name, patch(module, name)) for module in modules for name in names)]


@pytest.mark.parametrize("block, patches", [
    ("grid", [(cli, "reduced_purity", _nan_on_side_1)]),
    ("grid", ("_oracle_grid", "relative_purity_many")),
    ("grid", ("_oracle_grid", "relative_purity_wigner_many")),
    ("two_path", ("two_path_ratios", "relative_purity_many")),
    ("two_path", ("two_path_ratios", "relative_purity_wigner_many")),
], ids=["grid-fock-purity", "grid-closed-form", "grid-wigner", "two-path-closed-form", "two-path-wigner"])
def test_oracle_check_fails_on_a_nan(tmp_path, monkeypatch, block, patches):
    # the thermal block's NaN routes are test_oracle_check_thermal_block_fails_on_a_wrong_route's
    if isinstance(patches, tuple):
        caller, route = patches
        patches = _first_row_in(caller, [route])
    for module, name, fn in patches:
        monkeypatch.setattr(module, name, fn)
    code, text = run_cli(tmp_path, "--experiment", "oracle-check", "--modes", "2", "--r", "0.3",
                         "--alpha", "0.5", "--trials", "50", "--seed", "2")
    doc = json.loads(text)
    assert code == EXIT_VIOLATION and doc["pass"] is False
    assert doc[block]["pass"] is False and math.isnan(doc[block]["max_rel_err"])
    assert all(doc[other]["pass"] is True for other in ("grid", "thermal_traces", "two_path") if other != block)


def _vacuum_row(routes):
    # the first_row_in values that fake a vacuum row on the given weight routes: the Wigner kernel reads
    # photon_weights, but the closed form's kernel computes its weight from its own terms, so its ratio,
    # NaN for a vacuum row, is faked where cli reads it
    values = dict.fromkeys(routes, 0.0)
    if "closed_form_weights" in routes:
        values["relative_purity_many"] = np.nan
    return values


@pytest.mark.parametrize("routes", [["photon_weights"], ["closed_form_weights"],
                                    ["photon_weights", "closed_form_weights"]],
                         ids=["wigner", "closed-form", "both"])
def test_two_path_skips_a_trial_only_when_both_routes_find_it_vacuum(tmp_path, monkeypatch, routes):
    # one trial's photon weight set to 0 by one route or both, where cli marks it and where the
    # route's kernel reads it: only both may skip it
    for module, name, fn in _first_row_in("two_path_ratios", _vacuum_row(routes), modules=(cli, photon)):
        monkeypatch.setattr(module, name, fn)
    code, text = run_cli(tmp_path, "--experiment", "oracle-check", "--modes", "2", "--r", "0.3",
                         "--alpha", "0.5", "--trials", "50", "--seed", "2")
    doc = json.loads(text)
    assert doc["grid"]["pass"] is True and doc["thermal_traces"]["pass"] is True
    if len(routes) == 2:
        assert code == EXIT_OK and doc["two_path"]["max_rel_err"] <= 1e-8
    else:
        assert code == EXIT_VIOLATION and math.isnan(doc["two_path"]["max_rel_err"])


def test_two_path_ratios_mark_only_the_trials_both_routes_find_vacuum(monkeypatch):
    for module, name, fn in _first_row_in("two_path_ratios", _vacuum_row(["photon_weights", "closed_form_weights"]),
                                          modules=(cli, photon)):
        monkeypatch.setattr(module, name, fn)
    wigner, closed, vacuum = cli.two_path_ratios(2, 50, "subtract")
    assert vacuum.sum() == 1 and np.isnan(wigner[vacuum]).all() and np.isnan(closed[vacuum]).all()
    assert np.isfinite(wigner[~vacuum]).all() and np.isfinite(closed[~vacuum]).all()


def test_two_path_skips_a_trial_in_the_vacuum_band(monkeypatch):
    # the first trial's occupations all 1, its log-squeezings all 7e-6 and its amplitude 0: a
    # passive map keeps every mode at sinh(7e-6)^2 = 4.9e-11 photons, in (2.5e-11, 1e-10], which
    # both routes find vacuum
    draw = cli._draw_chunk

    def banded(rng):
        groups = draw(rng)
        for pos, u_nu, _, u_squeeze, _, u_alpha in groups:
            if pos.size and pos[0] == 0:  # the group of trial 0, in its first row
                u_nu[0] = 0.0  # the occupation 1 + 9 u
                u_squeeze[0] = (2.0 + 7e-6) / 4.0  # the log-squeezing -2 + 4 u
                u_alpha[0, 0] = 0.0  # the amplitude radius 2 sqrt(u)
        return groups

    monkeypatch.setattr(cli, "_draw_chunk", banded)
    wigner, closed, vacuum = cli.two_path_ratios(2, 50, "subtract")
    assert vacuum[0] and vacuum.sum() == 1
    assert np.isfinite(wigner[~vacuum]).all() and np.isfinite(closed[~vacuum]).all()
    assert cli.two_path_error(2, 50, "subtract") <= 1e-8


def _thermal_patch(route, how):
    # patches for cli that put one thermal-mode route off: its excess ratio - 1/2 by
    # 1e-6 relative ("off"), or NaN. Only the thermal block passes the analytic routes
    # a one-mode state alone: the two-path block's one-mode trials come in stacks of
    # many rows, and the test checks that its verdict still passes. Only the thermal
    # block calls thermal_purification. The Fock ratio divides
    # two purities, which a common scale would cancel, so that route is put off
    # through its state: n (1 - 5e-7) moves the excess 1/(2 n^2) by 1e-6.
    fn = getattr(cli, route)
    if route == "thermal_purification":
        def patched(n, cutoff):
            state = fn(n * (1.0 - 5e-7), cutoff)
            return state if how == "off" else dataclasses.replace(state, data=np.full_like(state.data, np.nan))
        return patched

    def patched(*args):
        ratios = fn(*args)
        # one one-mode state: occupations of shape (1,) or a stack of one covariance, (1, 2, 2)
        one_mode = np.ndim(args[0]) == 1 if route == "relative_purity_many" else np.shape(args[0]) == (1, 2, 2)
        if not one_mode:
            return ratios
        return 0.5 + (ratios - 0.5) * (1.0 + 1e-6) if how == "off" else np.full_like(ratios, np.nan)
    return patched


@pytest.mark.parametrize("how", ["off", "nan"])
@pytest.mark.parametrize("route", ["relative_purity_many", "relative_purity_wigner_many", "thermal_purification"])
def test_oracle_check_thermal_block_fails_on_a_wrong_route(tmp_path, monkeypatch, route, how):
    monkeypatch.setattr(cli, route, _thermal_patch(route, how))
    code, text = run_cli(tmp_path, "--experiment", "oracle-check", "--modes", "2", "--r", "0.3",
                         "--alpha", "0.5", "--trials", "50", "--seed", "2")
    doc = json.loads(text)
    assert code == EXIT_VIOLATION and doc["pass"] is False
    block = doc["thermal_traces"]
    assert block["pass"] is False
    if how == "off":
        assert abs(block["max_rel_err"] - 1e-6) <= 1e-8
    else:
        assert math.isnan(block["max_rel_err"])
    assert doc["grid"]["pass"] is True and doc["two_path"]["pass"] is True


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


def _chain_tensors(spec, kind, d):
    # a chain's gaussian_fock tensor at cutoff d and its photon-altered copy at mode g
    state = gaussian_fock(build_chain(spec), d)
    return state, (fock.annihilate if kind == "subtract" else fock.create)(state, spec.resolved_g)


def _reference_case(m, r, alpha, kind, alphas, cutoff=None):
    # a case's Fock tensors, built case by case, at the first rung of its row where they leak at most
    # LEAK_TOL, or None: a pinned cutoff, else [b, ceil(1.5 b), 2 b] with b the suggested cutoff of the
    # largest photon number over the row's alphas
    if cutoff is None:
        base = fock.suggested_cutoff(max(photon.photon_weight(build_chain(ChainSpec(m=m, r=r, alpha_g=a)), i)
                                         for a in alphas for i in range(m)))
    for d in [cutoff] if cutoff else [base, math.ceil(1.5 * base), 2 * base]:
        with contextlib.suppress(CutoffTooSmall):
            return _chain_tensors(ChainSpec(m=m, r=r, alpha_g=alpha), kind, d)
    return None


def _row(m, r, alphas, kind, cutoff, sides=((0,),)):
    # cli._row_fock_purities on the chains of one (m, r), each case's Gaussian state built here
    return cli._row_fock_purities([build_chain(ChainSpec(m=m, r=r, alpha_g=a)) for a in alphas],
                                  ChainSpec(m=m, r=r).resolved_g, kind, cutoff, sides)


def _record_cutoffs(monkeypatch):
    # the cutoff of every Fock tensor the cli builds, in order
    cutoffs, build = [], cli.gaussian_fock
    monkeypatch.setattr(cli, "gaussian_fock", lambda state, d: cutoffs.append(d) or build(state, d))
    return cutoffs


def _budget_messages(monkeypatch):
    # the message of every FockBudgetExceeded that the cli's budget check raises, in order
    messages, check = [], cli._check_budget

    def recorded(*args):
        try:
            return check(*args)
        except FockBudgetExceeded as exc:
            messages.append(str(exc))
            raise
    monkeypatch.setattr(cli, "_check_budget", recorded)
    return messages


def test_oracle_add_escalates_past_create_leakage(monkeypatch):
    # at the automatic cutoff 20 the chain itself leaks 3.6e-12, but create drops
    # 1.49e-10 of the a^dag weight at the top level, above LEAK_TOL: the add case
    # takes the next rung, 30, and its purities are the case-by-case route's there
    spec = ChainSpec(m=3, r=0.8, alpha_g=0.0)
    assert gaussian_fock(build_chain(spec), 20).leakage <= LEAK_TOL
    with pytest.raises(CutoffTooSmall, match="cutoff 20"):
        _chain_tensors(spec, "add", 20)
    state, plus = _chain_tensors(spec, "add", 30)
    assert plus.leakage <= LEAK_TOL
    cutoffs = _record_cutoffs(monkeypatch)
    assert _row(3, 0.8, [0j], "add", None) == [{(0,): (reduced_purity(state, (0,)), reduced_purity(plus, (0,)))}]
    assert cutoffs == [20, 30]
    cutoffs.clear()
    assert isinstance(_row(3, 0.8, [0j], "subtract", None)[0], dict) and cutoffs == [20]


def _no_allocation(*args, **kwargs):
    raise AssertionError("a Fock tensor was allocated above the budget")


def test_oracle_cutoff_over_the_budget_fails_before_it_allocates(tmp_path, monkeypatch):
    # a 2-mode case at the automatic cutoff 20 takes 6400 bytes: under a patched
    # 4096-byte budget each grid case fails typed, listed as CutoffTooSmall is
    monkeypatch.setattr(cli, "gaussian_fock", _no_allocation)
    monkeypatch.setattr(cli, "ORACLE_TENSOR_BYTES", 4096)
    code, text = run_cli(tmp_path, "--experiment", "oracle-check", "--modes", "2", "--r", "0.3",
                         "--trials", "10", "--seed", "2")
    doc = json.loads(text)
    assert code == EXIT_VIOLATION and doc["pass"] is False
    assert doc["grid"]["failures"] == [{"m": 2, "r": 0.3, "alpha": alpha, "error": "FockBudgetExceeded"}
                                       for alpha in ("0", "0.5")]
    # a pinned cutoff is sized too, and the error names the size
    messages = _budget_messages(monkeypatch)
    assert _row(3, 0.8, [0j], "add", 30) == ["FockBudgetExceeded"]
    assert [message.split(",")[0] for message in messages] == ["a 3-mode Fock tensor at cutoff 30 takes 432000 bytes"]


def test_oracle_sizes_the_tensor_before_the_gate_cache(tmp_path, monkeypatch):
    # at the default budget, a pinned cutoff of 10**9 is sized from d**m alone, before
    # any Fock work (the gate cache the oracle once built, now the recurrence): every
    # grid case fails typed at once, and no tensor is built
    monkeypatch.setattr(cli, "gaussian_fock", _no_allocation)
    code, text = run_cli(tmp_path, "--experiment", "oracle-check", "--modes", "2", "--cutoff", "1000000000",
                         "--trials", "10")
    assert code == EXIT_VIOLATION
    failures = json.loads(text)["grid"]["failures"]
    assert len(failures) == 6 and {failure["error"] for failure in failures} == {"FockBudgetExceeded"}


def test_oracle_cutoff_escalation_stops_at_the_budget(monkeypatch):
    # the add case escalates from cutoff 20 to 30; a budget that holds 20**3
    # amplitudes but not 30**3 ends the ladder with the budget error
    monkeypatch.setattr(cli, "ORACLE_TENSOR_BYTES", 20 ** 3 * 16)
    messages, cutoffs = _budget_messages(monkeypatch), _record_cutoffs(monkeypatch)
    assert _row(3, 0.8, [0j], "add", None) == ["FockBudgetExceeded"]
    assert cutoffs == [20] and len(messages) == 1 and "cutoff 30" in messages[0]
    # at the default budget, --modes 3 --r 3 asks for cutoff 309, a 472 MB tensor
    monkeypatch.undo()
    monkeypatch.setattr(cli, "gaussian_fock", _no_allocation)
    messages = _budget_messages(monkeypatch)
    assert _row(3, 3.0, [0.5], "subtract", None) == ["FockBudgetExceeded"]
    assert len(messages) == 1 and "cutoff 309 takes 472058064 bytes" in messages[0]


def test_oracle_grid_holds_no_fock_memory_after_a_run(monkeypatch):
    # the automatic cutoffs 20 (r = 0.1), then 24, 36 and 48 (r = 2.0): each case's tensors die with
    # it and nothing is cached, so the grid's traced peak stays within six 2-mode tensors at the top
    # rung (about 4.6 when measured) and what it leaves held is less than one of them
    cutoffs = _record_cutoffs(monkeypatch)
    tracemalloc.start()
    try:
        _, failures = cli._oracle_grid(2, [(0.1, 0j), (2.0, 0j)], "subtract", None)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert failures == [] and cutoffs == [20, 24, 36, 48]
    assert held < 48 ** 2 * 16 and peak <= 6 * 49 ** 2 * 16


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 21: the cutoff ladder [b, 1.5b, 2b] falls short of a tail of n > 3.5 photons")
def test_oracle_cutoff_ladder_reaches_the_leak_bound_at_r_2_8():
    # r = 2.8 holds 3.63 photons a mode: the ladder tries 47, 71 and 94, but a thermal-like tail needs
    # about ln(1e10) / ln((nbar + 1) / nbar) = 95 levels to leak under LEAK_TOL, all well inside the budget
    assert _row(2, 2.8, [0j], "subtract", None) != ["CutoffTooSmall"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 21: a leak-passing Fock cutoff too coarse for the grid gives no typed error")
def test_oracle_grid_flags_a_leak_passing_cutoff_too_small_to_be_accurate():
    # pinned at cutoff 9, m = 2, r = 0.1, alpha = 0.5 passes every leak check (1.7e-11), but its
    # worst term, a delta_e of 4.877e-7 below REL_ERR_FLOOR, is 5.0e-10 off: the grid reads
    # 4.99e-4 and lists no failure
    err, failures = cli._oracle_grid(2, [(0.1, 0.5 + 0j)], "subtract", 9)
    assert failures or err <= cli.ORACLE_GRID_TOL


def test_every_bound_in_the_errors_table_is_read():
    # the table at the end of errors.py, one NAME = value line per bound after "# the bounds": each
    # name is read by some other module of the package, so a bound that a change orphans shows here
    package = ROOT / "src" / "cvdistill"
    table = (package / "errors.py").read_text(encoding="utf-8").split("# the bounds", 1)[1]
    names = re.findall(r"^([A-Z][A-Z0-9_]*) = ", table, re.M)
    others = "\n".join(path.read_text(encoding="utf-8") for path in package.glob("*.py") if path.name != "errors.py")
    assert len(names) == 17
    assert [name for name in names if not re.search(rf"\b{name}\b", others)] == []


def _density_route_purity(state, part):
    # reference route: the full reduced density of the side, then its purity
    return density_purity(reduce_density(state, part))


GRID_CASES = [(r, alpha) for r in cli.ORACLE_R_VALUES for alpha in (0j, 0.5 + 0.3j)]


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_oracle_grid_matches_reduced_density_route(monkeypatch, kind):
    # every compared term's gap, each mode count's cases stacked, by both routes to the Fock purities
    gaps, rel_err = [], cli._rel_err
    monkeypatch.setattr(cli, "_rel_err", lambda *pairs: gaps.append(rel_err(*pairs)) or gaps[-1])
    for m in (2, 3):
        cli._oracle_grid(m, GRID_CASES, kind, None)
    monkeypatch.setattr(cli, "reduced_purity", _density_route_purity)
    for m in (2, 3):
        cli._oracle_grid(m, GRID_CASES, kind, None)
    assert [len(gap) for gap in gaps] == [30, 90, 30, 90]  # 6 cases x (2 x 2 + 1 or 6 x 2 + 3) terms
    assert_allclose(np.concatenate(gaps[:2]), np.concatenate(gaps[2:]), rtol=0, atol=1e-12)


def _scalar_grid_terms(m, r, alpha, kind):
    # the grid case as a per-subset loop of scalar calls: the (analytic, oracle)
    # pair of every compared term, in the order the grid compares them
    spec = ChainSpec(m=m, r=r, alpha_g=alpha)
    gauss, g = build_chain(spec), spec.resolved_g
    fock, altered = _reference_case(m, r, alpha, kind, [a for row_r, a in GRID_CASES if row_r == r])
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
    # each Fock state's purity taken once per side whose Gram matrix it forms, and
    # each analytic kernel run once per subset size over all of a mode count's
    # cases (purities_from_logdet reads the one slogdet): 3 times on this grid
    kernels = ("purities_from_logdet", "relative_purity_wigner_many", "williamson_many", "relative_purity_many")
    terms, counts = [], dict.fromkeys(("require_pure", "reduced_purity", *kernels), 0)
    # _rel_err compares a mode count's terms in one call, as an array of values and one of references
    monkeypatch.setattr(cli, "_rel_err", lambda value, reference: terms.extend(
        zip(value.tolist(), reference.tolist())) or 0.0)
    for name in counts:
        fn = getattr(cli, name)

        def counted(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(cli, name, counted)
    for m in (2, 3):
        terms.clear()
        counts.update(dict.fromkeys(counts, 0))
        assert cli._oracle_grid(m, GRID_CASES, kind, None) == (0.0, [])
        assert counts == {"require_pure": 6, "reduced_purity": 2 * m * 6, **dict.fromkeys(kernels, m - 1)}
        assert terms == [term for r, alpha in GRID_CASES for term in _scalar_grid_terms(m, r, alpha, kind)]


@pytest.mark.parametrize("argv, r_grid, failures", [
    (["--modes", "2", "--kind", "subtract", "--alpha", "0"], "0,0.4",
     [{"m": 2, "r": 0.0, "alpha": "0", "error": "VacuumModeSubtraction"}]),
    (["--modes", "3", "--kind", "add", "--alpha", "0,0.5", "--cutoff", "20"], "0.4,0.8",
     [{"m": 3, "r": 0.8, "alpha": alpha, "error": "CutoffTooSmall"} for alpha in ("0", "0.5")]),
    # mode g holds 4.9e-11 photons at r = 1.4e-5: vacuum for the Fock side's check and the
    # closed form's alike, so the case is listed once, by the Fock side
    (["--modes", "2", "--kind", "subtract", "--alpha", "0"], "1.4e-5,0.4",
     [{"m": 2, "r": 1.4e-5, "alpha": "0", "error": "VacuumModeSubtraction"}]),
], ids=["vacuum-first", "cutoff-last", "closed-form-vacuum"])
def test_oracle_grid_stacks_only_the_surviving_cases(argv, r_grid, failures):
    # a mode count whose cases both pass and fail: each failure is listed in input
    # order, and the grid's gap is bit for bit that of the surviving r = 0.4 alone
    def grid(r):
        return oracle_check(build_config(["--experiment", "oracle-check", "--trials", "10", *argv, "--r", r]))["grid"]

    mixed, alone = grid(r_grid), grid("0.4")
    assert mixed["failures"] == failures and mixed["pass"] is False
    assert mixed["cases"] == alone["cases"] + len(failures)
    assert alone["failures"] == [] and alone["pass"] is True
    assert 0.0 < mixed["max_rel_err"] == alone["max_rel_err"]


def test_one_vacuum_bound_in_photon_units():
    # mode 0 of a 2-mode chain at r = 1.4e-5 holds 4.9e-11 photons, inside (2.5e-11, 1e-10]:
    # both weights are that photon number and both are held to the one bound, so both stacked
    # kernels give NaN and the one-state entries raise, as does the scan
    state = build_chain(ChainSpec(m=2, r=1.4e-5))
    weight = photon.photon_weight(state, 0, "subtract")
    decomp = williamson(reduce_state(state, [0]))
    row = bogoliubov_row(decomp, 0)
    closed = photon.closed_form_weights(decomp.nu, row.k, row.l, row.alpha_g, "subtract")
    for value in (weight, closed):
        assert photon.VACUUM_WEIGHT_TOL / 4 < value <= photon.VACUUM_WEIGHT_TOL
    assert np.isnan(photon.relative_purity_wigner_many(state.cov[None], state.mean[None], np.zeros(1, int),
                                                       np.zeros((1, 1), int), "subtract")).all()
    assert np.isnan(photon.relative_purity_many(decomp.nu[None], row.k[None], row.l[None],
                                                np.array([row.alpha_g]), "subtract")).all()
    with pytest.raises(VacuumModeSubtraction):
        relative_purity_closed_form(decomp, row, "subtract")
    with pytest.raises(VacuumModeSubtraction):
        entanglement_increase(state, [0], 0, "subtract")
    with pytest.raises(VacuumModeSubtraction):
        photon.entanglement_increase_cuts(state, 0, "subtract")
    rows = scan_bipartitions(build_config(["--experiment", "scan-bipartitions", "--modes", "2",
                                           "--r", "1.4e-5", "--alpha", "0"]))
    assert list(rows["error"]) == ["VacuumModeSubtraction"] * 2


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: near-vacuum precision; the scan prints 1.835e-06 here")
def test_full_cut_just_above_the_vacuum_bound_is_zero():
    # mode 0 of a 2-mode chain at r = 2.2e-5 holds about 1.2e-10 photons, just above the bound,
    # so the scan gives numbers. The full cut stays pure, so its delta_e is exactly 0; the
    # stored V keeps V_gg - 1, about twice the photon number, only to an absolute eps, and the
    # scan prints 1.835e-06 for it
    rows = scan_bipartitions(build_config(["--experiment", "scan-bipartitions", "--modes", "2",
                                           "--r", "2.2e-5", "--alpha", "0"]))
    assert rows["error"] is None and rows["mask"][-1] == 3
    assert abs(rows["delta_e"][-1]) <= 1e-15


ESCALATING_CASES = [(0.4, 0j), (0.4, 0.5 + 0.3j), (0.8, 0j), (0.8, 0.5 + 0.3j),
                    (1.0, 0j), (1.0, 0.5 + 0.3j), (1.0, 0.7 + 0j)]


@pytest.mark.parametrize("cutoff", [None, 20])
@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_oracle_grid_squeezes_each_chain_once_per_cutoff(monkeypatch, kind, cutoff):
    # m = 3. At the automatic cutoffs, r = 0.4 stays at 20 and r = 0.8 escalates from 20 to 30 for
    # one case or both; r = 1.0's alpha = 0.7 sets its row's base to 22, and every case of the row
    # leaks at 22, so it tries 33 (and 44 for add). Pinned at 20, r = 0.8 fails for add and r = 1.0
    # for both kinds. Each case's squeezed and displaced tensor is read from its state once per rung
    # it tries; its tensors, leakage and failure are those of the case-by-case route, bit for bit;
    # and every tensor is dead before the next one is built, so no two cases' are ever alive together
    m, build, ladder = 3, cli.gaussian_fock, cli.annihilate if kind == "subtract" else cli.create
    # the grid's Gaussian states in case order; (case, cutoff) per tensor built; weak references to
    # every tensor; the tensors alive at each build
    states, builds, refs, alive = [], [], [], []
    network = cli._build_network

    def built(state, d):
        alive.append(sum(ref() is not None for ref in refs))
        builds.append((next(i for i, known in enumerate(states) if known is state), d))
        out = build(state, d)
        refs.append(weakref.ref(out))
        return out

    tensors = []  # per case that passes its ladder operation: its tensors, bit for bit

    def altered(state, g):
        out = ladder(state, g)
        refs.append(weakref.ref(out))
        tensors.append([(st.cutoff, st.data.tobytes(), st.leakage) for st in (state, out)])
        return out

    monkeypatch.setattr(cli, "_build_network", lambda spec: states.append(network(spec)) or states[-1])
    monkeypatch.setattr(cli, "gaussian_fock", built)
    monkeypatch.setattr(cli, "annihilate" if kind == "subtract" else "create", altered)
    err, failures = cli._oracle_grid(m, ESCALATING_CASES, kind, cutoff)
    monkeypatch.undo()

    assert len(set(builds)) == len(builds)
    escalated = {22, 33} | ({44} if kind == "add" else set())
    assert {d for i, d in builds if ESCALATING_CASES[i][0] == 1.0} == ({20} if cutoff else escalated)
    expected = {i: _reference_case(m, r, alpha, kind, [a for row_r, a in ESCALATING_CASES if row_r == r], cutoff)
                for i, (r, alpha) in enumerate(ESCALATING_CASES)}
    assert failures == [(i, "CutoffTooSmall") for i, ref in expected.items() if ref is None]
    # the cases reach their ladder operation row by row, rung by rung, in input order within a rung
    order = sorted((i for i, ref in expected.items() if ref),
                   key=lambda i: (ESCALATING_CASES[i][0], expected[i][0].cutoff, i))
    assert tensors == [[(st.cutoff, st.data.tobytes(), st.leakage) for st in expected[i]] for i in order]
    assert err <= cli.ORACLE_GRID_TOL
    assert alive and set(alive) == {0} and not [ref for ref in refs if ref() is not None]


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_oracle_grid_last_case_frees_the_cutoffs_it_will_not_try(monkeypatch, kind):
    # m = 3, r = 1.0: alpha = 0.7 sets the row's base to 22, both cases leak there, and both climb
    # to 33 (and the add row to 44); every tensor built at another cutoff, a case's own or its
    # ladder operation's, is dead before any tensor is built or ladder operation applied at the next
    m, build, ladder = 3, cli.gaussian_fock, cli.annihilate if kind == "subtract" else cli.create
    tried, built, stale = set(), {}, []  # cutoffs tried; weak references to every tensor by cutoff; stale ones

    def checked(op, cutoff):
        def run(state, arg):
            d = cutoff(state, arg)
            tried.add(d)
            stale.append([c for c, refs in built.items() if c != d for ref in refs if ref() is not None])
            out = op(state, arg)
            built.setdefault(d, []).append(weakref.ref(out))
            return out
        return run

    monkeypatch.setattr(cli, "gaussian_fock", checked(build, lambda state, d: d))
    monkeypatch.setattr(cli, "annihilate" if kind == "subtract" else "create",
                        checked(ladder, lambda state, g: state.cutoff))
    err, failures = cli._oracle_grid(m, [(1.0, 0j), (1.0, 0.7 + 0j)], kind, None)
    monkeypatch.undo()

    assert failures == [] and err <= cli.ORACLE_GRID_TOL
    assert tried == {22, 33} | ({44} if kind == "add" else set()) and set(built) == tried - {22}
    assert stale and all(alive == [] for alive in stale)
    assert not [ref for refs in built.values() for ref in refs if ref() is not None]


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


@pytest.mark.parametrize("argv", [
    ("--experiment", "scan-bipartitions", "--modes", "3", "--out", "{missing}/x.csv"),
    ("--experiment", "scan-bipartitions", "--modes", "3", "--out="),
    ("--experiment", "verify-bounds", "--trials", "10", "--out", "{missing}/x.json"),
    ("--experiment", "scan-bipartitions", "--modes", "3", "--dump-state", "{missing}/s.json"),
    ("--experiment", "scan-bipartitions", "--modes", "3", "--dump-state="),
], ids=["table", "empty-path", "summary", "dump", "dump-empty-path"])
def test_unwritable_output_path_is_a_configuration_error(tmp_path, capsys, argv):
    # one line on stderr and exit 2, not a traceback
    assert main([arg.format(missing=tmp_path / "missing") for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and re.fullmatch(r"configuration error: cannot write .*\n", captured.err)


def test_closed_standard_output_is_a_configuration_error():
    # a reader that stops early, as `| head -c 100` does: the 2**15-row scan no longer
    # fits the pipe, so a write fails; one line on stderr and exit 2, and the flush at
    # interpreter exit prints no "Exception ignored"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.Popen([sys.executable, "-m", "cvdistill.cli", "--experiment", "scan-bipartitions",
                              "--modes", "16"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(100).startswith(b"mask,m_a,")
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=300) == EXIT_CONFIG
    assert re.fullmatch(r"configuration error: cannot write standard output: .*Broken pipe.*\n", err)
    # the usage into a pipe that no one reads: the same one line
    read_end, write_end = os.pipe()
    os.close(read_end)
    usage = subprocess.run([sys.executable, "-m", "cvdistill.cli", "--help"], env=env, stdout=write_end,
                           stderr=subprocess.PIPE, text=True, timeout=300)
    os.close(write_end)
    assert usage.returncode == EXIT_CONFIG
    assert re.fullmatch(r"configuration error: cannot write standard output: .*Broken pipe.*\n", usage.stderr)
    # started with standard output closed, as by `>&-`: the same one line
    closed = subprocess.run([sys.executable, "-m", "cvdistill.cli", "--experiment", "verify-bounds", "--trials", "3"],
                            env=env, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True, timeout=300)
    assert (closed.returncode, closed.stderr) == (EXIT_CONFIG, "configuration error: cannot write standard output: "
                                                               "it is closed\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_table_enforces_delta_cap(monkeypatch, fmt):
    # the cap is checked on the whole delta_e column before any chunk is formatted;
    # the null row's NaN values are not compared
    def unreachable(*args):
        raise AssertionError("rows formatted before the cap check")

    columns = {"mask": np.array([1, 3]), "m_a": np.array([1, 2]),
               "e_before": np.array([np.nan, 0.0]), "e_after": np.array([np.nan, 1.0]),
               "delta_e": np.array([np.nan, 1.0]), "error": ["VacuumModeSubtraction", None]}
    monkeypatch.setattr(cli, "_render_rows", unreachable)
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

        def flush(self):  # render_table flushes standard output once, after the last chunk
            pass

    monkeypatch.setattr(cli, "RENDER_CHUNK", 3)
    monkeypatch.setattr(cli, "_render_rows", lambda *args: events.append(None) or render_rows(*args))
    monkeypatch.setattr(sys, "stdout", Recorder())
    render_table(table, SCAN_HEADER, fmt)
    # 8 rows in chunks of 3, 3 and 2, each written before the next is formatted
    formatted = [i for i, text in enumerate(events) if text is None]
    assert len(formatted) == 3 and all(events[i + 1] for i in formatted)
    assert "".join(text for text in events if text is not None) == whole


# floats across %.12g's switches to exponent form (below 1e-4, from 1e12) and
# repr's at 1e16, with negative zero, subnormals, the infinities and NaN
_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.builds(lambda mantissa, power: mantissa * 10.0 ** power,
              st.floats(-10.0, 10.0), st.integers(-6, 17)),
    st.sampled_from([-0.0, 5e-324, 1e-5, 9.999999999995e-6, 999999999999.5, 1e12, 1e16,
                     9999999999999998.0, 1e17, math.inf, -math.inf, math.nan]),
)
_TAGS = st.sampled_from([None, None, None, "VacuumModeSubtraction", "100% null", 'a "quoted" %s tag'])


@st.composite
def _tables(draw):
    # columns of every type render_table meets, some rows tagged; an untagged
    # delta_e is drawn within the log 2 cap
    n = draw(st.integers(0, 20))
    tags = draw(st.lists(_TAGS, min_size=n, max_size=n))
    columns = {
        "mask": np.array(draw(st.lists(st.integers(-2 ** 19, 2 ** 19), min_size=n, max_size=n)), dtype=int),
        "x": np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float),
        "z": np.array(draw(st.lists(st.one_of(st.complex_numbers(), st.builds(complex, _FLOATS, st.just(-0.0))),
                                    min_size=n, max_size=n)), dtype=complex),
        "s": draw(st.lists(st.text(max_size=6), min_size=n, max_size=n)),
        "e_before": np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float),
        "e_after": np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float),
        "delta_e": np.array([draw(_FLOATS if tag else st.floats(max_value=cli.LOG_2)) for tag in tags]),
        "error": tags if any(tags) or draw(st.booleans()) else None,
    }
    return columns, tuple(draw(st.permutations(list(columns)[:-1])))


@settings(max_examples=200, deadline=None)
@given(_tables(), st.sampled_from([1, 3, 7, cli.RENDER_CHUNK]), st.sampled_from(["csv", "json"]))
def test_render_table_gives_the_reference_bytes(table, chunk, fmt):
    # the chunked % renderer writes what the per-cell reference renderer writes
    columns, header = table
    with mock.patch.object(cli, "RENDER_CHUNK", chunk), contextlib.redirect_stdout(io.StringIO()) as buf:
        render_table(columns, header, fmt)
    assert buf.getvalue() == render(columns, header, fmt)


def test_float_formatting_12_digits(tmp_path):
    code, text = run_cli(
        tmp_path, "--experiment", "scan-bipartitions", "--modes", "2", "--r", "0.5",
    )
    assert code == EXIT_OK
    value = text.strip().split("\n")[1].split(",")[2]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12
