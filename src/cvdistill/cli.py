"""Command-line experiment runner.

Reproduces the squeezing sweeps, bipartition scans, randomized bound checks
and analytic-versus-Fock-oracle cross validation as deterministic CSV/JSON
data files.

Exit codes: 0 success, 1 bound violation or failed verification, 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundViolation,
    ConfigError,
    CutoffTooSmall,
    CVDistillError,
    NumericalFailure,
    SingularCovariance,
    TooManyModes,
    VacuumModeSubtraction,
    ZeroNorm,
)
from .fock import (
    annihilate,
    apply_gate_fock,
    create,
    purity_fock,
    reduce_density,
    renyi2_fock,
    suggested_cutoff,
    thermal_density,
    vacuum_fock,
)
from .networks import ChainSpec, GraphSpec, build_chain, build_graph, chain_elements, grid_adjacency
from .photon import (
    LOG_2,
    entanglement_increase,
    entanglement_increase_many,
    photon_reduced_wigner,
    relative_purity_closed_form,
    relative_purity_of_subtracted,
    thermal_traces,
)
from .states import (
    GaussianState,
    WilliamsonDecomposition,
    bogoliubov_row,
    purity,
    reduce_state,
    renyi2_entanglement_pure,
    to_snapshot,
    williamson,
)
from .symplectic import random_symplectic

EXPERIMENTS = ("sweep-squeezing", "scan-bipartitions", "verify-bounds", "oracle-check")
EXIT_OK, EXIT_VIOLATION, EXIT_CONFIG, EXIT_NUMERICAL = 0, 1, 2, 3

DELTA_E_CAP = LOG_2 + 1e-9
SCAN_MODE_LIMIT = 20

DEFAULT_R_GRID = tuple(round(0.1 * i, 10) for i in range(21))
DEFAULT_DB_GRID = tuple(round(0.5 * i, 10) for i in range(21))
DEFAULT_ALPHAS = (0j, 0.5 + 0j)

ORACLE_MODES = (2, 3)
ORACLE_R_VALUES = (0.1, 0.4, 0.8)
ORACLE_GRID_TOL = 1e-6
ORACLE_TRACE_TOL = 1e-8
ORACLE_TWO_PATH_TOL = 1e-8
ORACLE_LEAK_TOL = 1e-10

SWEEP_HEADER = ("r", "alpha_g", "partition", "e_before", "e_after", "delta_e")
SCAN_HEADER = ("mask", "m_a", "e_before", "e_after", "delta_e")


@dataclass
class RunConfig:
    """Fully resolved experiment configuration."""

    experiment: str = "sweep-squeezing"
    network: ChainSpec | GraphSpec = field(default_factory=lambda: ChainSpec(m=10, r=1.0, alpha_g=0.5))
    kind: str = "subtract"
    r_grid: tuple[float, ...] = DEFAULT_R_GRID
    db_grid: tuple[float, ...] = DEFAULT_DB_GRID
    alphas: tuple[complex, ...] = DEFAULT_ALPHAS
    g_prime: int | None = None
    seed: int = 20210409
    trials: int = 10000
    out: str | None = None
    format: str = "csv"
    cutoff: int | None = None
    dump_state: str | None = None
    provided: frozenset = frozenset()


def _validate(config: RunConfig):
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    if config.kind not in ("subtract", "add"):
        raise ConfigError(f"kind must be 'subtract' or 'add', got {config.kind!r}")
    if config.format not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {config.format!r}")
    if config.trials < 1:
        raise ConfigError("trials must be at least 1")
    for name, grid in (("r_grid", config.r_grid), ("db_grid", config.db_grid)):
        if len(grid) == 0:
            raise ConfigError(f"{name} must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{name} must be strictly increasing")
    if not config.alphas:
        raise ConfigError("alphas must not be empty")
    if config.cutoff is not None and config.cutoff < 2:
        raise ConfigError("cutoff must be at least 2")


# ---------------------------------------------------------------------------
# configuration assembly


def _parse_complex(value) -> complex:
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"cannot parse complex number from {value!r}") from exc
    return complex(value)


def _parse_float_list(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = list(value)
    try:
        return tuple(float(p) for p in parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse number list from {value!r}") from exc


def _parse_complex_list(value) -> tuple[complex, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = value if isinstance(value, (list, tuple)) else [value]
    return tuple(_parse_complex(p) for p in parts)


def _network_from_mapping(doc: dict, merged: dict) -> ChainSpec | GraphSpec:
    kind = doc.get("type", "chain")
    g = doc.get("g", merged.get("g"))
    alphas = merged.get("alphas")
    alpha = doc.get("alpha")
    if alpha is None and alphas is not None and len(alphas) == 1:
        alpha = alphas[0]
    if alpha is None:
        alpha = 0.5
    alpha = _parse_complex(alpha)

    if kind == "chain":
        m = int(doc.get("modes", 10))
        r_values = merged.get("r_values")
        r = doc.get("r")
        if r is None and r_values is not None and len(r_values) == 1:
            r = r_values[0]
        if r is None:
            r = 1.0
        return ChainSpec(m=m, r=float(r), g=g, alpha_g=alpha)
    if kind == "graph":
        if "adjacency" in doc:
            adjacency = np.asarray(doc["adjacency"], dtype=float)
        else:
            if "rows" in doc or "cols" in doc:
                rows = int(doc.get("rows", 3))
                cols = int(doc.get("cols", 3))
            else:
                m = int(doc.get("modes", 9))
                side = math.isqrt(m)
                if side * side != m:
                    raise ConfigError(
                        f"graph mode count {m} is not a perfect square; give rows/cols or adjacency"
                    )
                rows = cols = side
            adjacency = grid_adjacency(rows, cols)
        db_values = merged.get("db_values")
        db = doc.get("db")
        if db is None and db_values is not None and len(db_values) == 1:
            db = db_values[0]
        if db is None:
            db = 10.0
        return GraphSpec(adjacency=adjacency, squeezing_db=float(db), g=g, alpha_g=alpha)
    raise ConfigError(f"unknown network type {kind!r}")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cvdistill",
        description="Gaussian network experiments: photon subtraction/addition and "
        "Renyi-2 entanglement bounds.",
    )
    p.add_argument("config", nargs="?", help="JSON configuration file")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--network", choices=("chain", "graph"))
    p.add_argument("--modes", type=int, help="mode count (graph: perfect square)")
    p.add_argument("--r", help="comma-separated squeezing value(s) for chains")
    p.add_argument("--db", help="comma-separated squeezing dB value(s) for graphs")
    p.add_argument("--alpha", help="comma-separated complex displacement amplitude(s)")
    p.add_argument("--g", type=int, help="mode the photon is subtracted from / added to")
    p.add_argument("--g-prime", type=int, help="reference neighbour mode for sweeps")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--kind", choices=("subtract", "add"))
    p.add_argument("--cutoff", type=int, help="per-mode Fock cutoff override for the oracle")
    p.add_argument("--dump-state", help="write the built network state as a JSON snapshot")
    return p


def build_config(argv=None) -> RunConfig:
    """Assemble a :class:`RunConfig` from defaults, config file, CVD_SEED and flags."""
    args = _parser().parse_args(argv)

    merged: dict = {}
    network_doc: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a single JSON object")
        network_doc = dict(doc.pop("network", {}) or {})
        merged.update(doc)

    env_seed = os.environ.get("CVD_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"CVD_SEED must be an integer, got {env_seed!r}") from exc

    flag_fields = (
        "experiment", "modes", "r", "db", "alpha", "g", "g_prime",
        "seed", "trials", "out", "format", "kind", "cutoff", "dump_state",
    )
    for name in flag_fields:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    if args.network is not None:
        network_doc["type"] = args.network
    if "modes" in merged:
        network_doc.setdefault("type", "chain")
        network_doc["modes"] = merged["modes"]

    provided = set(merged.keys()) | ({"network"} if network_doc else set())

    # normalise list-valued fields
    if "r" in merged:
        merged["r_values"] = _parse_float_list(merged.pop("r"))
    elif "r_grid" in merged:
        merged["r_values"] = _parse_float_list(merged.pop("r_grid"))
        provided.add("r")
    if "db" in merged:
        merged["db_values"] = _parse_float_list(merged.pop("db"))
    elif "db_grid" in merged:
        merged["db_values"] = _parse_float_list(merged.pop("db_grid"))
        provided.add("db")
    if "alpha" in merged:
        merged["alphas"] = _parse_complex_list(merged.pop("alpha"))
    elif "alphas" in merged:
        merged["alphas"] = _parse_complex_list(merged["alphas"])
        provided.add("alpha")

    network = _network_from_mapping(network_doc, merged)

    config = RunConfig(network=network, provided=frozenset(provided))
    for name in ("experiment", "kind", "out", "format"):
        if name in merged:
            setattr(config, name, str(merged[name]))
    for name in ("seed", "trials", "cutoff"):
        if name in merged:
            try:
                setattr(config, name, int(merged[name]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name} must be an integer") from exc
    if "g_prime" in merged:
        config.g_prime = int(merged["g_prime"])
    if "dump_state" in merged:
        config.dump_state = str(merged["dump_state"])
    if "r_values" in merged:
        config.r_grid = merged["r_values"]
    if "db_values" in merged:
        config.db_grid = merged["db_values"]
    if "alphas" in merged:
        config.alphas = merged["alphas"]

    if config.experiment == "scan-bipartitions":
        if isinstance(config.network, ChainSpec) and "r" in provided and len(config.r_grid) != 1:
            raise ConfigError("scan-bipartitions takes a single --r value")
        if isinstance(config.network, GraphSpec) and "db" in provided and len(config.db_grid) != 1:
            raise ConfigError("scan-bipartitions takes a single --db value")

    _validate(config)
    return config


# ---------------------------------------------------------------------------
# experiments


def _build_network(spec) -> GaussianState:
    return build_chain(spec) if isinstance(spec, ChainSpec) else build_graph(spec)


def _neighbour_mode(m: int, g: int, g_prime: int | None) -> int:
    if g_prime is None:
        g_prime = g + 1 if g + 1 < m else g - 1
    if not 0 <= g_prime < m or g_prime == g:
        raise ConfigError(f"g_prime {g_prime} must be a mode different from g={g}")
    return g_prime


def _entanglement_row(state, modes, g, kind) -> dict:
    e_before = renyi2_entanglement_pure(state, modes)
    delta = entanglement_increase(state, modes, g, kind)
    return {"e_before": e_before, "e_after": e_before + delta, "delta_e": delta}


def sweep_squeezing(config: RunConfig) -> list[dict]:
    """Entanglement increase of the g and g-prime single-mode partitions over a squeezing grid.

    Returns one row per (grid value, displacement, partition); rows where the
    network is vacuum carry an error tag instead of numbers.
    """
    spec = config.network
    is_chain = isinstance(spec, ChainSpec)
    values = config.r_grid if is_chain else config.db_grid
    rows = []
    for value in values:
        for alpha in config.alphas:
            if is_chain:
                net = dataclasses.replace(spec, r=float(value), alpha_g=alpha)
            else:
                net = dataclasses.replace(spec, squeezing_db=float(value), alpha_g=alpha)
            state = _build_network(net)
            g = net.resolved_g
            g_prime = _neighbour_mode(net.m, g, config.g_prime)
            for label, modes in (("g", (g,)), ("g_prime", (g_prime,))):
                row = {"r": float(value), "alpha_g": alpha, "partition": label}
                try:
                    row.update(_entanglement_row(state, modes, g, config.kind))
                except (VacuumModeSubtraction, ZeroNorm) as err:
                    row.update(e_before=None, e_after=None, delta_e=None,
                               error=type(err).__name__)
                rows.append(row)
    rows.sort(key=lambda r: (r["r"], r["alpha_g"].real, r["alpha_g"].imag, r["partition"]))
    return rows


def scan_bipartitions(config: RunConfig) -> list[dict]:
    """Entanglement increase for every bipartition whose subsystem contains mode g.

    Rows are keyed by the decimal bitmask of the subsystem (bit i set means
    mode i belongs to it) and sorted by mask; there are ``2**(m-1)`` rows.
    """
    spec = config.network
    m = spec.m
    if m > SCAN_MODE_LIMIT:
        raise TooManyModes(f"bipartition scan enumerates 2^(m-1) subsets; m={m} exceeds {SCAN_MODE_LIMIT}")
    state = _build_network(spec)
    g = spec.resolved_g
    others = [i for i in range(m) if i != g]
    subsets = [
        [g] + [others[i] for i in range(m - 1) if (bits >> i) & 1] for bits in range(2 ** (m - 1))
    ]
    rows = [{"mask": sum(1 << mode for mode in modes), "m_a": len(modes)} for modes in subsets]
    try:
        e_before, delta = entanglement_increase_many(state, subsets, g, config.kind)
    except VacuumModeSubtraction as err:
        for row in rows:
            row.update(e_before=None, e_after=None, delta_e=None, error=type(err).__name__)
    else:
        for row, before, de in zip(rows, e_before.tolist(), delta.tolist()):
            row.update(e_before=before, e_after=before + de, delta_e=de)
    rows.sort(key=lambda r: r["mask"])
    return rows


def verify_bounds(config: RunConfig) -> dict:
    """Randomised check of the factor-two purity bound on mixed reduced states.

    Draws ``trials`` random thermal decompositions (up to five modes,
    occupations in [1, 10], log-squeezing up to 2, displacement amplitude up
    to 2) and evaluates the closed-form relative purity for the configured
    operation kind.
    """
    rng = np.random.default_rng(config.seed)
    min_ratio = math.inf
    violations = 0
    for _ in range(config.trials):
        m = int(rng.integers(1, 6))
        nu = np.sort(rng.uniform(1.0, 10.0, m))[::-1]
        s_mat = random_symplectic(m, rng, squeeze_bound=2.0)
        g = int(rng.integers(m))
        radius = 2.0 * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        alpha = radius * complex(math.cos(angle), math.sin(angle))
        mean = np.zeros(2 * m)
        mean[g] = 2.0 * alpha.real
        mean[m + g] = 2.0 * alpha.imag
        decomp = WilliamsonDecomposition(S=s_mat, nu=nu, mean=mean)
        row = bogoliubov_row(decomp, g)
        ratio = relative_purity_closed_form(decomp, row, config.kind)
        min_ratio = min(min_ratio, ratio)
        if ratio < 0.5 - 1e-12:
            violations += 1
    return {
        "trials": config.trials,
        "min_ratio": min_ratio,
        "max_delta_e": -math.log(min_ratio),
        "violations": violations,
        "seed": config.seed,
        "kind": config.kind,
    }


def _rel_err(value: float, reference: float, floor: float = 1e-6) -> float:
    # below the floor the comparison is absolute; avoids 0/0 on tiny references
    return abs(value - reference) / max(abs(reference), floor)


def _mode_mean_photon(state: GaussianState, mode: int) -> float:
    m = state.m
    quad = state.cov[mode, mode] + state.cov[m + mode, m + mode] - 2.0
    disp = state.mean[mode] ** 2 + state.mean[m + mode] ** 2
    return (quad + disp) / 4.0


def _proper_subsets(m: int):
    for bits in range(1, 2 ** m - 1):
        yield tuple(i for i in range(m) if (bits >> i) & 1)


def _chain_fock_state(spec: ChainSpec, cutoff: int | None):
    """Chain state in the Fock oracle; escalates an auto-chosen cutoff until the
    leakage stays below the oracle tolerance. A caller-pinned cutoff fails loud."""
    if cutoff is not None:
        candidates = [cutoff]
    else:
        gauss = _build_network(spec)
        nbar = max(_mode_mean_photon(gauss, i) for i in range(spec.m))
        base = suggested_cutoff(nbar)
        candidates = [base, math.ceil(1.5 * base), 2 * base]
    for i, d in enumerate(candidates):
        try:
            fock = vacuum_fock(spec.m, d, leak_tol=ORACLE_LEAK_TOL)
            for elem in chain_elements(spec):
                fock = apply_gate_fock(fock, elem)
            return fock
        except CutoffTooSmall:
            if i == len(candidates) - 1:
                raise
    raise AssertionError("unreachable")


def _oracle_grid_case(m: int, r: float, alpha: complex, kind: str, cutoff: int | None):
    """Compare analytic purity, relative purity and delta-E against the Fock oracle."""
    spec = ChainSpec(m=m, r=r, alpha_g=alpha)
    gauss = _build_network(spec)
    g = spec.resolved_g
    fock = _chain_fock_state(spec, cutoff)
    altered = annihilate(fock, g) if kind == "subtract" else create(fock, g)

    errors = []
    for part in _proper_subsets(m):
        rho_before = reduce_density(fock, part)
        rho_after = reduce_density(altered, part)
        mu_before_oracle = purity_fock(rho_before)
        mu_after_oracle = purity_fock(rho_after)

        mu_before = purity(reduce_state(gauss, part))
        errors.append(_rel_err(mu_before, mu_before_oracle))

        delta = entanglement_increase(gauss, part, g, kind)
        delta_oracle = renyi2_fock(rho_after) - renyi2_fock(rho_before)
        errors.append(_rel_err(delta, delta_oracle))

        if g in part:
            decomp = williamson(reduce_state(gauss, part))
            row = bogoliubov_row(decomp, part.index(g))
            ratio = relative_purity_closed_form(decomp, row, kind)
            errors.append(_rel_err(ratio, mu_after_oracle / mu_before_oracle))
    return max(errors), fock.leakage


def oracle_check(config: RunConfig) -> dict:
    """Cross-validate the analytic machinery against the brute-force Fock oracle.

    Three blocks: the chain grid (purity, relative purity, entanglement
    increase versus the oracle), the eight thermal trace identities, and the
    agreement of the two analytic relative-purity routes, for the configured
    kind, on random pure global states.
    """
    modes = (config.network.m,) if "modes" in config.provided else ORACLE_MODES
    if max(modes) > 3:
        raise ConfigError("oracle-check supports at most 3 modes")
    r_values = config.r_grid if "r" in config.provided else ORACLE_R_VALUES
    alphas = config.alphas if "alpha" in config.provided else DEFAULT_ALPHAS

    failures = []
    grid_err = 0.0
    cases = 0
    for m in sorted(modes):
        for r in r_values:
            for alpha in alphas:
                cases += 1
                try:
                    err, leak = _oracle_grid_case(m, r, alpha, config.kind, config.cutoff)
                    grid_err = max(grid_err, err)
                except (CutoffTooSmall, ZeroNorm, VacuumModeSubtraction) as exc:
                    failures.append(
                        {"m": m, "r": float(r), "alpha": _format_complex(alpha),
                         "error": type(exc).__name__}
                    )
    grid_pass = not failures and grid_err <= ORACLE_GRID_TOL

    trace_err = 0.0
    for n in (1.5, 2.0, 5.0):
        nbar = (n - 1.0) / 2.0
        cutoff = max(60, math.ceil(40 * nbar))
        rho = thermal_density(n, cutoff).data.real
        a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
        ad = a.T
        sub, add = a @ rho @ ad, ad @ rho @ a
        oracle = (
            np.trace(sub), np.trace(add),
            np.trace(sub @ sub), np.trace(add @ add), np.trace(add @ sub),
            np.trace(rho @ rho @ ad @ a), np.trace(rho @ rho @ a @ ad),
            np.trace(rho @ ad @ rho @ a),
        )
        t = thermal_traces(n)
        closed = (t.a_rho_adag, t.adag_rho_a, t.a_rho_adag_sq, t.adag_rho_a_sq,
                  t.adag_rho_a_a_rho_adag, t.rho2_adag_a, t.rho2_a_adag, t.rho_adag_rho_a)
        trace_err = max(trace_err, max(_rel_err(c, float(o)) for c, o in zip(closed, oracle)))
    trace_pass = trace_err <= ORACLE_TRACE_TOL

    rng = np.random.default_rng(config.seed)
    two_path_trials = min(config.trials, 1000)
    two_path_err = 0.0
    for _ in range(two_path_trials):
        m = int(rng.integers(2, 6))
        s_mat = random_symplectic(m, rng, squeeze_bound=1.5)
        g = int(rng.integers(m))
        mean = np.zeros(2 * m)
        mean[g] = rng.normal()
        mean[m + g] = rng.normal()
        state = GaussianState(m=m, mean=mean, cov=s_mat @ s_mat.T)
        extra = [i for i in range(m) if i != g]
        rng.shuffle(extra)
        part = tuple(sorted([g] + extra[: int(rng.integers(0, m))]))
        try:
            sub = photon_reduced_wigner(state, g, part, config.kind)
        except VacuumModeSubtraction:
            continue
        wigner_ratio = relative_purity_of_subtracted(sub)
        decomp = williamson(reduce_state(state, part))
        row = bogoliubov_row(decomp, part.index(g))
        closed_ratio = relative_purity_closed_form(decomp, row, config.kind)
        two_path_err = max(two_path_err, abs(wigner_ratio - closed_ratio) / closed_ratio)
    two_path_pass = two_path_err <= ORACLE_TWO_PATH_TOL

    return {
        "grid": {
            "cases": cases,
            "max_rel_err": grid_err,
            "tolerance": ORACLE_GRID_TOL,
            "failures": failures,
            "pass": grid_pass,
        },
        "thermal_traces": {
            "max_rel_err": trace_err,
            "tolerance": ORACLE_TRACE_TOL,
            "pass": trace_pass,
        },
        "two_path": {
            "trials": two_path_trials,
            "max_rel_err": two_path_err,
            "tolerance": ORACLE_TWO_PATH_TOL,
            "pass": two_path_pass,
        },
        "kind": config.kind,
        "seed": config.seed,
        "pass": grid_pass and trace_pass and two_path_pass,
    }


# ---------------------------------------------------------------------------
# output rendering


def _format_float(x: float) -> str:
    return f"{x + 0.0:.12g}"  # +0.0 folds negative zero


def _format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _format_float(z.real)
    return f"{_format_float(z.real)}{z.imag:+.12g}j"


def _round12(value):
    if isinstance(value, float):
        return float(f"{value + 0.0:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _check_delta_cap(rows):
    for row in rows:
        delta = row.get("delta_e")
        if delta is not None and delta > DELTA_E_CAP:
            raise BoundViolation(
                f"delta_e {delta} exceeds the log 2 cap in row {row}"
            )


def render_table(rows: list[dict], header: tuple[str, ...], fmt: str) -> str:
    """Serialise experiment rows; asserts the log 2 cap on every numeric row."""
    _check_delta_cap(rows)
    if fmt == "json":
        payload = []
        for row in rows:
            doc = {}
            for key in header:
                value = row[key]
                if key == "alpha_g":
                    doc[key] = _format_complex(value)
                else:
                    doc[key] = _round12(value)
            if row.get("error"):
                doc["error"] = row["error"]
            payload.append(doc)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            value = row[key]
            if value is None:
                # null row: numeric cells empty, the error tag lands in delta_e
                cells.append(row.get("error", "") if key == "delta_e" else "")
            elif key == "alpha_g":
                cells.append(_format_complex(value))
            elif isinstance(value, float):
                cells.append(_format_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_summary(summary: dict) -> str:
    return json.dumps(_round12(summary), indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# entry point


def _dispatch(config: RunConfig) -> int:
    if config.dump_state:
        snapshot = to_snapshot(_build_network(config.network))
        with open(config.dump_state, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if config.experiment == "sweep-squeezing":
        rows = sweep_squeezing(config)
        _emit(render_table(rows, SWEEP_HEADER, config.format), config.out)
        return EXIT_OK
    if config.experiment == "scan-bipartitions":
        rows = scan_bipartitions(config)
        _emit(render_table(rows, SCAN_HEADER, config.format), config.out)
        return EXIT_OK
    if config.experiment == "verify-bounds":
        summary = verify_bounds(config)
        _emit(render_summary(summary), config.out)
        return EXIT_OK if summary["violations"] == 0 else EXIT_VIOLATION
    summary = oracle_check(config)
    _emit(render_summary(summary), config.out)
    return EXIT_OK if summary["pass"] else EXIT_VIOLATION


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    try:
        config = build_config(argv)
    except SystemExit as exc:  # argparse handled --help or bad flags
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_CONFIG
    except (ConfigError, TooManyModes) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _dispatch(config)
    except (ConfigError, TooManyModes) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (NumericalFailure, CutoffTooSmall, SingularCovariance, ZeroNorm) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CVDistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run():
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
