"""Command-line experiment runner.

Reproduces the squeezing sweeps, bipartition scans, randomized bound checks
and analytic-versus-Fock-oracle cross validation as deterministic CSV/JSON
data files.

Exit codes: 0 success, 1 bound violation or failed verification, 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

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
    reduced_purity,
    suggested_cutoff,
    thermal_density,
    vacuum_fock,
)
from .networks import ChainSpec, GraphSpec, build_chain, build_graph, chain_elements, grid_adjacency
from .photon import (
    BATCH_CHUNK,
    LOG_2,
    cut_masks,
    entanglement_increase,
    entanglement_increase_cuts,
    photon_weight,
    relative_purity_many,
    relative_purity_wigner_many,
    thermal_traces,
)
from .states import (
    GaussianState,
    ladder_blocks,
    purities_from_logdet,
    quad_indices,
    renyi2_entanglement_pure,
    require_pure,
    to_snapshot,
    williamson_many,
)
from .symplectic import euler_symplectic, random_symplectic_parameters

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
# the columns a row with an error tag leaves null
VALUE_KEYS = ("e_before", "e_after", "delta_e")
# rows per formatting and write pass of render_table; bounds the text held at once
RENDER_CHUNK = 1 << 14

# the network of the reference figure; as the RunConfig default it also marks
# "no network given", which lets oracle-check run its own m grid
REFERENCE_CHAIN = ChainSpec(m=10, r=1.0, alpha_g=0.5)


@dataclass
class RunConfig:
    """Fully resolved experiment configuration.

    ``r_grid``, ``db_grid`` and ``alphas`` at ``None`` take the experiment's
    default: the full grids in a sweep, the oracle's own grid, the network's
    own values in a scan. A scan takes at most one value of each, in place of
    the network's. ``network`` at ``REFERENCE_CHAIN`` lets ``oracle-check``
    run its m in {2, 3} grid; any other network fixes the oracle's mode count.
    """

    experiment: str = "sweep-squeezing"
    network: ChainSpec | GraphSpec = REFERENCE_CHAIN
    kind: str = "subtract"
    r_grid: tuple[float, ...] | None = None
    db_grid: tuple[float, ...] | None = None
    alphas: tuple[complex, ...] | None = None
    g_prime: int | None = None
    seed: int = 20210409
    trials: int = 10000
    out: str | None = None
    format: str = "csv"
    cutoff: int | None = None
    dump_state: str | None = None


# ---------------------------------------------------------------------------
# configuration assembly


def _one_of(choices: tuple[str, ...]):
    def parse(value) -> str:
        if value not in choices:
            raise ValueError(f"choose from {', '.join(choices)}")
        return value
    return parse


def _complex(value) -> complex:
    return complex(value.replace(" ", "")) if isinstance(value, str) else complex(value)


def _split(value) -> list:
    # "a,b" (flag or file) and [a, b] (file) name the same values
    if isinstance(value, str):
        return [p for p in value.split(",") if p.strip()]
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _floats(value) -> tuple[float, ...]:
    return tuple(float(p) for p in _split(value))


def _complexes(value) -> tuple[complex, ...]:
    return tuple(_complex(p) for p in _split(value))


def _integer(value) -> int:
    # an integral JSON number, or a digit string from a flag or CVD_SEED
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def _matrix(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


# Every config key once: name -> (parser, flag, flag help). Top-level file
# keys are the RunConfig field names; the file's "network" object takes
# NETWORK_KEYS. A flag writes only its own key, so the file, CVD_SEED and the
# flags merge key by key and a flag always wins.
CONFIG_KEYS = {
    "experiment": (_one_of(EXPERIMENTS), "--experiment", " | ".join(EXPERIMENTS)),
    "kind": (_one_of(("subtract", "add")), "--kind", "subtract | add"),
    "r_grid": (_floats, "--r", "comma-separated chain squeezing value(s)"),
    "db_grid": (_floats, "--db", "comma-separated graph squeezing value(s) in dB"),
    "alphas": (_complexes, "--alpha", "comma-separated complex displacement amplitude(s)"),
    "g_prime": (_integer, "--g-prime", "reference neighbour mode for sweeps"),
    "seed": (_integer, "--seed", "random seed (environment: CVD_SEED)"),
    "trials": (_integer, "--trials", "random trials"),
    "out": (str, "--out", "output path (default: stdout)"),
    "format": (_one_of(("csv", "json")), "--format", "csv | json"),
    "cutoff": (_integer, "--cutoff", "per-mode Fock cutoff override for the oracle"),
    "dump_state": (str, "--dump-state", "write the built network state as a JSON snapshot"),
}
NETWORK_KEYS = {
    "type": (_one_of(("chain", "graph")), "--network", "chain | graph"),
    "modes": (_integer, "--modes", "mode count (graph: perfect square)"),
    "rows": (_integer, None, None),
    "cols": (_integer, None, None),
    "adjacency": (_matrix, None, None),
    "r": (float, None, None),
    "db": (float, None, None),
    "alpha": (_complex, None, None),
    "g": (_integer, "--g", "mode the photon is subtracted from / added to"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cvdistill",
        description="Gaussian network experiments: photon subtraction/addition and "
        "Renyi-2 entanglement bounds.",
    )
    p.add_argument("config", nargs="?", help="JSON configuration file")
    for prefix, table in (("", CONFIG_KEYS), ("network.", NETWORK_KEYS)):
        for key, (_, flag, help_text) in table.items():
            if flag:
                p.add_argument(flag, dest=prefix + key, help=help_text)
    return p


def _parse_keys(doc: dict, table: dict, where: str) -> dict:
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    parsed = {}
    for key, value in doc.items():
        if value is None:  # JSON null leaves the key at its default
            continue
        try:
            parsed[key] = table[key][0](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {where} value {value!r} for {key}: {exc}") from exc
    return parsed


def _graph_adjacency(doc: dict) -> np.ndarray:
    if "adjacency" in doc:
        return doc["adjacency"]
    if "rows" in doc or "cols" in doc:
        return grid_adjacency(doc.get("rows", 3), doc.get("cols", 3))
    m = doc.get("modes", 9)
    side = math.isqrt(m)
    if side * side != m:
        raise ValueError(f"graph mode count {m} is not a perfect square; give rows/cols or adjacency")
    return grid_adjacency(side, side)


def _network_from_mapping(doc: dict) -> ChainSpec | GraphSpec:
    g, alpha = doc.get("g"), doc.get("alpha", 0.5)
    bad = [key for key in ("r", "db", "alpha") if not np.isfinite(doc.get(key, 0.0))]
    if bad:
        raise ConfigError(f"network {', '.join(bad)} must be finite")
    try:
        if doc.get("type", "chain") == "chain":
            spec = ChainSpec(m=doc.get("modes", 10), r=doc.get("r", 1.0), g=g, alpha_g=alpha)
        else:
            spec = GraphSpec(adjacency=_graph_adjacency(doc), squeezing_db=doc.get("db", 10.0),
                             g=g, alpha_g=alpha)
    except ValueError as exc:  # mode count, squeezing sign or adjacency rejected by the spec
        raise ConfigError(str(exc)) from exc
    if not 0 <= spec.resolved_g < spec.m:
        raise ConfigError(f"mode {spec.resolved_g} outside [0, {spec.m})")
    return spec


def _validate(config: RunConfig):
    if config.trials < 1:
        raise ConfigError("trials must be at least 1")
    if config.seed < 0:
        raise ConfigError("seed must be nonnegative")
    for name in ("r_grid", "db_grid", "alphas"):
        values = getattr(config, name)
        if values == ():
            raise ConfigError(f"{name} must not be empty")
        if values and not np.all(np.isfinite(values)):
            raise ConfigError(f"{name} must be finite")
        if name != "alphas" and values and any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{name} must be strictly increasing")
    if config.db_grid and config.db_grid[0] < 0:
        raise ConfigError("db_grid must be nonnegative")
    if config.cutoff is not None and config.cutoff < 2:
        raise ConfigError("cutoff must be at least 2")
    grid = config.r_grid if isinstance(config.network, ChainSpec) else config.db_grid
    if config.experiment == "scan-bipartitions" and any(
        values is not None and len(values) != 1 for values in (grid, config.alphas)
    ):
        raise ConfigError("scan-bipartitions takes a single r or db value and a single alpha")


def _assemble(argv) -> tuple[RunConfig, set[str]]:
    # the config, and the keys given in the file or by a flag ("network.*" for network keys)
    args = vars(_parser().parse_args(argv))
    path = args.pop("config")
    doc: dict = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a single JSON object")
    network = doc.pop("network", {})
    if not isinstance(network, dict):
        raise ConfigError("network must be a JSON object")
    given = {key for key, value in doc.items() if value is not None}
    given |= {f"network.{key}" for key, value in network.items() if value is not None}

    env_seed = os.environ.get("CVD_SEED")
    if env_seed is not None:
        doc["seed"] = env_seed
    for dest, value in args.items():
        if value is not None:
            given.add(dest)
            section, _, key = dest.rpartition(".")
            (network if section else doc)[key] = value

    fields = _parse_keys(doc, CONFIG_KEYS, "config")
    if network:
        fields["network"] = _network_from_mapping(_parse_keys(network, NETWORK_KEYS, "network"))
    config = RunConfig(**fields)
    _validate(config)
    return config, given


def build_config(argv=None) -> RunConfig:
    """Assemble a :class:`RunConfig` from defaults, config file, CVD_SEED and flags, in that order."""
    return _assemble(argv)[0]


def _single(values) -> bool:
    return values is not None and len(values) == 1


def _unread_keys(config: RunConfig, given) -> list[str]:
    # the keys of `given` that the chosen experiment, or the state dump, does not read
    chain = isinstance(config.network, ChainSpec)
    grid = "r_grid" if chain else "db_grid"
    if chain:
        shape = {"network.type", "network.modes"}
    else:  # as _graph_adjacency: adjacency, else rows and cols, else modes
        shape = {"network.type", "network.adjacency"}
        if "network.adjacency" not in given:
            shape |= {"network.rows", "network.cols"}
            if not given & {"network.rows", "network.cols"}:
                shape.add("network.modes")
    # what _network(config) reads: a single grid value or alpha replaces the network's own
    built = shape | {"network.g"}
    built.add(grid if _single(getattr(config, grid)) else "network.r" if chain else "network.db")
    built.add("alphas" if _single(config.alphas) else "network.alpha")

    reads = {"experiment", "kind", "out", "dump_state"} | {
        "sweep-squeezing": {grid, "alphas", "g_prime", "format", "network.g"} | shape,
        "scan-bipartitions": {"format"} | built,
        "verify-bounds": {"seed", "trials"},
        "oracle-check": {"r_grid", "alphas", "seed", "trials", "cutoff"} | shape,
    }[config.experiment]
    if config.dump_state:
        reads |= built
    return sorted(set(given) - reads)


def _key_label(key: str) -> str:
    section, _, name = key.rpartition(".")
    flag = (NETWORK_KEYS if section else CONFIG_KEYS)[name][1]
    return f"{key} ({flag})" if flag else key


# ---------------------------------------------------------------------------
# experiments


def _build_network(spec) -> GaussianState:
    return build_chain(spec) if isinstance(spec, ChainSpec) else build_graph(spec)


def _network(config: RunConfig) -> ChainSpec | GraphSpec:
    """``config.network`` with a single-valued r or dB grid and alpha list applied."""
    spec = config.network
    is_chain = isinstance(spec, ChainSpec)
    grid = config.r_grid if is_chain else config.db_grid
    changes = {}
    if _single(grid):
        changes["r" if is_chain else "squeezing_db"] = grid[0]
    if _single(config.alphas):
        changes["alpha_g"] = config.alphas[0]
    return dataclasses.replace(spec, **changes)


def _neighbour_mode(m: int, g: int, g_prime: int | None) -> int:
    if g_prime is None:
        g_prime = g + 1 if g + 1 < m else g - 1
    if not 0 <= g_prime < m or g_prime == g:
        raise ConfigError(f"g_prime {g_prime} must be a mode different from g={g}")
    return g_prime


def sweep_squeezing(config: RunConfig) -> dict:
    """Entanglement increase of the g and g-prime single-mode partitions over a squeezing grid.

    Returns the table as columns keyed by ``SWEEP_HEADER`` plus ``error``
    (see :func:`render_table`): one row per (grid value, displacement,
    partition); rows where the network is vacuum carry an error tag instead
    of numbers.
    """
    spec = config.network
    is_chain = isinstance(spec, ChainSpec)
    values = (config.r_grid or DEFAULT_R_GRID) if is_chain else (config.db_grid or DEFAULT_DB_GRID)
    rows = []
    for value in values:
        for alpha in config.alphas or DEFAULT_ALPHAS:
            if is_chain:
                net = dataclasses.replace(spec, r=float(value), alpha_g=alpha)
            else:
                net = dataclasses.replace(spec, squeezing_db=float(value), alpha_g=alpha)
            state = _build_network(net)
            g = net.resolved_g
            g_prime = _neighbour_mode(net.m, g, config.g_prime)
            for label, modes in (("g", (g,)), ("g_prime", (g_prime,))):
                try:
                    e_before = renyi2_entanglement_pure(state, modes)
                    numbers = (e_before, entanglement_increase(state, modes, g, config.kind), None)
                except VacuumModeSubtraction as err:
                    numbers = (math.nan, math.nan, type(err).__name__)
                rows.append((float(value), alpha, label, *numbers))
    rows.sort(key=lambda row: (row[0], row[1].real, row[1].imag, row[2]))
    r, alpha_g, partition, e_before, delta, error = zip(*rows)
    e_before, delta = np.array(e_before), np.array(delta)
    return {"r": np.array(r), "alpha_g": np.array(alpha_g, dtype=complex), "partition": list(partition),
            "e_before": e_before, "e_after": e_before + delta, "delta_e": delta, "error": list(error)}


def scan_bipartitions(config: RunConfig) -> dict:
    """Entanglement increase for every bipartition whose subsystem contains mode g.

    Returns the table as columns keyed by ``SCAN_HEADER`` (see
    :func:`render_table`): ``mask``, the decimal bitmask of the subsystem
    (bit i set means mode i belongs to it), in ascending order; ``m_a``, its
    mode count; and the arrays of :func:`entanglement_increase_cuts`, with
    ``e_after = e_before + delta_e``. There are ``2**(m-1)`` rows. A mixed
    state fails before any subset is enumerated; a vacuum mode g gives NaN
    values and an ``error`` column that tags every row, which is otherwise
    ``None``.
    """
    spec = _network(config)
    m, g = spec.m, spec.resolved_g
    if m > SCAN_MODE_LIMIT:
        raise TooManyModes(f"bipartition scan enumerates 2^(m-1) subsets; m={m} exceeds {SCAN_MODE_LIMIT}")
    try:
        e_before, delta = entanglement_increase_cuts(_build_network(spec), g, config.kind)
        error = None
    except VacuumModeSubtraction as err:
        e_before = delta = np.full(2 ** (m - 1), np.nan)
        error = [type(err).__name__] * len(delta)
    masks = cut_masks(m, g)
    return {"mask": masks, "m_a": np.bitwise_count(masks), "e_before": e_before,
            "e_after": e_before + delta, "delta_e": delta, "error": error}


def _draw_bounds_trial(rng: np.random.Generator):
    # one verify-bounds trial's raw draws, keyed by its mode count; the draw
    # order fixes the summary of a seed, so it must not change
    m = int(rng.integers(1, 6))
    u_nu = rng.random(m)
    parts, u_squeeze = random_symplectic_parameters(m, rng)
    return m, (u_nu, parts, u_squeeze, int(rng.integers(m)), rng.random(2))


def _draw_groups(seed: int, trials: int, draw, chunk: int = BATCH_CHUNK):
    # Draws the trials one at a time from one generator, in order, then yields
    # each `chunk` of them grouped by the key draw returns, as
    # (key, positions, *columns); groups are popped, so each group's draws
    # are freed once it is evaluated.
    rng = np.random.default_rng(seed)
    for start in range(0, trials, chunk):
        groups: dict = {}
        for pos in range(start, min(start + chunk, trials)):
            key, values = draw(rng)
            groups.setdefault(key, []).append((pos, *values))
        while groups:
            key, group = groups.popitem()
            yield key, *(np.array(col) for col in zip(*group))


def bounds_ratios(seed: int, trials: int, kind: str) -> np.ndarray:
    """Closed-form relative purities of the ``trials`` random states of :func:`verify_bounds`, in draw order."""
    ratios = np.empty(trials)
    for _, pos, u_nu, parts, u_squeeze, g, u_alpha in _draw_groups(seed, trials, _draw_bounds_trial):
        # numpy's own uniform(low, high) arithmetic, stacked; math.cos, as np.cos varies by CPU
        nu = np.sort(1.0 + 9.0 * u_nu, axis=1)[:, ::-1]
        phase = [complex(math.cos(a), math.sin(a)) for a in (2.0 * math.pi * u_alpha[:, 1]).tolist()]
        alpha = 2.0 * np.sqrt(u_alpha[:, 0]) * np.array(phase)
        k_mat, l_mat = ladder_blocks(euler_symplectic(parts, u_squeeze, 2.0))
        rows = np.arange(len(pos))
        ratios[pos] = relative_purity_many(nu, k_mat[rows, g], l_mat[rows, g], alpha, kind)
    return ratios


def verify_bounds(config: RunConfig) -> dict:
    """Randomised check of the factor-two purity bound on mixed reduced states.

    Draws ``trials`` random thermal decompositions (up to five modes,
    occupations in [1, 10], log-squeezing up to 2, displacement amplitude up
    to 2) and evaluates the closed-form relative purity for the configured
    operation kind. The draws come one trial at a time from one generator,
    in a fixed order, as bare generator calls, so a seed fixes the summary.
    Every ``BATCH_CHUNK`` trials, the chunk is grouped by mode count and
    each group is evaluated in stacked NumPy: the draws are sorted and
    scaled, one QR serves both Haar factors, one matmul gives the matrices.
    """
    ratios = bounds_ratios(config.seed, config.trials, config.kind)
    min_ratio = float(ratios.min())
    return {
        "trials": config.trials,
        "min_ratio": min_ratio,
        "max_delta_e": -math.log(min_ratio),
        "violations": int(np.count_nonzero(ratios < 0.5 - 1e-12)),
        "seed": config.seed,
        "kind": config.kind,
    }


def _rel_err(value: float, reference: float, floor: float = 1e-6) -> float:
    # below the floor the comparison is absolute; avoids 0/0 on tiny references
    return abs(value - reference) / max(abs(reference), floor)


def _chain_fock_state(spec: ChainSpec, kind: str, cutoff: int | None, gauss: GaussianState):
    """Chain state in the Fock oracle and its photon-altered copy at mode g.

    An auto-chosen cutoff, set from the photon numbers of ``gauss``, the
    chain's Gaussian state, escalates until the gates and the ladder
    operation together leak less than the oracle tolerance; a caller-pinned
    cutoff fails loud.
    """
    if cutoff is not None:
        candidates = [cutoff]
    else:
        # np.max, unlike max, keeps a NaN weight whatever its position
        nbar = float(np.max([photon_weight(gauss, i, "subtract") for i in range(spec.m)])) / 4.0
        if not math.isfinite(nbar):  # the Gaussian covariance overflows: no cutoff holds it
            raise CutoffTooSmall(f"mean photon number {nbar} is not finite")
        base = suggested_cutoff(nbar)
        candidates = [base, math.ceil(1.5 * base), 2 * base]
    ladder = annihilate if kind == "subtract" else create
    for i, d in enumerate(candidates):
        try:
            fock = vacuum_fock(spec.m, d, leak_tol=ORACLE_LEAK_TOL)
            for elem in chain_elements(spec):
                fock = apply_gate_fock(fock, elem)
            return fock, ladder(fock, spec.resolved_g)
        except CutoffTooSmall:
            if i == len(candidates) - 1:
                raise
    raise AssertionError("unreachable")


def _oracle_grid_case(m: int, r: float, alpha: complex, kind: str, cutoff: int | None) -> float:
    """Largest relative gap of analytic purity, relative purity and delta-E from the Fock oracle.

    Every proper subset ``P`` of the ``m`` modes gives a purity gap and a
    delta-E gap, and a ``P`` that holds g a closed-form gap too. The analytic
    side runs stacked by size: one ``slogdet`` for the purities and, for the
    ``P`` that hold g, one ``relative_purity_wigner_many`` for delta-E (a
    ``P`` without g takes its complement's) and one ``williamson_many`` for
    the closed form. The Fock purities come once per smaller side, the Gram
    matrix that :func:`~cvdistill.fock.reduced_purity` forms for ``P`` and
    its complement alike.
    """
    spec = ChainSpec(m=m, r=r, alpha_g=alpha)
    gauss = _build_network(spec)
    g = spec.resolved_g
    fock, altered = _chain_fock_state(spec, kind, cutoff, gauss)
    require_pure(gauss)

    def blocks(parts):  # the reduced covariances of equal-size parts, stacked
        idx = quad_indices(parts, m)
        return gauss.cov[idx[:, :, None], idx[:, None, :]]

    parts = [tuple(i for i in range(m) if bits >> i & 1) for bits in range(1, 2 ** m - 1)]
    alpha_g = 0.5 * (gauss.mean[g] + 1j * gauss.mean[m + g])
    mu, delta, ratio = {}, {}, {}
    for size in range(1, m):
        sized = [part for part in parts if len(part) == size]
        mu.update(zip(sized, purities_from_logdet(*np.linalg.slogdet(blocks(sized))).tolist()))
        held = [part for part in sized if g in part]
        n = len(held)
        wigner = relative_purity_wigner_many(
            np.broadcast_to(gauss.cov, (n, 2 * m, 2 * m)), np.broadcast_to(gauss.mean, (n, 2 * m)),
            np.full(n, g), np.array(held), kind)
        if np.isnan(wigner).any():
            raise VacuumModeSubtraction(f"mode {g} is vacuum; photon {kind} undefined")
        delta.update(zip(held, (-np.log(wigner)).tolist()))
        s_mat, nu = williamson_many(blocks(held))
        k_mat, l_mat = ladder_blocks(s_mat)
        rows, at = np.arange(n), [part.index(g) for part in held]
        ratio.update(zip(held, relative_purity_many(
            nu, k_mat[rows, at], l_mat[rows, at], np.full(n, alpha_g), kind).tolist()))

    oracle, errors = {}, []
    for part in parts:
        rest = tuple(i for i in range(m) if i not in part)
        side = part if len(part) <= len(rest) else rest  # the side whose Gram matrix reduced_purity forms
        if side not in oracle:
            oracle[side] = reduced_purity(fock, side), reduced_purity(altered, side)
        before, after = oracle[side]
        errors.append(_rel_err(mu[part], before))
        delta_oracle = float(-np.log(after)) - float(-np.log(before))
        errors.append(_rel_err(delta[part if g in part else rest], delta_oracle))
        if g in part:
            errors.append(_rel_err(ratio[part], after / before))
    return max(errors)


def _draw_two_path_trial(rng: np.random.Generator):
    # one two-path trial's raw draws, keyed by (m, |A|); the draw order fixes
    # the oracle-check summary of a seed, so it must not change
    m = int(rng.integers(2, 6))
    parts, u_squeeze = random_symplectic_parameters(m, rng)
    g = int(rng.integers(m))
    mean_g = rng.standard_normal(2)
    extra = [i for i in range(m) if i != g]
    rng.shuffle(extra)
    part = tuple(sorted([g] + extra[: int(rng.integers(0, m))]))
    return (m, len(part)), (parts, u_squeeze, g, mean_g, part)


def two_path_ratios(seed: int, trials: int, kinds) -> tuple[np.ndarray, np.ndarray]:
    """Wigner-moment and closed-form relative purities of the trials of :func:`two_path_error`.

    Returns two arrays of shape ``(len(kinds), trials)``, in draw order; a
    trial whose mode g is vacuum for a kind holds NaN in both. One stacked
    group per ``(m, |A|)`` key spans all trials.
    """
    wigner, closed = np.full((2, len(kinds), trials), np.nan)
    # one group per (m, |A|) over all trials; the chunk is a range step, so at least 1
    groups = _draw_groups(seed, trials, _draw_two_path_trial, chunk=max(trials, 1))
    for (m, _), pos, parts, u_squeeze, g, mean_g, part in groups:
        s_mat = euler_symplectic(parts, u_squeeze, 1.5)
        cov = s_mat @ np.swapaxes(s_mat, 1, 2)
        cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
        rows = np.arange(len(pos))
        mean = np.zeros((len(pos), 2 * m))
        mean[rows, g], mean[rows, m + g] = mean_g[:, 0], mean_g[:, 1]
        idx = quad_indices(part, m)
        s_a, nu = williamson_many(cov[rows[:, None, None], idx[:, :, None], idx[:, None, :]])
        k_mat, l_mat = ladder_blocks(s_a)
        g_pos = np.argmax(part == g[:, None], axis=1)
        k_row, l_row = k_mat[rows, g_pos], l_mat[rows, g_pos]
        alpha = 0.5 * (mean_g[:, 0] + 1j * mean_g[:, 1])
        for j, kind in enumerate(kinds):
            ratios = relative_purity_wigner_many(cov, mean, g, part, kind)
            keep = ~np.isnan(ratios)
            wigner[j, pos[keep]] = ratios[keep]
            closed[j, pos[keep]] = relative_purity_many(
                nu[keep], k_row[keep], l_row[keep], alpha[keep], kind)
    return wigner, closed


def two_path_error(seed: int, trials: int, kinds) -> float:
    """Largest relative gap between the Wigner-moment and closed-form relative purities.

    Each trial draws a random pure global state (2 to 5 modes, random mean
    on mode g) and one bipartition side holding g, then compares the two
    analytic routes for every kind in ``kinds``; a kind that finds mode g
    vacuum skips the trial. The draws come one trial at a time from one
    generator, in a fixed order, as in :func:`bounds_ratios`, as bare
    generator calls. All trials are then grouped by mode count and side
    size, at most 14 groups, and each group is evaluated in stacked NumPy:
    one ``euler_symplectic`` assembles the matrices from the raw draws, one
    :func:`~cvdistill.states.williamson_many` serves the closed form and one
    stacked solve the Wigner moments, per kind. The raw draws of all trials
    are held at once, so the memory grows with ``trials``.
    """
    wigner, closed = two_path_ratios(seed, trials, kinds)
    gaps = np.abs(wigner - closed) / closed
    return float(np.max(gaps, initial=0.0, where=~np.isnan(gaps)))


def oracle_check(config: RunConfig) -> dict:
    """Cross-validate the analytic machinery against the brute-force Fock oracle.

    Three blocks: the chain grid (purity, relative purity, entanglement
    increase versus the oracle; :func:`_oracle_grid_case`, each case's
    subsets stacked by size), the eight thermal trace identities, and the
    agreement of the two analytic relative-purity routes, for the configured
    kind, on up to 1000 random pure global states (:func:`two_path_error`,
    one stacked group per mode count and side size after a sequential draw
    loop). A grid case that fails with ``CutoffTooSmall``, ``ZeroNorm`` or
    ``VacuumModeSubtraction`` is listed under ``failures``.
    """
    modes = ORACLE_MODES if config.network is REFERENCE_CHAIN else (config.network.m,)
    if not set(modes) <= {2, 3}:
        raise ConfigError("oracle-check takes a network of 2 or 3 modes")

    failures = []
    grid_err = 0.0
    cases = 0
    for m in sorted(modes):
        for r in config.r_grid or ORACLE_R_VALUES:
            for alpha in config.alphas or DEFAULT_ALPHAS:
                cases += 1
                try:
                    err = _oracle_grid_case(m, r, alpha, config.kind, config.cutoff)
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
        rho = thermal_density(n, cutoff)
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

    two_path_trials = min(config.trials, 1000)
    two_path_err = two_path_error(config.seed, two_path_trials, (config.kind,))
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


# json.dumps spells the non-finite floats that repr gives as nan and inf
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(values, fmt: str) -> list[str]:
    # one column's cells, by dtype: CSV text, or JSON literals equal to
    # json.dumps of what _round12 and _format_complex give
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    if values.dtype.kind == "f":
        text = list(map(_format_float, values.tolist()))
        return text if fmt == "csv" else [_JSON_FLOATS.get(v, v) for v in map(repr, map(float, text))]
    text = list(map(_format_complex if values.dtype.kind == "c" else str, values.tolist()))
    return text if fmt == "csv" else list(map(json.dumps, text))


def _json_object(cells: dict) -> str:
    # one row as json.dumps(..., indent=2, sort_keys=True) lays it out inside a list
    return "  {\n" + ",\n".join(f'    "{key}": {cells[key]}' for key in sorted(cells)) + "\n  }"


def _render_rows(columns: dict, header: tuple[str, ...], fmt: str, rows: slice) -> str:
    cells = {key: _cells(columns[key][rows], fmt) for key in header}
    errors = columns.get("error")
    tagged = [] if errors is None else [(i, tag) for i, tag in enumerate(errors[rows]) if tag]
    if fmt == "csv":
        for i, tag in tagged:  # null row: value cells empty, the error tag lands in delta_e
            for key in VALUE_KEYS:
                cells[key][i] = ""
            cells["delta_e"][i] = tag
        return "\n".join(map(",".join, zip(*cells.values()))) + "\n"
    template = _json_object(dict.fromkeys(header, "%s"))
    text = [template % row for row in zip(*(cells[key] for key in sorted(header)))]
    for i, tag in tagged:  # null row: null values and an "error" key
        doc = {key: cells[key][i] for key in header}
        text[i] = _json_object({**doc, **dict.fromkeys(VALUE_KEYS, "null"), "error": json.dumps(tag)})
    return ",\n".join(text)


def _output(out: str | None):
    # standard output, left open, or the file at `out`
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def render_table(columns: dict, header: tuple[str, ...], fmt: str, out: str | None = None):
    """Write a table given as columns to ``out`` (default: standard output).

    The text is CSV with a header line, or a JSON list of row objects.
    ``columns`` maps every key of ``header`` to a column of equal length, a
    NumPy array or a list. An optional ``error`` column, either ``None`` or
    one tag or ``None`` per row, marks the rows whose ``VALUE_KEYS`` cells
    are null. Cells are formatted by column type: floats to 12 significant
    digits (:func:`_format_float`; JSON holds the values :func:`_round12`
    gives), complex numbers by :func:`_format_complex`, integers and
    strings as they are. Each ``RENDER_CHUNK`` rows are written as soon as
    they are formatted, so the whole text is never held. The ``log 2`` cap
    is asserted on the whole ``delta_e`` column first, so a violation raises
    before ``out`` is opened.
    """
    delta = np.asarray(columns["delta_e"], dtype=float)
    over = np.flatnonzero(delta > DELTA_E_CAP)
    if over.size:
        row = {key: np.asarray(columns[key])[over[0]].item() for key in header}
        raise BoundViolation(f"delta_e {delta[over[0]]} exceeds the log 2 cap in row {row}")
    with _output(out) as fh:
        fh.write("[\n" if fmt == "json" else ",".join(header) + "\n")
        for start in range(0, len(delta), RENDER_CHUNK):
            if fmt == "json" and start:
                fh.write(",\n")
            fh.write(_render_rows(columns, header, fmt, slice(start, start + RENDER_CHUNK)))
        if fmt == "json":
            fh.write("\n]\n")


def render_summary(summary: dict) -> str:
    return json.dumps(_round12(summary), indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None):
    with _output(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# entry point


def _dispatch(config: RunConfig) -> int:
    if config.dump_state:
        snapshot = to_snapshot(_build_network(_network(config)))
        with open(config.dump_state, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if config.experiment == "sweep-squeezing":
        render_table(sweep_squeezing(config), SWEEP_HEADER, config.format, config.out)
        return EXIT_OK
    if config.experiment == "scan-bipartitions":
        render_table(scan_bipartitions(config), SCAN_HEADER, config.format, config.out)
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
        config, given = _assemble(argv)
        unread = _unread_keys(config, given)
        if unread:
            print(f"note: {config.experiment} does not read {', '.join(map(_key_label, unread))}",
                  file=sys.stderr)
        return _dispatch(config)
    except SystemExit as exc:  # argparse handled --help or bad flags
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_CONFIG
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
