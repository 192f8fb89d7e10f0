"""Command-line experiment runner.

Reproduces the squeezing sweeps, bipartition scans, randomized bound checks
and analytic-versus-Fock-oracle cross validation as deterministic CSV/JSON
data files. Flags are the exact names in ``CONFIG_KEYS`` and ``NETWORK_KEYS``,
as ``--flag value`` (the next token, even one that starts with ``-``) or
``--flag=value``; the last repeat wins, and ``--help`` prints the table.

Exit codes: 0 success, 1 bound violation or failed verification, 2
configuration error (an ``--out`` or ``--dump-state`` path that cannot be
written is one, as is a standard output its reader closed), 3 numerical
failure. Every bound checked here is defined in :mod:`cvdistill.errors`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DELTA_E_SLACK, ORACLE_GRID_TOL, ORACLE_TENSOR_BYTES, ORACLE_THERMAL_TOL, ORACLE_TWO_PATH_TOL,
    RATIO_SLACK, REL_ERR_FLOOR, TRIALS_LIMIT, VACUUM_WEIGHT_TOL,
    BoundViolation,
    ConfigError,
    CutoffTooSmall,
    CVDistillError,
    FockBudgetExceeded,
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
    gate_cache_bytes,
    reduced_purity,
    suggested_cutoff,
    thermal_purification,
    vacuum_fock,
)
from .networks import ChainSpec, GraphSpec, build_chain, build_graph, chain_elements, grid_adjacency
from .photon import (
    LOG_2,
    closed_form_weights,
    cut_masks,
    entanglement_increase_cuts,
    photon_weights,
    relative_purity_many,
    relative_purity_wigner_many,
)
from .states import (
    GaussianState,
    ladder_blocks,
    purities_from_logdet,
    quad_indices,
    require_pure,
    to_snapshot,
    williamson_many,
)
from .symplectic import euler_factors, euler_symplectic

EXPERIMENTS = ("sweep-squeezing", "scan-bipartitions", "verify-bounds", "oracle-check")
EXIT_OK, EXIT_VIOLATION, EXIT_CONFIG, EXIT_NUMERICAL = 0, 1, 2, 3

DELTA_E_CAP = LOG_2 + DELTA_E_SLACK
SCAN_MODE_LIMIT = 20

DEFAULT_R_GRID = tuple(round(0.1 * i, 10) for i in range(21))
DEFAULT_DB_GRID = tuple(round(0.5 * i, 10) for i in range(21))
DEFAULT_ALPHAS = (0j, 0.5 + 0j)

ORACLE_MODES = (2, 3)
ORACLE_R_VALUES = (0.1, 0.4, 0.8)

# trials per chunk of verify-bounds' bulk draws; bounds what is held at once, and fixes the trial stream
TRIAL_CHUNK = 1024

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
    "adjacency": (lambda value: np.asarray(value, dtype=float), None, None),
    "r": (float, None, None),
    "db": (float, None, None),
    "alpha": (_complex, None, None),
    "g": (_integer, "--g", "mode the photon is subtracted from / added to"),
}


def _flags(argv) -> tuple[str | None, dict | None]:
    # the config path and {dest: value}, a network key's dest "network.<key>"; (None, None) after --help
    dests = {flag: (prefix + key, text) for prefix, table in (("", CONFIG_KEYS), ("network.", NETWORK_KEYS))
             for key, (_, flag, text) in table.items() if flag}
    path, values, tokens = None, {}, iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            with _output(None) as fh:
                fh.write("usage: cvdistill [config.json] [--flag value | --flag=value ...]\n\n  config.json     JSON"
                         " config file\n" + "".join(f"  {name:<15} {text}\n" for name, (_, text) in dests.items()))
            return None, None
        if flag in dests:
            values[dests[flag][0]] = value if eq else next(tokens, None)  # the next token, whatever it is
        elif token.startswith("-") or path is not None:
            raise ConfigError(f"unknown flag {token}" if token.startswith("-") else f"a second config file {token}")
        else:
            path = token
    if None in values.values():  # only the last token can be a flag without its value
        raise ConfigError(f"flag {flag} expects a value")
    return path, values


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
    if config.trials > TRIALS_LIMIT:
        raise ConfigError(f"trials {config.trials} exceeds {TRIALS_LIMIT}")
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
    if config.experiment == "oracle-check" and isinstance(config.network, GraphSpec):
        raise ConfigError("oracle-check runs its chain grid only; it takes no graph network")


def _assemble(path: str | None, args: dict) -> tuple[RunConfig, set[str]]:
    # the config from the file at `path` and the flags' {dest: value}, and the keys given in the file or
    # by a flag ("network.*" for network keys)
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
    """Assemble a :class:`RunConfig` from defaults, file, CVD_SEED and flags, in that order; ``--help`` exits 0."""
    path, args = _flags(argv)
    return _assemble(path, args)[0] if args is not None else sys.exit(EXIT_OK)


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
    if config.dump_state is not None:
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
    if m == 1:
        raise ConfigError("a 1-mode network has no neighbour mode for the g_prime partition")
    if g_prime is None:
        g_prime = g + 1 if g + 1 < m else g - 1
    if not 0 <= g_prime < m or g_prime == g:
        raise ConfigError(f"g_prime {g_prime} must be a mode different from g={g}")
    return g_prime


def sweep_squeezing(config: RunConfig) -> dict:
    """Entanglement increase of the g and g-prime single-mode partitions over a squeezing grid.

    Returns the table as columns keyed by ``SWEEP_HEADER`` plus ``error``
    (see :func:`render_table`): one row per (grid value, displacement,
    partition). The states are built and checked pure one by one; then one
    stacked ``slogdet`` gives every ``e_before``, and one
    :func:`~cvdistill.photon.relative_purity_wigner_many` call per partition
    gives ``delta_e`` from the side that holds g: ``(g,)`` itself, or the
    ``m - 1`` modes besides g-prime. A row whose mode g is vacuum, with a
    :func:`~cvdistill.photon.photon_weights` of at most ``VACUUM_WEIGHT_TOL``
    photons, carries an error tag instead of numbers.
    """
    spec = config.network
    is_chain = isinstance(spec, ChainSpec)
    values = (config.r_grid or DEFAULT_R_GRID) if is_chain else (config.db_grid or DEFAULT_DB_GRID)
    alphas = config.alphas or DEFAULT_ALPHAS
    m, g = spec.m, spec.resolved_g
    g_prime = _neighbour_mode(m, g, config.g_prime)
    states = []
    for value in values:
        for alpha in alphas:
            grid_value = {"r" if is_chain else "squeezing_db": float(value)}
            state = _build_network(dataclasses.replace(spec, **grid_value, alpha_g=alpha))
            require_pure(state)
            states.append(state)
    cov, mean = np.array([state.cov for state in states]), np.array([state.mean for state in states])
    n, at_g = len(states), np.full(len(states), g)
    # e_before of the partitions (g,) and (g_prime,); delta_e from the side of each that holds g
    idx = quad_indices([[g], [g_prime]], m)
    e_before = -np.log(purities_from_logdet(*np.linalg.slogdet(cov[:, idx[:, :, None], idx[:, None, :]])))
    sides = ([g], [i for i in range(m) if i != g_prime])
    delta = np.stack([-np.log(relative_purity_wigner_many(cov, mean, at_g, np.tile(side, (n, 1)), config.kind))
                      for side in sides], axis=1)
    vacuum = photon_weights(cov, mean, at_g, config.kind) <= VACUUM_WEIGHT_TOL
    e_before[vacuum] = delta[vacuum] = np.nan
    # rows (grid value, alpha) by partition g then g_prime, sorted by value, alpha and partition
    r = np.repeat(np.array(values, dtype=float), 2 * len(alphas))
    alpha_g = np.repeat(np.tile(np.array(alphas, dtype=complex), len(values)), 2)
    label = np.tile([0, 1], n)
    order = np.lexsort((label, alpha_g.imag, alpha_g.real, r))
    e_before, delta = e_before.reshape(-1)[order], delta.reshape(-1)[order]
    return {"r": r[order], "alpha_g": alpha_g[order], "partition": [("g", "g_prime")[i] for i in label[order]],
            "e_before": e_before, "e_after": e_before + delta, "delta_e": delta,
            "error": [VacuumModeSubtraction.__name__ if v else None for v in np.repeat(vacuum, 2)[order]]}


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


def _draw_chunk(rng: np.random.Generator) -> list:
    # One chunk's raw draws, in the order that fixes the verify-bounds and two-path outputs of a seed:
    # the TRIAL_CHUNK mode counts, then per mode count m in turn, for that group's k trials, the
    # occupations, the euler_symplectic parts, the squeezings, g and the amplitude. Returns per m
    # (pos, u_nu, parts, u_squeeze, g, u_alpha), pos the group's ascending positions in the chunk.
    counts = rng.integers(1, 6, size=TRIAL_CHUNK)
    groups = []
    for m in range(1, 6):
        pos = np.flatnonzero(counts == m)
        k = len(pos)
        groups.append((pos, rng.random((k, m)), rng.standard_normal((k, 2, 2, m, m)), rng.random((k, m)),
                       rng.integers(0, m, size=k), rng.random((k, 2))))
    return groups


def _trials(seed: int, trials: int):
    """The random thermal decompositions of :func:`verify_bounds`, as ``(pos, nu, *factors, g, alpha)`` per stack.

    ``pos`` holds the stack's trial positions, ``nu`` ``(n, m)`` their
    occupations, sorted descending, ``factors`` the Haar unitaries and
    log-squeezings of their symplectic matrices ``S``
    (:func:`~cvdistill.symplectic.euler_factors`), ``g`` the altered modes and
    ``alpha`` mode g's complex amplitudes: trial i is the m-mode state
    ``S diag(nu, nu) S^T`` with mean ``(2 Re alpha, 2 Im alpha)`` on mode g.
    The trials come in chunks of ``TRIAL_CHUNK`` from one ``default_rng(seed)``,
    each drawn in full (:func:`_draw_chunk`), so trial i is the same for any
    ``trials`` above i. A stack is one mode count's trials of one chunk that
    the run takes; its arithmetic runs stacked: sorted, scaled draws, one
    two-pass Gram-Schmidt for both Haar factors, and no ``S``.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, trials, TRIAL_CHUNK):
        for pos, u_nu, parts, u_squeeze, g, u_alpha in _draw_chunk(rng):
            n = int(np.searchsorted(pos, trials - start))  # the group's trials the run takes: a prefix
            if not n:
                continue
            # numpy's own uniform(low, high) arithmetic, stacked; math.cos, as np.cos varies by CPU
            nu = np.sort(1.0 + 9.0 * u_nu[:n], axis=1)[:, ::-1]
            angles = (2.0 * math.pi * u_alpha[:n, 1]).tolist()
            phase = np.empty(n, complex)
            phase.real, phase.imag = list(map(math.cos, angles)), list(map(math.sin, angles))
            alpha = 2.0 * np.sqrt(u_alpha[:n, 0]) * phase
            yield start + pos[:n], nu, *euler_factors(parts[:n], u_squeeze[:n], 2.0), g[:n], alpha


def _ladder_rows(unitaries: np.ndarray, log_squeeze: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # row g of each map's Bogoliubov blocks K = U_1 sinh(s) conj(U_2) and L = U_1 cosh(s) U_2, the closed form's
    # k and l, straight from the Euler factors (S -> (K, L) is a group homomorphism); einsum calls no BLAS
    first, second = unitaries[np.arange(len(g)), 0, g], unitaries[:, 1]  # row g of each U_1; each U_2
    return (np.einsum("ni,nij->nj", first * np.sinh(log_squeeze), second.conj()),
            np.einsum("ni,nij->nj", first * np.cosh(log_squeeze), second))


def bounds_ratios(seed: int, trials: int, kind: str):
    """Closed-form relative purities of :func:`verify_bounds`' trials, as ``(positions, ratios)`` per stack."""
    for pos, nu, unitaries, log_squeeze, g, alpha in _trials(seed, trials):
        yield pos, relative_purity_many(nu, *_ladder_rows(unitaries, log_squeeze, g), alpha, kind)


def verify_bounds(config: RunConfig) -> dict:
    """Randomised check of the factor-two purity bound on mixed reduced states.

    Draws ``trials`` random thermal decompositions (up to five modes,
    occupations in [1, 10], log-squeezing up to 2, displacement amplitude up
    to 2) and evaluates the closed-form relative purity for the configured
    operation kind. The draws come in chunks of ``TRIAL_CHUNK`` trials from
    one ``default_rng(seed)``, each chunk in bulk and in a fixed order (its
    mode counts, then each mode count's draws; :func:`_draw_chunk`), so a
    seed fixes the summary and the first trials of a longer run are the
    trials of a shorter one. Each chunk's mode counts run as stacks in
    stacked NumPy (:func:`_trials`). The summary folds each stack's ratios,
    so its memory does not grow with ``trials``. ``oracle-check``'s two-path
    block runs on the first of these trials (:func:`two_path_ratios`).
    """
    min_ratio, violations = math.inf, 0
    for _, ratios in bounds_ratios(config.seed, config.trials, config.kind):
        min_ratio = float(np.min(ratios, initial=min_ratio))  # unlike min, keeps a NaN
        violations += int(np.count_nonzero(~(ratios >= 0.5 - RATIO_SLACK)))  # a NaN ratio counts
    return {"trials": config.trials, "min_ratio": min_ratio, "max_delta_e": -math.log(min_ratio),
            "violations": violations, "seed": config.seed, "kind": config.kind}


def _rel_err(value, reference) -> np.ndarray:
    # elementwise |value - reference| / |reference|, absolute below REL_ERR_FLOOR: no 0/0 on tiny references
    return np.abs(value - reference) / np.maximum(np.abs(reference), REL_ERR_FLOOR)


def _fold(terms, where=True) -> float:
    # the largest of the terms kept by `where`, 0 for none; unlike max, keeps a NaN wherever it is
    return float(np.max(terms, initial=0.0, where=where))


def _verdict(err: float, tol: float, failed: bool = False, **fields) -> dict:
    # one oracle-check block's summary; a NaN error fails it
    return {**fields, "max_rel_err": err, "tolerance": tol, "pass": not failed and err <= tol}


def _check_budget(elements, m: int, d: int):
    # FockBudgetExceeded if the m-mode tensor at cutoff d, or else the elements' gate cache there, exceeds
    # ORACLE_TENSOR_BYTES; the tensor first: sizing the gate cache takes O(d) Python work, too long at a huge cutoff
    for what, size in ((f"a {m}-mode Fock tensor", lambda: d ** m * 16),
                       (f"the gate cache of a {m}-mode chain", lambda: gate_cache_bytes(elements, m, d))):
        if (nbytes := size()) > ORACLE_TENSOR_BYTES:
            raise FockBudgetExceeded(f"{what} at cutoff {d} takes {nbytes} bytes, "
                                     f"above the budget of {ORACLE_TENSOR_BYTES}")


def _fock_ladder(kind: str):
    """The Fock ladder operation of ``kind``: ``annihilate`` or ``create``; any other kind raises ``KeyError``."""
    return {"subtract": annihilate, "add": create}[kind]


def _row_fock_purities(m: int, r: float, states, kind: str, cutoff: int | None, sides) -> list:
    """Fock purities of the m-mode chains at ``r`` before and after the ladder operation, or their errors.

    ``states`` pairs each case's ``alpha_g`` with its Gaussian state. Per case
    comes ``{side: (before, after)}`` or the name of the error it failed with.
    The rungs are a pinned cutoff, else ``[b, ceil(1.5 b), 2 b]`` for ``b`` the
    :func:`~cvdistill.fock.suggested_cutoff` of the row's largest mean photon
    number. At a rung, a case whose tensor or own gate cache exceeds
    ``ORACLE_TENSOR_BYTES`` fails before anything is allocated
    (:func:`_check_budget`); the squeezed tensor (vacuum, then the squeezers)
    is built once, and each pending case applies its displacement and ladder
    operation to it, the last taking it out. A case whose leakage passes
    ``LEAK_TOL`` waits for the next rung; its tensors die before the next case
    applies a gate.
    """
    g, ladder = ChainSpec(m=m, r=r).resolved_g, _fock_ladder(kind)
    cov, mean = np.array([gauss.cov for _, gauss in states]), np.array([gauss.mean for _, gauss in states])
    weights = photon_weights(cov, mean, np.full(len(states), g), kind).tolist()  # each case's mode g, once a row
    if cutoff is not None:
        rungs = [cutoff]
    else:
        # every mode's mean photon number, stacked; np.max, unlike max, keeps a NaN weight whatever its position
        nbar = float(np.max(photon_weights(cov[:, None], mean[:, None], np.arange(m)[None], "subtract")))
        if not math.isfinite(nbar):  # the Gaussian covariance overflows: no cutoff holds it
            return [CutoffTooSmall.__name__] * len(states)
        base = suggested_cutoff(nbar)
        rungs = [base, math.ceil(1.5 * base), 2 * base]
    elements = [chain_elements(ChainSpec(m=m, r=r, alpha_g=alpha)) for alpha, _ in states]  # each case's chain

    def purities(fock, i):  # case i's Fock purities by side from its displaced tensor, which dies on return
        altered, gauss = ladder(fock, g), states[i][1]
        require_pure(gauss)
        if weights[i] <= VACUUM_WEIGHT_TOL:
            raise VacuumModeSubtraction(f"mode {g} is vacuum; photon {kind} undefined")
        return {side: (reduced_purity(fock, side), reduced_purity(altered, side)) for side in sides}

    out, pending = [CutoffTooSmall.__name__] * len(states), range(len(states))  # a case still pending at the end leaks
    for d in rungs:
        ready = []
        for i in pending:
            try:
                _check_budget(elements[i], m, d)
                ready.append(i)
            except FockBudgetExceeded:
                out[i] = FockBudgetExceeded.__name__
        if not ready:
            break
        pending = []
        try:
            squeezed = vacuum_fock(m, d)
            for elem in elements[0][:-1]:
                squeezed = apply_gate_fock(squeezed, elem)
        except CutoffTooSmall:
            pending = ready
            continue
        held, squeezed = [squeezed], None  # the last case takes it out, so it dies with that case's displacement
        for j, i in enumerate(ready):
            try:
                out[i] = purities(apply_gate_fock(held.pop() if j == len(ready) - 1 else held[0], elements[i][-1]), i)
            except CutoffTooSmall:
                pending.append(i)
            except (ZeroNorm, VacuumModeSubtraction) as exc:
                out[i] = type(exc).__name__
    return out


def _oracle_grid(m: int, cases, kind: str, cutoff: int | None) -> tuple[float, list]:
    """Largest relative gap of analytic purity, relative purity and delta-E from the Fock oracle, and the failures.

    Each case ``(r, alpha)`` and proper subset ``P`` of the modes gives a purity
    and a delta-E gap, and a closed-form gap if ``P`` holds g. The Fock side runs
    row by row, the cases of one ``r`` a row (:func:`_row_fock_purities`): one
    cutoff ladder per row, one squeezed tensor per rung, alive until the rung's
    last case has applied its displacement, and a case's own tensors freed
    before the next case applies a gate. The Fock gate cache keeps the spectra
    of the cutoff last used only, so the grid never holds more than the
    largest case's. The kept cases run the analytic side stacked, once per
    subset size. A case the closed form finds vacuum fails too. Failures are
    ``(case index, error)`` pairs in input order.
    """
    g = ChainSpec(m=m, r=0.0).resolved_g
    parts = [tuple(i for i in range(m) if bits >> i & 1) for bits in range(1, 2 ** m - 1)]
    rests = [tuple(i for i in range(m) if i not in part) for part in parts]
    sides = dict.fromkeys(min(part, rest, key=len) for part, rest in zip(parts, rests))  # the smaller sides

    states = [_build_network(ChainSpec(m=m, r=r, alpha_g=alpha)) for r, alpha in cases]
    rows = {r: [i for i, case in enumerate(cases) if case[0] == r] for r, _ in cases}  # per r, its cases' indices
    fock = {}  # per case, its Fock purities by side or its error
    for r, row in rows.items():
        fock.update(zip(row, _row_fock_purities(m, r, [(cases[i][1], states[i]) for i in row], kind, cutoff, sides)))
    kept = [(i, states[i], fock[i]) for i in range(len(cases)) if isinstance(fock[i], dict)]  # in input order
    failed = {i: fock[i] for i in range(len(cases)) if isinstance(fock[i], str)}
    n, cov = len(kept), np.reshape([gauss.cov for _, gauss, _ in kept], (-1, 2 * m, 2 * m))  # empty if none kept
    mean = np.reshape([gauss.mean for _, gauss, _ in kept], (-1, 2 * m))
    alpha_g = 0.5 * (mean[:, g, None] + 1j * mean[:, m + g, None])
    mu, delta, ratio, vacuum = {}, {}, {}, np.zeros(n, dtype=bool)  # values by part, one per kept case; vacuum cases
    for size in range(1, m):
        sized = [part for part in parts if len(part) == size]
        idx = quad_indices(sized, m)
        blocks = cov[:, idx[:, :, None], idx[:, None, :]]  # the parts' reduced covariances, stacked (case, part)
        mu.update(zip(sized, purities_from_logdet(*np.linalg.slogdet(blocks)).T.tolist()))
        held = [part for part in sized if g in part]
        rows = np.repeat(np.arange(n), len(held))
        wigner = relative_purity_wigner_many(cov[rows], mean[rows], np.full(len(rows), g), np.tile(held, (n, 1)), kind)
        delta.update(zip(held, (-np.log(wigner)).reshape(n, len(held)).T.tolist()))
        s_mat, nu = williamson_many(blocks[:, [g in part for part in sized]])
        at = (slice(None), np.arange(len(held)), [part.index(g) for part in held])  # row g of each part's blocks
        k_row, l_row = (mat[at] for mat in ladder_blocks(s_mat))
        vacuum |= (closed_form_weights(nu, k_row, l_row, alpha_g, kind) <= VACUUM_WEIGHT_TOL).any(axis=1)
        ratio.update(zip(held, relative_purity_many(nu, k_row, l_row, alpha_g, kind).T.tolist()))
    failed.update((kept[j][0], VacuumModeSubtraction.__name__) for j in np.flatnonzero(vacuum))

    pairs = []  # (analytic, oracle) pairs, case by case
    for j in np.flatnonzero(~vacuum):
        for part, rest in zip(parts, rests):
            before, after = kept[j][2][min(part, rest, key=len)]  # a part's Fock purities are its complement's
            delta_oracle = float(-np.log(after)) - float(-np.log(before))
            pairs += [(mu[part][j], before), (delta[part if g in part else rest][j], delta_oracle)]
            if g in part:
                pairs.append((ratio[part][j], after / before))
    return (_fold(_rel_err(*np.array(pairs).T)) if pairs else 0.0), sorted(failed.items())


def _trial_states(nu: np.ndarray, unitaries: np.ndarray, log_squeeze: np.ndarray, g: np.ndarray, alpha: np.ndarray):
    # (cov, mean) of each trial's m-mode state, xxpp: S diag(nu, nu) S^T, and mode g's mean (2 Re alpha, 2 Im alpha)
    n, m = nu.shape
    s_mat = euler_symplectic(unitaries, log_squeeze)
    cov = (s_mat * np.concatenate([nu, nu], axis=1)[:, None, :]) @ np.swapaxes(s_mat, 1, 2)
    rows, mean = np.arange(n), np.zeros((n, 2 * m))
    mean[rows, g], mean[rows, m + g] = 2.0 * alpha.real, 2.0 * alpha.imag
    return cov, mean


def two_path_ratios(seed: int, trials: int, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wigner-moment and closed-form relative purities of the trials of :func:`two_path_error`.

    Returns ``(wigner, closed, vacuum)``, arrays of ``trials`` entries in draw order. A route whose
    weight (:func:`~cvdistill.photon.photon_weights`, :func:`~cvdistill.photon.closed_form_weights`)
    finds mode g vacuum gives NaN; ``vacuum`` marks the trials that both routes find vacuum.
    The trials are :func:`bounds_ratios`' at the same seed, and so are the closed-form ratios, bit for bit.
    """
    wigner, closed = np.full((2, trials), np.nan)
    vacuum = np.zeros(trials, dtype=bool)
    for pos, nu, unitaries, log_squeeze, g, alpha in _trials(seed, trials):
        k_row, l_row = _ladder_rows(unitaries, log_squeeze, g)
        cov, mean = _trial_states(nu, unitaries, log_squeeze, g, alpha)
        system = np.broadcast_to(np.arange(nu.shape[1]), nu.shape)
        vacuum[pos] = ((photon_weights(cov, mean, g, kind) <= VACUUM_WEIGHT_TOL)
                       & (closed_form_weights(nu, k_row, l_row, alpha, kind) <= VACUUM_WEIGHT_TOL))
        wigner[pos] = relative_purity_wigner_many(cov, mean, g, system, kind)
        closed[pos] = relative_purity_many(nu, k_row, l_row, alpha, kind)
    return wigner, closed, vacuum


def two_path_error(seed: int, trials: int, kind: str) -> float:
    """Largest relative gap between the Wigner-moment and closed-form relative purities.

    The trials are the first ``trials`` of :func:`verify_bounds` at ``seed``:
    random thermal decompositions of mixed reduced states of up to five
    modes. The closed form takes each trial's drawn occupations, Bogoliubov
    row and amplitude as ``verify-bounds`` does; the Wigner route takes the
    trial's m-mode state ``S diag(nu, nu) S^T`` with its mean, as the
    subsystem of all its modes. A trial that both routes' photon weights
    find vacuum is skipped, and any other NaN gap, one route's vacuum among
    them, is the result. No Williamson decomposition runs: the drawn
    occupations are exact.
    """
    wigner, closed, vacuum = two_path_ratios(seed, trials, kind)
    return _fold(_rel_err(wigner, closed), ~vacuum)  # a closed ratio is at least 1/2, above the floor


def oracle_check(config: RunConfig) -> dict:
    """Cross-validate the analytic machinery against the brute-force Fock oracle.

    Three blocks: the chain grid (purity, relative purity, entanglement
    increase versus the oracle; :func:`_oracle_grid`, whose Fock side climbs
    one cutoff ladder per ``(m, r)`` and squeezes its chain once per rung, and
    whose analytic side runs once per mode count and subset size, stacked over
    all the cases that reach it), one thermal mode ``diag(n, n)`` at ``n`` in
    {1.5, 2, 5}, where the bound is tight (``ratio = 1/2 + 1/(2 n^2)``), and
    the agreement of the two analytic relative-purity routes on the first
    ``min(trials, 1000)`` mixed states of ``verify-bounds`` at the same seed,
    the Wigner route on each m-mode state itself (:func:`two_path_error`),
    each for the configured kind. The thermal block, under
    its old key ``thermal_traces``, compares the excess ``ratio - 1/2`` of the
    closed form (row ``k = 0``, ``l = 1``) and of the Wigner route with the
    Fock ratio of mode 0's purity after and before the ladder operation on
    the mode's two-mode purification (amplitudes ``sqrt(p_k)`` on ``|k, k>``,
    :func:`~cvdistill.fock.thermal_purification`) at cutoff
    ``max(60, 40 nbar)``. A grid case that fails with ``CutoffTooSmall``,
    ``FockBudgetExceeded``, ``ZeroNorm`` or ``VacuumModeSubtraction`` is
    listed under ``failures``, in input order, and left out of that stack.
    """
    modes = ORACLE_MODES if config.network is REFERENCE_CHAIN else (config.network.m,)
    if not set(modes) <= {2, 3}:
        raise ConfigError("oracle-check takes a network of 2 or 3 modes")

    cases = [(r, alpha) for r in config.r_grid or ORACLE_R_VALUES for alpha in config.alphas or DEFAULT_ALPHAS]
    errs, failed = zip(*(_oracle_grid(m, cases, config.kind, config.cutoff) for m in sorted(modes)))
    failures = [{"m": m, "r": float(cases[i][0]), "alpha": _format_complex(cases[i][1]), "error": error}
                for m, fails in zip(sorted(modes), failed) for i, error in fails]
    grid = _verdict(_fold(errs), ORACLE_GRID_TOL, bool(failures), cases=len(modes) * len(cases), failures=failures)

    # n = 10 (cutoff 180) would cost about 8 ms more
    thermal, ladder = [], _fock_ladder(config.kind)
    for n in (1.5, 2.0, 5.0):
        cutoff = max(60, math.ceil(40 * (n - 1.0) / 2.0))
        fock = thermal_purification(n, cutoff)
        excess = reduced_purity(ladder(fock, 0), [0]) / reduced_purity(fock, [0]) - 0.5
        closed = relative_purity_many(np.array([n]), np.zeros(1), np.ones(1), 0.0, config.kind)
        wigner = relative_purity_wigner_many(np.diag([n, n])[None], np.zeros((1, 2)), np.zeros(1, int),
                                             np.zeros((1, 1), int), config.kind)[0]
        thermal.append(_rel_err(np.array([closed, wigner]) - 0.5, excess))

    two_path_trials = min(config.trials, 1000)
    blocks = {
        "grid": grid,
        "thermal_traces": _verdict(_fold(thermal), ORACLE_THERMAL_TOL),
        "two_path": _verdict(two_path_error(config.seed, two_path_trials, config.kind), ORACLE_TWO_PATH_TOL,
                             trials=two_path_trials),
    }
    return {**blocks, "kind": config.kind, "seed": config.seed,
            "pass": all(block["pass"] for block in blocks.values())}


# ---------------------------------------------------------------------------
# output rendering


def _format_complex(z: complex) -> str:
    z = complex(z)
    real = f"{z.real + 0.0:.12g}"  # +0.0 folds negative zero
    return real if z.imag == 0 else f"{real}{z.imag:+.12g}j"


def _round12(value):
    if isinstance(value, float):
        return float(f"{value + 0.0:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _column(values, fmt: str) -> tuple[str, list]:
    # one column as a % conversion and its arguments, by dtype; a JSON float
    # cell is json.dumps of its 12-digit rounding, other cells preformatted
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return "%d", values.tolist()
    if values.dtype.kind == "f":
        values = values + 0.0  # +0.0 folds negative zero
        if fmt == "csv":
            return "%.12g", values.tolist()
        text = ("%.12g " * len(values) % tuple(values.tolist())).split()
        # the text is json.dumps of its rounding r unless r is integral below 1e16 (as all of [1e12,
        # 1e16) is), not finite or subnormal; r lies within 5e-12 |x| of x, so x marks a superset
        x = np.where(np.isfinite(values), values, 0.0)
        for i in np.flatnonzero((abs(x - np.rint(x)) <= 1e-11 * abs(x)) | (abs(x) < 1e-307)).tolist():
            text[i] = json.dumps(float(text[i]))
        return "%s", text
    text = list(map(_format_complex if values.dtype.kind == "c" else str, values.tolist()))
    return "%s", text if fmt == "csv" else list(map(json.dumps, text))


def _row_template(convs: dict, fmt: str, tag=None) -> str:
    # one row's % template; a tagged row's swallows each value cell with %.0s
    # and writes its tag as text, in delta_e (CSV) or under an "error" key (JSON)
    if tag:
        literal = (tag if fmt == "csv" else json.dumps(tag)).replace("%", "%%")
        convs = {**convs, **dict.fromkeys(VALUE_KEYS, "%.0s" if fmt == "csv" else "%.0snull")}
        convs.update({"delta_e": "%.0s" + literal} if fmt == "csv" else {"error": literal})
    if fmt == "csv":
        return ",".join(convs.values()) + "\n"
    # the row as json.dumps(..., indent=2, sort_keys=True) lays it out inside a list
    return "  {\n" + ",\n".join(f'    "{key}": {convs[key]}' for key in sorted(convs)) + "\n  }"


def _render_rows(columns: dict, header: tuple[str, ...], fmt: str, rows: slice) -> str:
    # one % call: the rows' templates joined, the columns' arguments interleaved row by row
    keys = header if fmt == "csv" else sorted(header)
    convs, cols = zip(*(_column(columns[key][rows], fmt) for key in keys))
    convs, n = dict(zip(keys, convs)), len(cols[0])
    plain, errors = _row_template(convs, fmt), columns.get("error")
    templates = [plain] * n
    if errors is not None:
        tagged = {tag: _row_template(convs, fmt, tag) for tag in set(errors[rows]) if tag}
        templates = [tagged.get(tag, plain) for tag in errors[rows]]
    args = [None] * (len(cols) * n)
    for j, col in enumerate(cols):
        args[j::len(cols)] = col
    return ("" if fmt == "csv" else ",\n").join(templates) % tuple(args)


@contextlib.contextmanager
def _output(out: str | None):
    # standard output, left open, or the file at `out`; either one that cannot be opened or written is a
    # configuration error
    if out is None:
        if sys.stdout is None:  # the interpreter started with it closed, as by `>&-`
            raise ConfigError("cannot write standard output: it is closed")
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, as in `| head`
            # what stays buffered goes to devnull at exit, so the interpreter reports no second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write standard output: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def render_table(columns: dict, header: tuple[str, ...], fmt: str, out: str | None = None):
    """Write a table given as columns to ``out`` (default: standard output).

    The text is CSV with a header line, or a JSON list of row objects.
    ``columns`` maps every key of ``header`` to a column of equal length, a
    NumPy array or a list. An optional ``error`` column, either ``None`` or
    one tag or ``None`` per row, marks the rows whose ``VALUE_KEYS`` cells
    are null. Each ``RENDER_CHUNK`` rows are formatted by one ``%`` call
    and written at once, so the whole text is never held: a row template
    takes a conversion per column type (``%d`` for integers, ``%.12g`` for
    floats, or in JSON the values :func:`_round12` gives; complex numbers by
    :func:`_format_complex` and strings preformatted, by ``%s``), and the
    columns' values are its arguments, row by row. A tagged row's template
    takes the same arguments but swallows its value cells with ``%.0s`` and
    writes its tag as literal text. The ``log 2`` cap is asserted on the
    whole ``delta_e`` column first, so a violation raises before ``out`` is
    opened; a NaN ``delta_e`` violates it unless its row has an error tag.
    """
    delta = np.asarray(columns["delta_e"], dtype=float)
    errors = columns.get("error")
    over = ~(delta <= DELTA_E_CAP)
    if errors is not None:
        over &= np.array([not tag for tag in errors], dtype=bool)
    over = np.flatnonzero(over)
    if over.size:
        row = {key: np.asarray(columns[key])[over[0]].item() for key in header}
        raise BoundViolation(f"delta_e {delta[over[0]]} is not within the log 2 cap in row {row}")
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


# ---------------------------------------------------------------------------
# entry point


def _dispatch(config: RunConfig) -> int:
    if config.dump_state is not None:
        snapshot = to_snapshot(_build_network(_network(config)))
        with _output(config.dump_state) as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if config.experiment == "sweep-squeezing":
        render_table(sweep_squeezing(config), SWEEP_HEADER, config.format, config.out)
        return EXIT_OK
    if config.experiment == "scan-bipartitions":
        render_table(scan_bipartitions(config), SCAN_HEADER, config.format, config.out)
        return EXIT_OK
    bounds = config.experiment == "verify-bounds"
    summary = verify_bounds(config) if bounds else oracle_check(config)
    with _output(config.out) as fh:
        fh.write(render_summary(summary))
    return EXIT_OK if (summary["violations"] == 0 if bounds else summary["pass"]) else EXIT_VIOLATION


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    try:
        path, args = _flags(argv)
        if args is None:  # --help printed the usage
            return EXIT_OK
        config, given = _assemble(path, args)
        unread = _unread_keys(config, given)
        if unread:
            print(f"note: {config.experiment} does not read {', '.join(map(_key_label, unread))}",
                  file=sys.stderr)
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
