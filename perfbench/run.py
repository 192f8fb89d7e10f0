"""cvdistill benchmark: seeded CLI workloads, end-to-end metrics, and a traced per-layer run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The load is a closed loop from one client: one CLI job at a time,
each in a fresh interpreter with BLAS pinned to one thread, repeated until
``--seconds`` have passed (at least ``MIN_REPS`` times). Each job pays
interpreter start, ``import cvdistill`` and its own Fock generator cache,
as a CLI user does on every invocation. The benchmark and its workers share
one CPU, and a fixed reference kernel timed next to every job is the unit
of ``wall_rel`` (see :func:`reference_kernel`).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see ``tracing.py``), plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report. The full record (resolved configs, environment,
samples, checks, output hashes) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

PINNED_ENV = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
os.environ.update(PINNED_ENV)  # before numpy is imported, here and in every worker

MIN_REPS = 3
MIN_SETUP_SAMPLES = 9
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "x-ref", "items_per_ref": "1/ref", "peak_rss_mb": "MB"}
REFERENCE_LOOPS = 6000

PREDICTED_DOMINANT = {
    "scan-chain": ("layer", {"photon", "states"}),
    "scan-graph": ("bucket", {"states.williamson"}),
    "bounds": ("bucket", {"symplectic.random_symplectic"}),
    "oracle": ("layer", {"fock"}),
}


class Run:
    """Spawns the worker jobs of one benchmark run and keeps their reports."""

    def __init__(self, workload: str, seed: int, work: Path, started: float):
        self.workload, self.seed, self.work, self.started = workload, seed, work, started
        self.env = {k: v for k, v in os.environ.items() if k != "CVD_SEED"}
        self.spawned = 0

    def job(self, index: int, trace: bool = False, setup_only: bool = False, spans: Path | None = None) -> dict:
        self.spawned += 1
        out = self.work / f"{self.spawned:04d}-job{index}.out"
        spec = {"workload": self.workload, "seed": self.seed, "job": index, "out": str(out),
                "trace": trace, "spans": str(spans) if spans else None, "setup_only": setup_only}
        budget = HARD_LIMIT_S - (time.monotonic() - self.started)
        spawned_at = time.monotonic()
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker for job {index} exited {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(lines[-1])
        report["setup_s"] = report.pop("ready") - spawned_at
        report["out"] = out
        report["config_path"] = str(out) + ".config.json"
        if not setup_only:
            report["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        return report


def _environment(cpu: int, available: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has none; do not pick up an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_pinned": {k: os.environ[k] for k in PINNED_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": available,
        "pinned_cpu": cpu,
        "cpu_model": model,
        "platform": platform.platform(),
    }


def _merge(summaries: list[dict]) -> dict:
    """Sum the trace summaries of the jobs of one repetition."""
    merged = {"self_s": Counter(), "calls": Counter(), "errors": Counter(),
              "linalg_calls": 0, "max_leakage": 0.0, "peak_tensor_bytes": 0}
    for s in summaries:
        for key in ("self_s", "calls", "errors"):
            merged[key].update(s[key])
        merged["linalg_calls"] += s["linalg_calls"]
        merged["max_leakage"] = max(merged["max_leakage"], s["max_leakage"])
        merged["peak_tensor_bytes"] = max(merged["peak_tensor_bytes"], s["peak_tensor_bytes"])
    return merged


def _layer_self(self_s: Counter) -> dict:
    layers = Counter()
    for name, seconds in self_s.items():
        layers[name.split(".", 1)[0]] += seconds
    return layers


def layer_metrics(t: dict, items: int) -> dict:
    """Per-layer metrics of one traced repetition: ``.s`` is self time, ``.calls`` a call count."""
    s, c, e = t["self_s"], t["calls"], t["errors"]
    layers = _layer_self(s)
    render = s["cli.render_table"] + s["cli.render_summary"]
    gate_calls = c["fock.apply_gate_fock"]
    increase_calls = c["photon.entanglement_increase"]
    return {
        "cli.self_s": (layers["cli"] - render, "s"),
        "cli.render_s": (render, "s"),
        "networks.build.calls": (c["networks.build_chain"] + c["networks.build_graph"], "count"),
        "networks.build.s": (layers["networks"], "s"),
        "symplectic.s": (layers["symplectic"], "s"),
        "symplectic.random_symplectic.calls": (c["symplectic.random_symplectic"], "count"),
        "symplectic.random_symplectic.s": (s["symplectic.random_symplectic"], "s"),
        "symplectic.compose.s": (s["symplectic.compose"], "s"),
        "states.s": (layers["states"], "s"),
        "states.purity.calls": (c["states.purity"], "count"),
        "states.purity.s": (s["states.purity"], "s"),
        "states.reduce_state.s": (s["states.reduce_state"], "s"),
        "states.williamson.calls": (c["states.williamson"], "count"),
        "states.williamson.s": (s["states.williamson"], "s"),
        "states.bogoliubov_row.s": (s["states.bogoliubov_row"], "s"),
        "photon.s": (layers["photon"], "s"),
        "photon.entanglement_increase.calls": (increase_calls, "count"),
        "photon.entanglement_increase.self_s": (s["photon.entanglement_increase"], "s"),
        "photon.subtract_reduced_wigner.s": (s["photon.subtract_reduced_wigner"], "s"),
        "photon.relative_purity_closed_form.calls": (c["photon.relative_purity_closed_form"], "count"),
        "photon.relative_purity_closed_form.s": (s["photon.relative_purity_closed_form"], "s"),
        "photon.null_row_frac": (
            e["photon.entanglement_increase:VacuumModeSubtraction"] / increase_calls if increase_calls else 0.0,
            "fraction"),
        "fock.s": (layers["fock"], "s"),
        "fock.apply_gate_fock.calls": (gate_calls, "count"),
        "fock.apply_gate_fock.s": (s["fock.apply_gate_fock"], "s"),
        "fock.reduce_density.s": (s["fock.reduce_density"], "s"),
        "fock.cutoff_retry_frac": (
            e["fock.apply_gate_fock:CutoffTooSmall"] / gate_calls if gate_calls else 0.0, "fraction"),
        "fock.max_leakage": (t["max_leakage"], "fraction"),
        "fock.peak_tensor_mb": (t["peak_tensor_bytes"] / 2 ** 20, "MB-computed"),
        "linalg.calls_per_item": (t["linalg_calls"] / items, "calls/item"),
    }


def dominant(workload: str, self_s: Counter) -> dict:
    """Confirm or refute the predicted dominant layer or function from median self times."""
    layers = _layer_self(self_s)
    total = sum(self_s.values()) or 1.0
    kind, predicted = PREDICTED_DOMINANT[workload]
    ranked = (layers if kind == "layer" else self_s).most_common()
    return {
        "predicted": f"{kind} {' or '.join(sorted(predicted))}",
        "measured": ranked[0][0],
        "verdict": "confirmed" if ranked[0][0] in predicted else "refuted",
        "layer_share": {k: round(v / total, 4) for k, v in layers.most_common()},
        "top_functions": {k: round(v / total, 4) for k, v in self_s.most_common(8)},
    }


def reference_kernel() -> float:
    """Seconds for a fixed mix of Python and small-matrix LAPACK work that never touches cvdistill.

    The host's speed drifts by tens of percent over tens of seconds. Timed
    next to every job, this kernel gives the unit of ``wall_rel``, which
    cancels that drift; it runs in this process, which has not imported
    cvdistill, so no change to the program can slow it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    cov = a @ a.T + 12.0 * np.eye(12)
    idx = np.array([0, 2, 3, 5, 7, 9, 10, 11])
    start = time.perf_counter()
    for _ in range(REFERENCE_LOOPS):
        sub = cov[np.ix_(idx, idx)]
        np.linalg.slogdet(sub)
        np.linalg.solve(sub, sub[:, :2])
        np.linalg.eigh(sub)
        [float(x) for x in sub[0]]
    return time.perf_counter() - start


def measure(run: Run, n_jobs: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Closed loop: repeat the workload's jobs until ``seconds`` pass; traced runs alternate.

    The reference kernel runs before the first job and after every job, so
    each job's ``ref_s`` is the mean of the two kernel times around it.
    """
    run.job(0, setup_only=True)  # untimed: warms the file cache, compiles bytecode if written
    deadline = time.monotonic() + seconds
    reps = []
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    ref_before = reference_kernel()
    while len(reps) < min_reps or time.monotonic() < deadline:
        traced = trace and len(reps) % 2 == 1
        spans = run.work / "spans.jsonl" if len(reps) == 1 and traced else None
        rep = []
        for j in range(n_jobs):
            report = run.job(j, trace=traced, spans=spans if j == 0 else None)
            ref_after = reference_kernel()
            report["ref_s"] = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            rep.append(report)
        if reps:  # only the first repetition's outputs are checked in full; the rest by hash
            for report in rep:
                report["out"].unlink()
        reps.append((traced, rep))
    setups = [r["setup_s"] for traced, rep in reps if not traced for r in rep]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run.job(len(setups) % n_jobs, setup_only=True)["setup_s"])
    return reps, setups


def run_checks(seed: int, jobs: list[dict], reps: list):
    import checks as checks_mod

    checks = checks_mod.Checks()
    first = reps[0][1]
    for _, rep in reps:
        for j, report in enumerate(rep):
            checks.check(report["exit_code"] == 0, f"job {j} exited {report['exit_code']}")
            checks.check(report["sha256"] == first[j]["sha256"],
                         f"job {j} output {report['sha256']} differs from the first run's {first[j]['sha256']}")
    items = [checks_mod.check_output(checks, jobs[j], report["config_path"],
                                     report["out"].read_text(encoding="utf-8"), seed)
             for j, report in enumerate(first)]
    return checks, sum(items)


def _resolved(config_path: str) -> dict:
    """The CLI's fully resolved configuration of a job, defaults included, as JSON."""
    from cvdistill.cli import build_config

    config = build_config([config_path])
    doc = dataclasses.asdict(config)
    doc["network"]["resolved_g"] = config.network.resolved_g

    def default(value):
        if hasattr(value, "tolist"):
            return value.tolist()
        return sorted(value) if isinstance(value, (set, frozenset)) else str(value)

    return json.loads(json.dumps(doc, default=default))


def end_to_end(reps: list, setups: list, items: int) -> tuple[dict, dict]:
    untraced = [rep for traced, rep in reps if not traced]
    walls = [sum(r["wall_s"] for r in rep) for rep in untraced]
    rels = [sum(r["wall_s"] / r["ref_s"] for r in rep) for rep in untraced]
    samples = {
        "setup_s": setups,
        "wall_rel": rels,
        "items_per_ref": [items / w for w in rels],
        "peak_rss_mb": [max(r["maxrss_kb"] for r in rep) / 1024 for rep in untraced],
        "wall_s": walls,
        "items_per_s": [items / w for w in walls],
        "ref_s": [r["ref_s"] for rep in untraced for r in rep],
    }
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    spread = {name: {"median": statistics.median(values), "min": min(values), "max": max(values),
                     "n": len(values), "values": values} for name, values in samples.items()}
    return metrics, spread


def per_layer(workload: str, reps: list, items: int) -> tuple[dict, dict]:
    traced = [_merge([r["trace"] for r in rep]) for t, rep in reps if t]
    per_rep = [layer_metrics(t, items) for t in traced]
    metrics = {name: {"value": statistics.median(m[name][0] for m in per_rep), "unit": unit}
               for name, (_, unit) in per_rep[0].items()}
    walls = {flag: [sum(r["wall_s"] for r in rep) for t, rep in reps if t == flag] for flag in (False, True)}
    # reps alternate untraced, traced: pair neighbours so host-speed drift cancels
    overhead = statistics.median(t / u for u, t in zip(walls[False], walls[True])) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    names = set().union(*(t["self_s"] for t in traced))
    median_self = Counter({n: statistics.median(t["self_s"][n] for t in traced) for n in names})
    detail = {
        "dominant": dominant(workload, median_self),
        "self_s_median": dict(median_self.most_common()),
        "calls": dict(traced[0]["calls"]),
        "errors": dict(traced[0]["errors"]),
        "samples": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]},
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "cvdistill" / "cli.py").is_file():
        print(f"no cvdistill sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WHY:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WHY)}", file=sys.stderr)
        return 2
    jobs = workloads.jobs(args.workload, args.seed)
    trace = bool(args.trace)
    available = os.sched_getaffinity(0)
    cpu = max(available)
    os.sched_setaffinity(0, {cpu})  # workers inherit it: jobs and reference kernel share one core
    name = f"{args.workload}-seed{args.seed}"

    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        run = Run(args.workload, args.seed, work, started)
        reps, setups = measure(run, len(jobs), args.seconds, trace)
        checks, items = run_checks(args.seed, jobs, reps)
        record = {
            "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "jobs": [{"config": job, "resolved": _resolved(report["config_path"]),
                      "command": "cvdistill CONFIG.json --out OUT, with the config above in CONFIG.json"}
                     for job, report in zip(jobs, reps[0][1])],
            "load": "closed loop, one client, one job at a time in a fresh interpreter",
            "environment": _environment(cpu, len(available)),
            "repetitions": {"untraced": sum(not t for t, _ in reps), "traced": sum(t for t, _ in reps)},
            "items_per_repetition": items,
            "output_sha256": [r["sha256"] for r in reps[0][1]],
            "checks": {"attempted": checks.attempted, "failed": len(checks.failures),
                       "error_rate": len(checks.failures) / checks.attempted,
                       "failures": checks.failures[:50], "notes": sorted(set(checks.notes))},
        }
        if trace:
            metrics, detail = per_layer(args.workload, reps, items)
            spans_file = RESULTS / f"{name}-spans.jsonl"
            shutil.copyfile(work / "spans.jsonl", spans_file)
            record.update(detail, spans_file=str(spans_file.relative_to(ROOT)))
        else:
            metrics, record["samples"] = end_to_end(reps, setups, items)
        record["metrics"] = metrics
        result_file = RESULTS / f"{name}-trace{args.trace}.json"
        result_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps_done = record["repetitions"]
    print(f"workload {args.workload}, seed {args.seed}: {reps_done['untraced']} untraced and "
          f"{reps_done['traced']} traced repetitions of {len(jobs)} job(s), {items} items each")
    for metric, m in metrics.items():
        print(f"  {metric:44s} {m['value']:.6g} {m['unit']}")
    if not trace:
        for metric, unit in (("wall_s", "s"), ("items_per_s", "1/s"), ("ref_s", "s")):
            print(f"  {metric:44s} {record['samples'][metric]['median']:.6g} {unit} (not normalised)")
    print(f"  {'error_rate':44s} {record['checks']['error_rate']:.6g} fraction "
          f"({len(checks.failures)} of {checks.attempted} checks failed)")
    for failure in checks.failures[:10]:
        print(f"  FAILED: {failure}")
    for note in record["checks"]["notes"]:
        print(f"  note: {note}")
    if trace:
        d = record["dominant"]
        print(f"  dominant: predicted {d['predicted']}, measured {d['measured']}: {d['verdict']}")
    print(f"  record: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
