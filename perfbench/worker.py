"""Run one benchmark job in a fresh interpreter, as a CLI user would.

usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds ``workload``, ``seed``, ``job`` (index into the workload's
job list), ``out`` (output path), ``trace`` (bool), ``spans`` (path for the
span dump, or null) and ``setup_only`` (bool). The worker imports the CLI,
makes its input from the seed, writes it next to ``out`` as
``<out>.config.json`` and then calls ``cvdistill.cli.main`` on it. It prints
one JSON line: ``ready`` (``time.monotonic()`` once set-up is done, which
the parent subtracts from its own spawn time), ``wall_s``, ``exit_code``,
``maxrss_kb`` and, when traced, ``trace``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import cvdistill.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"cvdistill imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    config_path = Path(spec["out"] + ".config.json")
    config_path.write_text(json.dumps(workloads.jobs(spec["workload"], spec["seed"])[spec["job"]]))
    report = {"ready": time.monotonic()}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.install()
        start = time.perf_counter()
        report["exit_code"] = cli.main([str(config_path), "--out", spec["out"]])
        report["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            report["trace"] = tracer.summary()
            if spec["spans"]:
                with open(spec["spans"], "w", encoding="utf-8") as fh:
                    for name, begin, end, parent, error in tracer.spans:
                        fh.write(json.dumps([name, begin - start, end - start, parent, error]) + "\n")
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
