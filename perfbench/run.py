"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload join --seed 1 --seconds 15 --trace 0

Run from the repository root.  The benchmark generates its inputs from
``--seed``, measures for ``--seconds``, checks every answer against
brute-force oracles and prints a human-readable report followed, as the
last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics of a
traced run (plus its tracing overhead).  ``--workload all`` runs every
workload in turn, each in its own process, and prints their reports.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("join", "serve-batch", "serve-mixed")


def _import_library() -> None:
    """Put this checkout's package first on the path; refuse any other copy."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources under {source}; run from a full checkout")
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {source}")


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run_workload(name: str, seed: int, seconds: float, traced: bool, work: Path):
    from perfbench.trace import Tracer

    module = importlib.import_module("perfbench." + name.replace("-", "_"))
    tracer = Tracer(enabled=traced)
    if name == "serve-mixed":
        outcome = module.run(seed, seconds, tracer, work)
    else:
        outcome = module.run(seed, seconds, tracer)
    if traced:
        trace_path = work.parent / f"trace-{name}-seed{seed}-{os.getpid()}.jsonl"
        tracer.write(trace_path)
        outcome.info["trace_file"] = str(trace_path)
    return outcome


def _metrics(outcome, declared: dict, traced: bool) -> dict:
    """The declared metrics of this run's kind, with their units.

    A per-layer metric whose layer this workload never calls reads 0; an
    end-to-end metric must always be measured.
    """
    kind = "per_layer" if traced else "end_to_end"
    values = outcome.per_layer if traced else outcome.end_to_end
    metrics = {}
    for spec in declared[kind]:
        name = spec["name"]
        if name not in values and not traced:
            raise RuntimeError(f"end-to-end metric {name!r} was not measured")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
    return metrics


def _report(name: str, seed: int, outcome, env: dict, elapsed: float) -> None:
    print(f"# workload {name} seed {seed} ({elapsed:.1f} s)")
    print(f"# environment {json.dumps(env)}")
    for check, ok, detail in outcome.checks:
        print(f"# check {'PASS' if ok else 'FAIL'} {check}" + (f" [{detail}]" if detail else ""))
    for metric, (value, unit) in outcome.named.items():
        print(f"# {metric} = {value:.6g} {unit}")
    for metric, value in sorted(outcome.per_layer.items()):
        print(f"# layer {metric} = {value:.6g}")
    if outcome.info:
        print(f"# info {json.dumps(outcome.info, default=str)}")


def _run_all(args) -> int:
    """Every workload in its own process (peak memory stays per workload)."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    _import_library()
    from perfbench.children import end_children
    from perfbench.stats import cpu_ticks, environment

    declared = _declared()
    os.chdir(ROOT)  # socket and scratch paths below are relative to the checkout
    work = Path(".perfbench") / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started, (steal, total) = time.perf_counter(), cpu_ticks()
    try:
        outcome = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        leaked = end_children()
        shutil.rmtree(work, ignore_errors=True)
    outcome.check(
        "every process the run started had ended by its end",
        not leaked,
        f"{len(leaked)} killed",
    )
    env = environment(ROOT)
    steal_after, total_after = cpu_ticks()
    env["cpu_steal_share"] = round((steal_after - steal) / max(total_after - total, 1), 4)
    _report(args.workload, args.seed, outcome, env, time.perf_counter() - started)
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": _metrics(outcome, declared, bool(args.trace)),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
