#!/usr/bin/env python3
"""Benchmark of the casp2smt chain on four seeded workloads.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload ring_encode --seed 1 --seconds 20 --trace 0

One process makes the workload's inputs from the seed, then repeats rounds
of the workload's operations, one call at a time, until ``--seconds`` have
passed (every round is completed). It checks each result against
``bench/reference.py`` and prints one line per metric followed by a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones (see ``bench/tracer.py``). Results and spans are written under
``bench/out/``. The solver is always ``tests/tools/minismt.py`` run by the
current interpreter; ``CASP2SMT_SOLVER`` is not read.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MINISMT = ROOT / "tests" / "tools" / "minismt.py"
OUT = BENCH / "out"
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "first_answer_s": "s",
    "answers_per_s": "1/s",
    "script_bytes": "bytes",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    import tracer

    names = list(tracer.TIMED.values()) + ["smtlib.s_per_call", "pipeline.solve_self_s", "bench.trace_overhead_s"]
    units = {name: "s" for name in names}
    units.update({name: "count" for name in tracer.COUNTED})
    units["smtlib.answers_per_call"] = "ratio"
    return units


def make_case(workload: str, seed: int):
    import cases

    py = shlex.quote(sys.executable)
    return cases.CASES[workload](
        seed,
        OUT,
        solver_cmd=f"{py} {shlex.quote(str(MINISMT))}",
        stub_cmd=f"{py} {shlex.quote(str(BENCH / 'stub_solver.py'))}",
    )


def setup_probe(workload: str, seed: int) -> None:
    """Child process: import the package, make the inputs, print the clock."""
    make_case(workload, seed).build()
    print(repr(time.monotonic()))


def probe_setup(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to the point where its inputs
    are ready. CLOCK_MONOTONIC is shared between processes, so the child's
    reading is compared with the parent's."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


class Runner:
    """Runs whole rounds of a case's operations and keeps what they took."""

    def __init__(self, case):
        self.ops = case.ops()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[list[float]] = [[] for _ in self.ops]
        self.answers = [0 for _ in self.ops]

    def round(self) -> float:
        """One pass over every operation; returns the summed op time.
        Garbage is collected before each operation, outside the timing, so
        that every operation starts from the same collector state."""
        total = 0.0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            gc.collect()
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                total += time.perf_counter() - start
                self.failed += 1
                print(f"bench: {op.label} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            total += elapsed
            self.latencies[i].append(elapsed)
            self.answers[i] = len(result.results)
            problem = op.check(result)
            if problem is not None:
                self.problems.append(problem)
        return total

    def medians(self, kind: str) -> list[float]:
        return [statistics.median(lat) for op, lat in zip(self.ops, self.latencies) if op.kind == kind and lat]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    case = make_case(workload, seed)
    case.build()
    case.prepare()
    runner = Runner(case)
    setup_times: list[float] = []
    deadline = time.perf_counter() + seconds
    if not trace:
        while not runner.attempted or time.perf_counter() < deadline:
            runner.round()
            if len(setup_times) < SETUP_PROBES:
                setup_times.append(probe_setup(workload, seed))
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(workload, seed))
    else:
        import tracer

        spans = tracer.Tracer()
        plain, traced = [], []
        while not traced or time.perf_counter() < deadline:
            plain.append(runner.round())
            spans.install()
            try:
                traced.append(runner.round())
            finally:
                spans.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, check_rate = case.final_check()
    problems = runner.problems + problems
    for problem in problems[:20]:
        print(f"bench: wrong result: {problem}", file=sys.stderr)

    if trace:
        metrics = spans.metrics(len(traced))
        metrics["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = per_layer_units()
        with open(OUT / f"trace-{workload}-{seed}.jsonl", "w", encoding="utf-8") as handle:
            for name, start, end, parent in spans.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
    else:
        first, enumerate_all = runner.medians("first"), runner.medians("all")
        answers = sum(n for op, n in zip(runner.ops, runner.answers) if op.kind == "all")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(first + enumerate_all),
            "first_answer_s": statistics.median(first),
            "answers_per_s": answers / sum(enumerate_all) if enumerate_all else check_rate,
            "script_bytes": case.script_bytes(),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "casp2smt" / "__init__.py").is_file() or not MINISMT.is_file():
        print(f"bench: {SRC / 'casp2smt'} and {MINISMT} are needed; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import cases

    if args.workload not in cases.CASES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(cases.CASES)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']} "
          f"correct = {result['correct']}")
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
