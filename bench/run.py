"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload, one table

Each repetition runs in a fresh interpreter (bench/child.py), so the package's
lru_caches start empty as they do for a command line user. With --trace 0
the run repeats rounds of one repetition and SETUP_PROBES set-up-only
processes until S seconds have passed (at least MIN_REPS rounds), and reports
the medians of the end-to-end metrics named in BENCHMARK.json. The time of a
repetition is reported in reference units (`wall_ref`, see reference.py),
which cancels the host's drifting speed; its wall time in seconds is logged.
A timing whose max-min spread within the run exceeds its bound is logged as
unresolved: the run cannot tell a change of that size from noise. With
--trace 1 it alternates untraced and traced repetitions (at least MIN_ROUNDS
of each) and reports the per-layer metrics of the fastest traced repetition,
whose spans are written to bench/out/.

Lines before the last describe the run; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = BENCH / "out"
WORKLOADS = ("verify", "subshift", "words", "orbit")
MIN_REPS = 3
SETUP_PROBES = 3  # per round, so set-up samples span the same host load as the repetitions
MIN_ROUNDS = 2
DEADLINE_S = 170  # every child is killed and reaped before the 180 s limit


class BenchError(RuntimeError):
    pass


def spawn(deadline: float, workload: str, seed: int, *extra: str) -> dict:
    spawned_at = time.monotonic()
    argv = [sys.executable, str(CHILD), workload, str(seed), repr(spawned_at), *extra]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=max(1.0, deadline - spawned_at)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """(max - min) / median of one run's repetitions."""
    return (max(values) - min(values)) / statistics.median(values)


def fastest(reps: list[dict]) -> dict:
    return min(reps, key=lambda rep: rep["wall_s"])


def describe(rep: dict) -> str:
    return (
        f"wall {rep['wall_s']:.3f} s = {rep['wall_ref']:.1f} ref "
        f"({rep['ref_slices']} slices of {1000 * rep['ref_slice_s']:.3f} ms), "
        f"peak RSS {rep['peak_rss_mb']:.0f} MB, set-up {rep['setup_s']:.3f} s, "
        f"{rep['failed']}/{rep['attempted']} failed"
    )


def log_failures(reps: list[dict], log) -> None:
    for label, count in sorted(Counter(e for rep in reps for e in rep["errors"]).items()):
        log(f"raised in {count} of {len(reps)} reps: {label}")
    for label in sorted({w for rep in reps for w in rep["wrong"]}):
        log(f"WRONG: {label}")


def measure(workload: str, seed: int, seconds: float, bounds: dict[str, float], log) -> dict:
    """Rounds of one untraced repetition and SETUP_PROBES set-up probes until
    `seconds` have passed."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[dict] = []
    setups: list[float] = []
    while True:
        round_start = time.monotonic()
        reps.append(spawn(deadline, workload, seed))
        setups.append(reps[-1]["setup_s"])
        setups += [spawn(deadline, workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        log(f"rep {len(reps)}: {describe(reps[-1])}")
        now = time.monotonic()
        if len(reps) >= MIN_REPS and now + (now - round_start) > start + seconds:
            break
    walls = [rep["wall_s"] for rep in reps]
    wall_refs = [rep["wall_ref"] for rep in reps]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    log_failures(reps, log)
    unresolved = []
    for name, values, what in (
        ("wall_ref", wall_refs, "reps"),
        ("wall_s", walls, "reps"),
        ("setup_s", setups, "samples"),
    ):
        log(f"{name} median {statistics.median(values):.4f} over {len(values)} {what}, spread {spread(values):.1%}")
        if name in bounds and spread(values) > bounds[name]:
            unresolved.append(name)
            log(f"{name} unresolved: spread {spread(values):.1%} within this run exceeds its bound {bounds[name]:.0%}")
    log(f"fail_frac {failed}/{attempted} = {failed / attempted:.6f}")
    return {
        "correct": all(rep["wrong_count"] == 0 for rep in reps),
        "attempted": attempted,
        "failed": failed,
        "unresolved": unresolved,
        "metrics": {
            "wall_ref": statistics.median(wall_refs),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "fail_frac": failed / attempted,
        },
    }


def measure_traced(workload: str, seed: int, seconds: float, units: dict, log) -> dict:
    """Alternate untraced and traced repetitions. The per-layer metrics are
    those of the fastest traced repetition, so its layer self times add up to
    its wall time; every count must repeat exactly between traced repetitions."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.jsonl"
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        round_start = time.monotonic()
        plain.append(spawn(deadline, workload, seed))
        candidate = OUT / f"spans-{workload}.tmp"
        traced.append(spawn(deadline, workload, seed, "--traced", str(candidate)))
        if traced[-1] is fastest(traced):
            candidate.replace(spans)
        candidate.unlink(missing_ok=True)
        log(f"round {len(traced)}: untraced {describe(plain[-1])}; traced wall {traced[-1]['wall_s']:.3f} s")
        now = time.monotonic()
        if len(traced) >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
            break
    layers = [rep["layers"] for rep in traced]
    counts = [name for name, unit in units.items() if unit == "count" and name in layers[0]]
    mismatched = [name for name in counts if len({layer[name] for layer in layers}) > 1]
    for name in mismatched:
        log(f"count {name} differs between runs of the same seed: {[layer[name] for layer in layers]}")
    metrics = dict(fastest(traced)["layers"])
    untraced_wall = fastest(plain)["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced_wall - 1
    metrics["trace.count_mismatches"] = len(mismatched)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    log(
        f"traced wall {metrics['trace.wall_s']:.3f} s = layer self times + bench.self_s "
        f"({self_total:.3f} s); overhead {metrics['trace.overhead_frac']:.1%}; spans in {spans.relative_to(ROOT)}"
    )
    reps = plain + traced
    log_failures(reps, log)
    return {
        "correct": all(rep["wrong_count"] == 0 for rep in reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": metrics,
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(result: dict, units: dict[str, str]) -> str:
    missing = set(units) - set(result["metrics"])
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all" and args.trace:
        parser.error("--workload all reports the end-to-end metrics only; use --trace 0")
    if not (ROOT / "src" / "grigorchuk" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    units = {m["name"]: m["unit"] for m in declared}
    bounds = {m["name"]: m["bound"] for m in declared if "bound" in m}

    def log(line: str) -> None:
        print(f"# {line}", flush=True)

    log(
        f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}"
    )
    try:
        if args.workload != "all":
            log(f"workload {args.workload}")
            if args.trace:
                result = measure_traced(args.workload, args.seed, args.seconds, units, log)
            else:
                result = measure(args.workload, args.seed, args.seconds, bounds, log)
            print(result_line(result, units))
            return 0
        results = {}
        for workload in WORKLOADS:
            log(f"workload {workload}")
            results[workload] = measure(workload, args.seed, args.seconds, bounds, log)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    units = {**units, "wall_s": "s", "fail_frac": "ratio"}
    print(f"{'workload':<10} {'metric':<12} {'value':>12}  unit")
    for workload, result in results.items():
        for name, unit in units.items():
            value = result["metrics"][name]
            base = f"  ({result['failed']}/{result['attempted']})" if name == "fail_frac" else ""
            note = "  unresolved" if name in result["unresolved"] else ""
            print(f"{workload:<10} {name:<12} {value:>12.4f}  {unit}{base}{note}")
    print(json.dumps({w: json.loads(result_line(r, units)) for w, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
