"""One cold repetition of a workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED SPAWNED_AT [--setup-only | --traced SPANS_PATH]

SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process; on Linux that clock is shared by all processes, so set-up time
covers interpreter start, imports and input generation. An untraced
repetition runs under the reference gauge (reference.py); its wall time leaves
out the gauge's slices. Prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    workload, seed, spawned_at = argv[0], int(argv[1]), float(argv[2])
    sys.path.insert(0, str(SRC))
    import grigorchuk

    if not Path(grigorchuk.__file__).resolve().is_relative_to(SRC):
        print(f"grigorchuk imported from {grigorchuk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    make, run = workloads.WORKLOADS[workload]
    inputs = make(seed)
    setup_s = time.monotonic() - spawned_at
    result: dict = {"setup_s": setup_s}
    if argv[3:] != ["--setup-only"]:
        tally = workloads.Tally()
        if argv[3:4] == ["--traced"]:
            import tracer

            t = tracer.Tracer()
            t.install()
            wall = t.run(lambda: run(inputs, tally))
            result["layers"] = t.metrics(wall)
            t.write_spans(argv[4])
        else:
            import reference

            gauge = reference.Gauge()
            gauge.start()
            start = time.perf_counter()
            try:
                run(inputs, tally)
            finally:
                elapsed = time.perf_counter() - start
                gauge.stop()
            wall = elapsed - gauge.excluded_s
            if gauge.slices == 0:
                print("the reference gauge took no sample", file=sys.stderr)
                return 2
            ref_slice_s = gauge.slice_s / gauge.slices
            result.update(ref_slices=gauge.slices, ref_slice_s=ref_slice_s, wall_ref=wall / ref_slice_s)
        result.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=tally.attempted,
            failed=tally.failed,
            wrong=tally.wrong[:20],
            wrong_count=len(tally.wrong),
            errors=dict(tally.errors),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
