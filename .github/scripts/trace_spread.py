#!/usr/bin/env python3
"""Compare traced `grid-replay` runs of two trees (warn-only CI step).

usage: trace_spread.py BASE_TRACE... -- HEAD_TRACE...

Each file is the stdout of one `fiq-benchmark trace --workload
grid-replay` run. For `interp.ns_per_step` and `asm.ns_per_step` it
prints each tree's median and [min, max] over its runs, and emits a
GitHub warning only when the two trees' ranges do not overlap: one run
of one tree spreads ns/step by several percent, so a single pair says
nothing. `engine.steps_executed` and `engine.steps_quiescent` are
deterministic, so any base/head difference in them is warned about.
The script always exits 0.
"""

import statistics
import sys

NS_PER_STEP = ["interp.ns_per_step", "asm.ns_per_step"]
COUNTERS = ["engine.steps_executed", "engine.steps_quiescent"]


def read(path):
    """The `grid-replay` metrics of one trace file (empty if unreadable)."""
    metrics = {}
    try:
        with open(path) as f:
            for line in f:
                fields = line.split()
                if len(fields) >= 3 and fields[0] == "grid-replay":
                    metrics[fields[1]] = fields[2]
    except OSError:
        pass
    return metrics


def warn(msg):
    print(f"::warning::traced benchmark: {msg}")


def main(argv):
    if "--" not in argv:
        print(__doc__)
        return
    cut = argv.index("--")
    trees = {"base": [read(p) for p in argv[:cut]], "head": [read(p) for p in argv[cut + 1 :]]}
    for metric in NS_PER_STEP:
        ranges = {}
        for tree, runs in trees.items():
            xs = [float(r[metric]) for r in runs if metric in r]
            if not xs:
                warn(f"{metric} missing from every {tree} run")
                continue
            ranges[tree] = (min(xs), max(xs))
            print(
                f"grid-replay {metric} {tree}: median {statistics.median(xs):.2f} "
                f"[{min(xs):.2f}, {max(xs):.2f}] over {len(xs)} runs"
            )
        if len(ranges) == 2:
            (blo, bhi), (hlo, hhi) = ranges["base"], ranges["head"]
            if hlo > bhi or hhi < blo:
                warn(
                    f"{metric} ranges do not overlap: base [{blo:.2f}, {bhi:.2f}], "
                    f"head [{hlo:.2f}, {hhi:.2f}]"
                )
    for metric in COUNTERS:
        values = {tree: sorted({r.get(metric, "missing") for r in runs}) for tree, runs in trees.items()}
        print(f"grid-replay {metric}: base {' '.join(values['base'])}, head {' '.join(values['head'])}")
        if values["base"] != values["head"] or len(values["base"]) != 1 or "missing" in values["base"]:
            warn(f"{metric} differs between or within trees: base {values['base']}, head {values['head']}")


if __name__ == "__main__":
    main(sys.argv[1:])
