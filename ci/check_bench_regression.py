#!/usr/bin/env python3
"""Perf-trajectory regression gate.

Compares a fresh ``experiments --json`` run against the committed
``BENCH_baseline.json`` and fails when the epoch trees' throughput
regressed by more than the threshold (default 25%).

Cross-machine robustness: the baseline was recorded on one machine and
CI runs on another, so raw ops/sec ratios would gate on hardware, not
code. The gate therefore first estimates a machine-speed factor from
the *reference structures* (``mutex-btreemap``, ``rwlock-btreemap``,
``seq-bst`` — std containers whose code this repository never touches)
as the median fresh/baseline ratio over their shared rows, then judges
each tested series (``pnb-bst``, ``nb-bst``) on its median ratio
*normalized by that factor*. If no reference rows overlap, it falls
back to raw ratios with a warning (same-machine comparisons, e.g. the
local workflow, are exact either way).

Rows are matched on (experiment, structure, threads, key_range); only
rows present in BOTH files are compared, so a quick-mode CI sweep can
be gated against a full-mode baseline. Judging medians per
(experiment, structure) series rides out single-cell noise.

Usage: check_bench_regression.py <baseline.json> <fresh.json> [threshold]
"""

import json
import statistics
import sys

REFERENCE_STRUCTURES = {"mutex-btreemap", "rwlock-btreemap", "seq-bst"}


def rows(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for r in doc.get("results", []):
        if "ops_per_sec" not in r:
            continue  # closed-loop latency/ablation rows carry no throughput
        key = (
            r.get("experiment"),
            r.get("structure"),
            r.get("threads"),
            r.get("key_range"),
        )
        out[key] = float(r["ops_per_sec"])
    return out


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    baseline = rows(sys.argv[1])
    fresh = rows(sys.argv[2])
    threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.25

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        sys.exit(
            "FAIL: no overlapping (experiment, structure, threads, key_range) "
            "rows between baseline and fresh run — the gate would be vacuous."
        )

    ref_ratios = [
        fresh[k] / baseline[k]
        for k in shared
        if k[1] in REFERENCE_STRUCTURES and baseline[k] > 0
    ]
    if ref_ratios:
        speed = statistics.median(ref_ratios)
        print(
            f"machine-speed factor: {speed:.3f} "
            f"(median of {len(ref_ratios)} reference-structure cells)"
        )
    else:
        speed = 1.0
        print(
            "WARNING: no reference-structure rows overlap; gating on raw "
            "ratios (only meaningful on the baseline's own machine)."
        )

    series = {}
    for key in shared:
        exp, structure, _, _ = key
        if structure in REFERENCE_STRUCTURES:
            continue
        ratio = fresh[key] / baseline[key] if baseline[key] > 0 else 1.0
        series.setdefault((exp, structure), []).append((key, ratio / speed))

    if not series:
        sys.exit("FAIL: no tested-structure rows overlap with the baseline.")

    failed = False
    for (exp, structure), cells in sorted(series.items()):
        med = statistics.median(r for _, r in cells)
        verdict = "OK" if med >= 1.0 - threshold else "REGRESSED"
        print(
            f"{verdict:9} {exp}/{structure}: normalized median ratio {med:.3f} "
            f"over {len(cells)} cell(s)"
        )
        for key, ratio in cells:
            print(f"          {key}: {ratio:.3f}")
        if med < 1.0 - threshold:
            failed = True

    if failed:
        sys.exit(
            f"FAIL: a tested series regressed — normalized median throughput "
            f"dropped more than {threshold:.0%} vs BENCH_baseline.json."
        )
    print(
        f"regression gate OK: {sum(len(c) for c in series.values())} throughput "
        f"rows compared (threshold {threshold:.0%})"
    )


if __name__ == "__main__":
    main()
