#!/usr/bin/env python3
"""Compare two BENCH_*.json perf records and print per-benchmark deltas.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--fail-below PCT]
    bench_compare.py --auto-baseline CURRENT.json [--fail-below PCT]

With --auto-baseline the baseline is the committed BENCH_pr<N>.json with
the highest N (searched next to this script's repo root, or in
--baseline-dir). CI uses this mode so the comparison step never needs a
hand-bumped filename when a new PR lands its record.

Both files follow the bench_sim_speed / xsweep record shape:

    {"bench": "sim_speed", "results": [
        {"name": "BM_FlitHop/width:32/...", "items_per_s": 123.4, ...},
        ...]}

Benchmarks are matched by name. The report lists matched benchmarks with
their items/s delta, then names entries present in only one record
(benchmark parametrizations change across PRs; that is informational,
not an error). With --fail-below PCT the script exits nonzero if any
matched benchmark regressed by more than PCT percent — CI runs it
report-only by default so a noisy shared runner cannot block a merge.

--require-min-ratio PREFIX:RATIO (repeatable) is the opposite gate: it
demands an *improvement*, exiting nonzero unless every matched benchmark
whose name starts with PREFIX runs at >= RATIO x the baseline. CI uses
it to hold the event-driven kernel to its speedup claim against the
last pre-gating record (BM_IdleCycles vs BENCH_pr6.json); the required
ratio is far above runner noise, so this gate is safe to make blocking.

--require-pair-ratio CURRENT=BASELINE=RATIO (repeatable) gates a
*renamed* benchmark against a differently-named baseline entry: exit
nonzero unless current[CURRENT] runs at >= RATIO x baseline[BASELINE].
'=' separates the fields because benchmark names contain ':'
(e.g. BM_LoadedCycles/mesh:8/flow:0). CI uses it to hold the
partitioned-at-threads=1 twins to bounded overhead against the
unpartitioned pre-partitioning record.
"""

import argparse
import glob
import json
import os
import re
import sys


def newest_committed_baseline(directory):
    """Returns the BENCH_pr<N>.json with the highest N, or None."""
    best = None
    best_n = -1
    for path in glob.glob(os.path.join(directory, "BENCH_pr*.json")):
        m = re.fullmatch(r"BENCH_pr(\d+)\.json", os.path.basename(path))
        if m and int(m.group(1)) > best_n:
            best_n = int(m.group(1))
            best = path
    return best


def load_results(path):
    with open(path, "r", encoding="utf-8") as f:
        record = json.load(f)
    results = {}
    for entry in record.get("results", []):
        name = entry.get("name")
        if name:
            results[name] = entry
    return record.get("bench", "?"), results


def fmt_rate(value):
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.1f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", default=None)
    parser.add_argument("current")
    parser.add_argument(
        "--auto-baseline",
        action="store_true",
        help="baseline = committed BENCH_pr<N>.json with the highest N",
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        metavar="DIR",
        help="where --auto-baseline searches (default: the repo root)",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 if any matched benchmark regressed more than PCT%%",
    )
    parser.add_argument(
        "--require-min-ratio",
        action="append",
        default=[],
        metavar="PREFIX:RATIO",
        help="exit 1 unless every matched benchmark whose name starts "
             "with PREFIX runs at >= RATIO x the baseline (repeatable)",
    )
    parser.add_argument(
        "--require-pair-ratio",
        action="append",
        default=[],
        metavar="CURRENT=BASELINE=RATIO",
        help="exit 1 unless the CURRENT benchmark in the current record "
             "runs at >= RATIO x the BASELINE benchmark in the baseline "
             "record ('=' separators: names contain ':'; repeatable)",
    )
    args = parser.parse_args()

    requirements = []
    for spec in args.require_min_ratio:
        prefix, sep, ratio = spec.rpartition(":")
        if not sep or not prefix:
            parser.error(f"--require-min-ratio wants PREFIX:RATIO, got {spec!r}")
        try:
            requirements.append((prefix, float(ratio)))
        except ValueError:
            parser.error(f"bad ratio in --require-min-ratio {spec!r}")

    pair_requirements = []
    for spec in args.require_pair_ratio:
        fields = spec.split("=")
        if len(fields) != 3 or not fields[0] or not fields[1]:
            parser.error(
                f"--require-pair-ratio wants CURRENT=BASELINE=RATIO, "
                f"got {spec!r}")
        try:
            pair_requirements.append((fields[0], fields[1], float(fields[2])))
        except ValueError:
            parser.error(f"bad ratio in --require-pair-ratio {spec!r}")

    if args.auto_baseline:
        if args.baseline is not None:
            parser.error("--auto-baseline replaces the BASELINE argument")
        directory = args.baseline_dir or os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        args.baseline = newest_committed_baseline(directory)
        if args.baseline is None:
            print(f"no committed BENCH_pr*.json under {directory}; "
                  "nothing to compare against")
            return 0
    elif args.baseline is None:
        parser.error("BASELINE argument or --auto-baseline required")

    base_kind, base = load_results(args.baseline)
    cur_kind, cur = load_results(args.current)

    print(f"baseline: {args.baseline} ({base_kind}, {len(base)} entries)")
    print(f"current:  {args.current} ({cur_kind}, {len(cur)} entries)")
    print()

    matched = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    worst = 0.0
    if matched:
        width = max(len(name) for name in matched)
        print(f"{'benchmark':<{width}}  {'base':>10}  {'current':>10}  delta")
        for name in matched:
            b = base[name].get("items_per_s")
            c = cur[name].get("items_per_s")
            if b and c and b > 0:
                pct = 100.0 * (c - b) / b
                worst = min(worst, pct)
                delta = f"{pct:+.1f}%"
            else:
                delta = "-"
            print(f"{name:<{width}}  {fmt_rate(b):>10}  {fmt_rate(c):>10}  "
                  f"{delta}")
        print()

    if only_base:
        print(f"only in baseline ({len(only_base)}):")
        for name in only_base:
            print(f"  {name}")
    if only_cur:
        print(f"only in current ({len(only_cur)}):")
        for name in only_cur:
            print(f"  {name}")

    failed = False
    for prefix, ratio in requirements:
        names = [n for n in matched if n.startswith(prefix)]
        if not names:
            print(f"FAIL: --require-min-ratio {prefix}:{ratio:g} matched "
                  "no benchmark present in both records")
            failed = True
            continue
        for name in names:
            b = base[name].get("items_per_s")
            c = cur[name].get("items_per_s")
            if not b or not c or b <= 0:
                print(f"FAIL: {name}: no items_per_s to hold to "
                      f">= {ratio:g}x")
                failed = True
                continue
            achieved = c / b
            verdict = "ok" if achieved >= ratio else "FAIL"
            print(f"{verdict}: {name}: {achieved:.2f}x baseline "
                  f"(required >= {ratio:g}x)")
            failed = failed or achieved < ratio

    for cur_name, base_name, ratio in pair_requirements:
        b = base.get(base_name, {}).get("items_per_s")
        c = cur.get(cur_name, {}).get("items_per_s")
        if not b or not c or b <= 0:
            print(f"FAIL: --require-pair-ratio {cur_name} vs {base_name}: "
                  "missing entry or no items_per_s")
            failed = True
            continue
        achieved = c / b
        verdict = "ok" if achieved >= ratio else "FAIL"
        print(f"{verdict}: {cur_name}: {achieved:.2f}x {base_name} "
              f"(required >= {ratio:g}x)")
        failed = failed or achieved < ratio

    if args.fail_below is not None and worst < -args.fail_below:
        print(f"\nFAIL: worst regression {worst:.1f}% exceeds "
              f"-{args.fail_below:.1f}%")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
