"""Summarise the result files that ``run.py`` wrote to ``perfbench/out/``.

Usage (from the repository root)::

    python3 perfbench/report.py [--seeds 101,102]

Prints, per workload:

* the spread of each end-to-end metric over the untraced runs: median and
  the distance between the first and third quartile as a share of the
  median, next to the metric's bound in ``BENCHMARK.json``;
* the tracing overhead: each end-to-end metric of the traced runs against
  the median of the untraced runs;
* the role checks on the traced runs (restricted to ``--seeds``, e.g. a
  held-out seed): which layers each workload exercises and bypasses.

Exits non-zero if a role check fails.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

from metrics import END_TO_END, KERNELS, TAILS, median  # noqa: E402


def load(seeds=None):
    runs = []
    for path in sorted(glob.glob(os.path.join(OUT, "*-seed*-trace*.json"))):
        with open(path) as fobj:
            record = json.load(fobj)
        if seeds is None or record["provenance"]["seed"] in seeds:
            runs.append(record)
    return runs


def values(record) -> dict:
    return {name: entry["value"] for name, entry in record["metrics"].items()}


def spread(samples):
    """(median, IQR / median) as the benchmark's acceptance check computes it."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return mid, (q3 - q1) / mid


def role_checks(traced: dict) -> list:
    """(description, passed, detail) for each workload-role claim."""
    checks = []

    def get(workload, name):
        return median([values(r)[name] for r in traced.get(workload, [])] or [float("nan")])

    ratio_i = get("ingest", "core.sware.bulk_load_ratio")
    ratio_l = get("lookup", "core.sware.bulk_load_ratio")
    checks.append((
        "bulk_load_ratio high on ingest, near zero on lookup",
        ratio_i >= 0.5 and ratio_l <= 0.05,
        f"ingest {ratio_i:.3f}, lookup {ratio_l:.3f}",
    ))
    bulk_i = get("ingest", "btree.bulk_load_append.self_s")
    bulk_l = get("lookup", "btree.bulk_load_append.self_s")
    checks.append((
        "btree.bulk_load_append self time high on ingest, near zero on lookup",
        bulk_i > 0 and bulk_l <= 0.01 * bulk_i,
        f"ingest {bulk_i:.4f} s, lookup {bulk_l:.4f} s",
    ))
    # Top-inserted share of the entries that reach the tree: the reverse of
    # bulk_load_ratio. Absolute btree.insert time is not near zero on ingest:
    # keys displaced beyond the buffer arrive below the tree's maximum.
    ins_i = get("ingest", "btree.insert.self_s")
    ins_l = get("lookup", "btree.insert.self_s")
    checks.append((
        "btree.insert carries all tree-bound writes on lookup, a minority on ingest",
        ins_l > 0 and 1 - ratio_l >= 0.95 and 1 - ratio_i <= 0.5,
        f"top-insert share ingest {1 - ratio_i:.3f}, lookup {1 - ratio_l:.3f}; "
        f"btree.insert self ingest {ins_i:.4f} s, lookup {ins_l:.4f} s",
    ))
    # Spans nested under SortednessAwareIndex.get_many: the time inside
    # BPlusTree.get_many (its kernels included) against the call's total.
    reads = [r["aggregates"]["reads"] for r in traced.get("lookup", [])]
    total = sum(x["sware_get_many_ns"] for x in reads)
    tree = sum(x["tree_get_many_ns"] for x in reads)
    kernels = sum(x["tree_kernels_self_ns"] for x in reads)
    checks.append((
        "btree.get_many and its kernels dominate lookup read time",
        total > 0 and tree >= 0.5 * total,
        f"{tree / 1e9:.3f} s (kernels {kernels / 1e9:.3f} s) of {total / 1e9:.3f} s"
        " in SortednessAwareIndex.get_many",
    ))
    # In-process runs install the net shims too, so any call into repro.net
    # would leave a span.
    for workload in ("ingest", "lookup"):
        runs = traced.get(workload, [])
        spans = sorted({
            name for r in runs for phase in ("timed", "recovery")
            for name in r["aggregates"][phase] if name.startswith("net.")
        })
        checks.append((
            f"no net span on {workload}", bool(runs) and not spans,
            ", ".join(spans) or f"none in {len(runs)} traced runs",
        ))
    runs = traced.get("serve", [])
    nonzero = sorted({
        name for r in runs for name, v in values(r).items() if name.startswith("net.") and v
    })
    checks.append(("net.* non-zero on serve", bool(nonzero), f"{len(nonzero)} net.* metrics non-zero"))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=str, default=None, help="comma-separated seed filter")
    args = parser.parse_args(argv)
    seeds = {int(s) for s in args.seeds.split(",")} if args.seeds else None
    runs = load(seeds)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fobj:
        bounds = {m["name"]: m["bound"] for m in json.load(fobj)["end_to_end"]}
    plain, traced = {}, {}
    for record in runs:
        into = traced if record["trace"] else plain
        into.setdefault(record["provenance"]["workload"], []).append(record)
    ok = True

    for workload, records in sorted(plain.items()):
        print(f"== {workload}: {len(records)} untraced runs")
        for name, unit, _better in END_TO_END:
            samples = [values(r)[name] for r in records]
            if len(samples) < 2:
                print(f"  {name:26s} {samples[0]:14.4f} {unit}")
                continue
            mid, rel = spread(samples)
            flag = "  over bound" if rel > bounds[name] else ""
            print(f"  {name:26s} median {mid:14.4f} {unit:4s} IQR/median {rel:7.2%}"
                  f" bound {bounds[name]:.0%}{flag}")
        for name, unit in TAILS:
            samples = [r["tails"][name]["value"] for r in records]
            if len(samples) >= 2:
                mid, rel = spread(samples)
                print(f"  {name:26s} median {mid:14.4f} {unit:4s} IQR/median {rel:7.2%} (not gated)")
        failed = sum(r["failed"] for r in records)
        print(f"  failed {failed} of {sum(r['attempted'] for r in records)} attempted")

    for workload, records in sorted(traced.items()):
        base = plain.get(workload)
        if not base:
            continue
        print(f"== {workload}: tracing overhead ({len(records)} traced runs)")
        for name, unit, _better in END_TO_END:
            untraced = median([values(r)[name] for r in base])
            with_trace = median([r["end_to_end_traced"][name] for r in records])
            print(f"  {name:26s} {untraced:14.4f} -> {with_trace:14.4f} {unit:4s}"
                  f" ({with_trace / untraced - 1:+.1%})")

    if traced:
        print("== role checks (traced runs)")
        for description, passed, detail in role_checks(traced):
            ok = ok and passed
            print(f"  {'PASS' if passed else 'FAIL'}  {description}: {detail}")
        for workload, records in sorted(traced.items()):
            kernel_s = {k: median([values(r)[f"kernels.{k}.self_s"] for r in records]) for k in KERNELS}
            top = sorted(kernel_s.items(), key=lambda kv: -kv[1])[:3]
            print(f"  {workload}: top kernels " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
