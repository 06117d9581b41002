"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for the exact mixes and why each exists):

* ``ingest`` — durable near-sorted ingest in-process: ``put_many`` of 128
  keys plus a WAL sync, 8 point reads of recent keys, a recent-window scan
  every 4th write, a checkpoint every 32,768 keys, then a crash and a timed
  recovery;
* ``lookup`` — reads, scans and random writes in-process on a bulk-loaded,
  checkpointed index of 2^19 keys, far larger than the SWARE buffer;
* ``serve`` — ``python -m repro serve`` in its own process driven by two
  closed-loop connections, then SIGKILL, restart and read-back.

A run is a few fresh processes, one after the other, each running the
workload on its own inputs for its share of ``--seconds``; the metrics
pool them. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` each part wraps each layer's public functions in span
recorders and the run reports per-layer self time and counters instead.
Times are reported at the reference pace of ``pace.py``; the raw wall
times are printed too, marked ``raw (not gated)``.
Every run prints one line per metric (name, value, unit) and, as its last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. It also writes the full result, with provenance, to
``perfbench/out/``. The exit code is non-zero if any answer was wrong or
any acknowledged write was lost.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("ingest", "lookup", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one part in this process and write its raw result.
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--part-out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no program source at {os.path.relpath(SRC, ROOT)}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def run_part(args) -> int:
    """One part of a run, in a process of its own."""
    from workloads import WORKLOADS, part_seed, run_ingest, run_lookup, run_serve

    tracer = None
    undo = None
    if args.trace:
        from spans import Tracer, install, layer_targets, net_targets, protocol_targets, span_patches

        tracer = Tracer()
        tracer.recording = False
        # The serve client holds no index: only its protocol layer is traced
        # here; the server process installs its own shims.
        if args.workload == "serve":
            targets = protocol_targets()
        else:
            targets = layer_targets() + net_targets()
        undo = install(span_patches(tracer, targets))
    body = {"ingest": run_ingest, "lookup": run_lookup, "serve": run_serve}[args.workload]
    try:
        part = body(
            part_seed(args.seed, args.part), args.seconds / WORKLOADS[args.workload]["parts"],
            os.path.dirname(args.part_out), tracer, ROOT,
        )
    finally:
        if undo is not None:
            undo()
    if args.trace:
        from spans import write_spans

        spans_path = os.path.join(OUT, f"spans-{args.workload}-part{args.part}.jsonl")
        write_spans(spans_path, part.pop("spans"))
    with open(args.part_out, "w") as fobj:
        json.dump(part, fobj)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.part is not None:
        return run_part(args)

    from metrics import END_TO_END, MOVES, PER_LAYER, TAILS, TIMED, check_name, provenance
    from workloads import WORKLOADS, combine

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    parts = []
    try:
        for i in range(WORKLOADS[args.workload]["parts"]):
            part_dir = os.path.join(workdir, f"part-{i}")
            os.makedirs(part_dir)
            part_out = os.path.join(part_dir, "part.json")
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--part", str(i), "--part-out", part_out,
            ]
            done = subprocess.run(cmd, timeout=170)
            if done.returncode != 0:
                raise SystemExit(f"error: part {i} exited with code {done.returncode}")
            with open(part_out) as fobj:
                parts.append(json.load(fobj))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run = combine(args.workload, parts, bool(args.trace))

    catalogue = PER_LAYER if args.trace else END_TO_END
    source = run.layer if args.trace else run.metrics
    metrics = {}
    for name, unit, _better in catalogue:
        check_name(name)
        value = source[name]
        if not args.trace and not value > 0:
            raise SystemExit(f"error: end-to-end metric {name} is {value!r}, not positive")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload:7s} {name:48s} {value:16.6f} {unit}")
    tails = {name: {"value": run.metrics[name], "unit": unit} for name, unit in TAILS}
    for name, unit in TAILS:
        print(f"{args.workload:7s} {name + ' (not gated)':48s} {run.metrics[name]:16.6f} {unit}")
    raw = {name: {"value": value, "unit": unit} for name, unit in TIMED for value in [run.raw[name]]}
    for name, entry in raw.items():
        print(f"{args.workload:7s} {name + ' raw (not gated)':48s} {entry['value']:16.6f} {entry['unit']}")
    failed_frac = run.failed / run.attempted
    print(f"{args.workload:7s} {'failed_frac':48s} {failed_frac:16.6f} ratio")
    print(f"{args.workload:7s} samples {json.dumps(run.samples, sort_keys=True)}")
    for note in run.notes:
        print(f"{args.workload:7s} note: {note}")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        failed_frac=failed_frac,
        tails=tails,
        raw=raw,
        samples=run.samples,
        parts=run.per_part,
        notes=run.notes,
        provenance=provenance(ROOT, args.seed, args.workload, run.params),
        trace=args.trace,
    )
    if args.trace:
        record["end_to_end_traced"] = run.metrics
        record["aggregates"] = run.aggregates
        record["moves"] = MOVES
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fobj:
        json.dump(record, fobj, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
