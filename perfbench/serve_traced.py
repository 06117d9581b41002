"""Run ``repro serve`` with span shims installed, for traced benchmark runs.

Usage::

    python3 perfbench/serve_traced.py DUMP_PATH serve ROOT [serve options]

The server records nothing until the first ``STATS`` request, which marks
the start of the timed phase (the preload's spans are dropped); the second
``STATS`` request stops recording. ``SIGUSR1`` writes the span summary and
the server-side counters to ``DUMP_PATH`` (and the raw spans next to it).
"""

from __future__ import annotations

import json
import os
import signal
import sys


def main(argv) -> int:
    from spans import Tracer, aggregate, install, layer_targets, net_targets, span_patches, write_spans
    from workloads import counter_delta, numeric_stats

    from repro.cli import main as repro_main
    from repro.core.sware import SortednessAwareIndex
    from repro.net import protocol as p
    from repro.net.server import IndexServer
    from repro.net.sharded import ShardedSortednessAwareIndex

    dump_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.recording = False
    clock = tracer.clock
    indexes = []  # every shard index the server builds
    baseline = {}  # id(index) -> counters at the start of the timed phase
    parked = []  # clock() at which each mutating ack was parked
    state = {"started": False, "fsyncs": 0, "acks": 0, "ack_wait_ns": 0}

    orig_init = SortednessAwareIndex.__init__

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        indexes.append(self)

    commit_span = tracer.wrap("net.sharded.commit", vars(ShardedSortednessAwareIndex)["commit"])

    def commit(self):
        synced = commit_span(self)
        if tracer.recording:
            now = clock()
            state["fsyncs"] += synced
            state["acks"] += len(parked)
            state["ack_wait_ns"] += sum(now - t for t in parked)
        parked.clear()
        return synced

    orig_ack = vars(IndexServer)["_ack"]

    def ack(self, writer, opcode, frame):
        if tracer.recording and opcode in p.MUTATING_OPS:
            parked.append(clock())
        return orig_ack(self, writer, opcode, frame)

    orig_read_frame = p.read_frame

    async def read_frame(reader):
        frame = await orig_read_frame(reader)
        if frame is not None:
            tracer.request_id = frame[1]
        return frame

    op_names = {
        p.OP_PUT: "put", p.OP_GET: "get", p.OP_DEL: "delete", p.OP_RANGE: "range_query",
        p.OP_PUT_MANY: "put_many", p.OP_GET_MANY: "get_many", p.OP_STATS: "stats",
    }
    orig_dispatch = vars(IndexServer)["_dispatch"]
    per_op = {
        op: tracer.wrap(f"net.server.dispatch.{name}", orig_dispatch)
        for op, name in op_names.items()
    }

    def dispatch(self, opcode, payload):
        if opcode == p.OP_STATS:
            if not state["started"]:
                state["started"] = True
                tracer.take()
                parked.clear()
                for index in indexes:
                    baseline[id(index)] = numeric_stats(index.stats)
                tracer.recording = True
            else:
                tracer.recording = False
        return per_op.get(opcode, orig_dispatch)(self, opcode, payload)

    install(
        span_patches(tracer, layer_targets() + net_targets())
        + [
            (SortednessAwareIndex, "__init__", init),
            (ShardedSortednessAwareIndex, "commit", commit),
            (IndexServer, "_ack", ack),
            (IndexServer, "_dispatch", dispatch),
            (p, "read_frame", read_frame),
        ]
    )

    def dump(_signum, _frame) -> None:
        spans = tracer.spans
        sware: dict = {}
        for index in indexes:
            delta = counter_delta(baseline.get(id(index), {}), numeric_stats(index.stats))
            for key, value in delta.items():
                sware[key] = sware.get(key, 0) + value
        doc = {
            "aggregates": aggregate(spans),
            "sware": sware,
            "fsyncs": state["fsyncs"],
            "acks": state["acks"],
            "ack_wait_ns": state["ack_wait_ns"],
        }
        write_spans(dump_path + ".spans.jsonl", spans)
        tmp = dump_path + ".tmp"
        with open(tmp, "w") as fobj:
            json.dump(doc, fobj)
        os.replace(tmp, dump_path)

    signal.signal(signal.SIGUSR1, dump)
    return repro_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
