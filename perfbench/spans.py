"""Span recording by wrapping the public functions of each layer.

The program under test carries no benchmark hooks. A traced run replaces
selected methods and module functions with wrappers that record one span
per call — name, start, end, parent span and request id — into an
in-memory :class:`Tracer`. Spans are summarised (and written out) when the
run ends. Untraced runs never import this module's shims.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from metrics import KERNELS

#: A span is a list ``[name, start_ns, end_ns, parent_index, request_id]``;
#: its id is its index in ``Tracer.spans`` and a root span has parent -1.
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.recording = True
        #: Set by the caller before each request (or by the server's frame
        #: reader); copied into every span opened while it is current.
        self.request_id: Optional[int] = None
        self.counters: Dict[str, float] = defaultdict(float)

    def take(self) -> List[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records a span named ``name``."""
        tracer = self
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans = tracer.spans
            record = [name, clock(), 0, stack[-1] if stack else -1, tracer.request_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced


def install(patches: Iterable[Tuple[object, str, Callable]]) -> Callable[[], None]:
    """Set ``owner.attr = replacement`` for each patch; returns an undo."""
    saved = []
    for owner, attr, replacement in patches:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def span_patches(tracer: Tracer, targets: Iterable[Tuple[object, str, str]]):
    """Patches that wrap ``owner.attr`` in a span named ``span_name``."""
    return [
        (owner, attr, tracer.wrap(span_name, getattr(owner, attr)))
        for owner, attr, span_name in targets
    ]


def layer_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) for the in-process index layers."""
    from repro import kernels
    from repro.btree.btree import BPlusTree
    from repro.core.buffer import SWAREBuffer
    from repro.core.sware import SortednessAwareIndex
    from repro.storage.pagefile import CheckpointStore
    from repro.storage.wal import WriteAheadLog

    impl = kernels.backend_module()
    targets = [
        (SWAREBuffer, fn, f"core.buffer.{fn}")
        for fn in ("add", "add_many", "prepare_flush", "drain", "lookup", "range_entries")
    ]
    targets += [
        (SortednessAwareIndex, fn, f"core.sware.{fn}")
        for fn in ("insert", "put_many", "get", "get_many", "range_query", "checkpoint")
    ]
    targets += [
        (BPlusTree, fn, f"btree.{fn}")
        for fn in ("bulk_load_append", "insert", "get", "get_many", "range_query", "delete")
    ]
    # Tree code calls the backend module directly (kernels.backend_module()),
    # so the backend's functions are wrapped, not the dispatch shims.
    targets += [(impl, fn, f"kernels.{fn}") for fn in KERNELS]
    targets += [
        (WriteAheadLog, fn, f"storage.wal.{fn}")
        for fn in ("append_put", "append_puts", "sync", "reset")
    ]
    targets += [
        (CheckpointStore, fn, f"storage.pagefile.{fn}")
        for fn in ("save_index", "load_btree", "recover")
    ]
    return targets


def protocol_targets() -> List[Tuple[object, str, str]]:
    """Every encode/decode function of the wire protocol, as two spans."""
    from repro.net import protocol

    targets = []
    for attr in sorted(vars(protocol)):
        if attr.startswith("encode_"):
            targets.append((protocol, attr, "net.protocol.encode"))
        elif attr.startswith("decode_") or attr == "check_payload":
            targets.append((protocol, attr, "net.protocol.decode"))
    return targets


def net_targets() -> List[Tuple[object, str, str]]:
    """The wire protocol and the sharded index behind the server. Traced
    in-process runs install these too, so a net span there would show."""
    from repro.net.sharded import ShardedSortednessAwareIndex

    return protocol_targets() + [
        (ShardedSortednessAwareIndex, fn, f"net.sharded.{fn}")
        for fn in ("put", "get", "range_query", "put_many", "get_many")
    ]


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def covered_ns(start: int, end: int, intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[list]) -> List[int]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def under(spans: Sequence[list], ancestor: str) -> List[bool]:
    """For each span, whether a span named ``ancestor`` encloses it (a
    parent is always recorded before its children)."""
    inside: List[bool] = []
    for span in spans:
        parent = span[PARENT]
        inside.append(parent >= 0 and (spans[parent][NAME] == ancestor or inside[parent]))
    return inside


def aggregate(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed self and total nanoseconds."""
    out: Dict[str, Dict[str, float]] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        entry = out.get(span[NAME])
        if entry is None:
            entry = out[span[NAME]] = {"calls": 0, "self_ns": 0, "total_ns": 0}
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        entry["total_ns"] += span[END] - span[START]
    return out


def merge_aggregates(*parts: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, entry in part.items():
            into = out.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            for key in into:
                into[key] += entry[key]
    return out


def write_spans(path: str, spans: Sequence[list]) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent, request_id."""
    with open(path, "w") as fobj:
        for span in spans:
            fobj.write(json.dumps(span))
            fobj.write("\n")
