"""Metric catalogue, nearest-rank percentiles and run provenance.

The names here are the benchmark's contract: ``BENCHMARK.json`` at the
repository root lists the same end-to-end and per-layer metrics, and
``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import socket
import subprocess
import sys
from typing import Dict, List, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: (name, unit, better) of every end-to-end metric, reported by every
#: workload on untraced runs.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("write_keys_per_s", "1/s", "higher"),
    ("write_p50_us", "us", "lower"),
    ("read_p50_us", "us", "lower"),
    ("scan_p50_us", "us", "lower"),
    ("recover_s", "s", "lower"),
    ("disk_bytes_per_user_byte", "B/B", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Tail latencies: printed and kept in the result file with their sample
#: counts, but not end-to-end metrics of BENCHMARK.json. On the 2-core VM
#: the benchmark was calibrated on, their raw spread over ten seeds was
#: 28-79% (a disk or scheduling stall of a few seconds moves a p95); at the
#: reference pace of ``pace.py`` it still reached 24% (ingest scan p95),
#: too near the largest bound a metric may have.
TAILS = [("write_p95_us", "us"), ("read_p95_us", "us"), ("scan_p95_us", "us")]

#: Every timed metric: kept raw (as measured, before the reference pace of
#: ``pace.py``) in the result file beside its paced value.
TIMED = [
    (name, unit) for name, unit, _better in END_TO_END if unit in ("s", "us", "1/s")
] + TAILS

#: Kernels traced on the hot paths (functions of the active backend module).
KERNELS = [
    "probe_positions",
    "partition_runs",
    "leaf_find_positions",
    "concat_stores",
    "leaf_range_bounds",
    "merge_positions",
    "merge_insert_keys",
    "shared_bases",
    "bloom_add_many",
    "bloom_contains_many",
    "nondecreasing_prefix_len",
    "sort_tail_entries",
    "merge_entry_streams",
    "sort_items_by_key",
    "key_column",
    "searchsorted_range",
    "delta_pack",
    "delta_unpack",
]

COST_BUCKETS = ["sort", "bulk_load", "top_insert", "buffer_search", "tree_search"]


def _layer_metrics() -> List[tuple]:
    out = []
    for fn in ("add_many", "prepare_flush", "lookup"):
        out.append((f"core.buffer.{fn}.self_s", "s"))
    out += [("core.buffer.hit_ratio", "ratio"), ("core.buffer.effortless_flush_ratio", "ratio")]
    for fn in ("put_many", "get", "get_many", "range_query"):
        out.append((f"core.sware.{fn}.self_s", "s"))
    out.append(("core.sware.bulk_load_ratio", "ratio"))
    out += [("filters.bloom.false_positive_ratio", "ratio"), ("filters.bloom.negatives", "count")]
    for fn in ("bulk_load_append", "insert", "get", "get_many", "range_query"):
        out += [(f"btree.{fn}.calls", "count"), (f"btree.{fn}.self_s", "s")]
    for fn in KERNELS:
        out += [(f"kernels.{fn}.calls", "count"), (f"kernels.{fn}.self_s", "s")]
    out += [
        ("storage.wal.append_puts.self_s", "s"),
        ("storage.wal.sync.calls", "count"),
        ("storage.wal.sync.self_s", "s"),
        ("storage.wal.bytes_per_user_byte", "B/B"),
        ("storage.pagefile.save_index.self_s", "s"),
        ("storage.pagefile.load_btree.self_s", "s"),
        ("storage.pagefile.recover.replay_s", "s"),
        ("storage.pagefile.checkpoint_bytes_per_user_byte", "B/B"),
    ]
    for fn in ("put", "get", "range_query"):
        out.append((f"net.sharded.{fn}.self_s", "s"))
    out += [
        ("net.sharded.commit.calls", "count"),
        ("net.sharded.commit.self_s", "s"),
        ("net.sharded.fsyncs_per_commit", "ratio"),
        ("net.server.acks_per_commit", "ratio"),
        ("net.server.ack_wait_us", "us"),
        ("net.protocol.encode.self_s", "s"),
        ("net.protocol.decode.self_s", "s"),
    ]
    for kind in ("put", "get", "range_query"):
        out.append((f"net.client.{kind}.unattributed_us", "us"))
    for bucket in COST_BUCKETS:
        out += [(f"costmodel.{bucket}.sim_ns", "ns"), (f"costmodel.{bucket}.wall_s", "s")]
    return out


#: Ratios and counts where more is better; every other per-layer metric is
#: a time, a byte ratio or a work count, where less is better.
HIGHER_IS_BETTER = {
    "core.buffer.hit_ratio",
    "core.buffer.effortless_flush_ratio",
    "core.sware.bulk_load_ratio",
    "filters.bloom.negatives",
    "net.server.acks_per_commit",
}

#: (name, unit, better) of every per-layer metric, reported by every
#: workload on traced runs (zero where the workload never enters the layer).
PER_LAYER = [
    (name, unit, "higher" if name in HIGHER_IS_BETTER else "lower")
    for name, unit in _layer_metrics()
]

#: Which end-to-end metric each layer should move ("claims"), and the
#: workload on which a change to it should show no change ("bypass").
#: Keys are metric-name prefixes; the longest matching prefix applies.
MOVES: Dict[str, dict] = {
    "core.buffer": {
        "claims": ["ingest.write_keys_per_s", "ingest.read_p50_us"],
        "bypass": "lookup",
    },
    "core.sware": {"claims": ["ingest.write_keys_per_s"], "bypass": "lookup"},
    "filters.bloom": {"claims": ["ingest.read_p50_us"], "bypass": "lookup"},
    "btree.bulk_load_append": {"claims": ["ingest.write_keys_per_s"], "bypass": "lookup"},
    "btree.insert": {"claims": ["lookup.write_p50_us"], "bypass": "serve"},
    "btree.get_many": {"claims": ["lookup.read_p50_us"], "bypass": "ingest"},
    "btree.range_query": {"claims": ["lookup.scan_p50_us"], "bypass": "ingest"},
    "btree.get": {"claims": ["serve.read_p50_us"], "bypass": "lookup"},
    "kernels": {"claims": ["lookup.read_p50_us", "ingest.write_keys_per_s"], "bypass": "serve"},
    "storage.wal": {"claims": ["ingest.write_p50_us", "serve.write_p50_us"], "bypass": "lookup"},
    "storage.pagefile": {
        "claims": [
            "ingest.write_keys_per_s",
            "ingest.recover_s",
            "ingest.disk_bytes_per_user_byte",
        ],
        "bypass": "serve",
    },
    "net.sharded": {"claims": ["serve.write_p50_us", "serve.ops_per_s"], "bypass": "ingest"},
    "net.server": {"claims": ["serve.write_p50_us"], "bypass": "ingest"},
    "net.protocol": {"claims": ["serve.read_p50_us"], "bypass": "ingest"},
    "net.client": {"claims": ["serve.read_p50_us"], "bypass": "ingest"},
    "costmodel.sort": {"claims": ["ingest.write_keys_per_s"], "bypass": "lookup"},
    "costmodel.bulk_load": {"claims": ["ingest.write_keys_per_s"], "bypass": "lookup"},
    "costmodel.top_insert": {"claims": ["lookup.write_p50_us"], "bypass": "serve"},
    "costmodel.buffer_search": {"claims": ["ingest.read_p50_us"], "bypass": "lookup"},
    "costmodel.tree_search": {"claims": ["lookup.read_p50_us"], "bypass": "ingest"},
}


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not NAME_RE.fullmatch(name) or len(name) > 64 or not name[0].isalnum():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1]


def beyond_tail(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


#: Fewest samples a latency percentile is reported from: ten of them lie
#: beyond the p95.
MIN_SAMPLES = 200


def latency(samples_ns: Sequence[int], label: str) -> dict:
    """Nearest-rank p50 and p95 (µs) over every sample of the timed phase."""
    n = len(samples_ns)
    if beyond_tail(n, 95.0) < 10:
        raise ValueError(
            f"{label}: {n} samples, fewer than the {MIN_SAMPLES} a p95 with"
            " ten samples beyond it needs"
        )
    ordered = sorted(samples_ns)
    return {"p50_us": nearest_rank(ordered, 50.0) / 1e3, "p95_us": nearest_rank(ordered, 95.0) / 1e3, "n": n}


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live child process, from /proc."""
    with open(f"/proc/{pid}/status") as fobj:
        for line in fobj:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def provenance(root: str, seed: int, workload: str, params: dict) -> dict:
    """Where and on what a run happened, recorded with every result."""
    from repro import kernels

    sha, dirty = "unknown", None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout
        dirty = bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        pass  # a source export without git metadata
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "hostname": socket.gethostname(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "kernel_backend": kernels.active_backend(),
        "fsync_policy": "batch",
        "workload": workload,
        "seed": seed,
        "params": params,
    }
