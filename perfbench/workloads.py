"""The three workloads: ``ingest``, ``lookup`` (in-process) and ``serve``.

A run is split into parts (``"parts"`` below), each a fresh process (see
``run.py``) that runs the whole workload at its share of ``--seconds``: it
generates its inputs from the seed and its part number before any timer
starts, times its set-up, runs one closed-loop caller (two connections for
``serve``), checks every answer against an oracle, and finishes with a
simulated crash and a timed recovery whose result is checked too. Every
time is reported at the reference pace of ``pace.py`` (the raw wall times
are kept beside them). All WALs use ``fsync=batch`` with a sync covering
every acknowledged write.

Each part returns a plain dict of raw results (latency samples, times,
byte counts and, when traced, span aggregates and counters). ``combine``
turns the parts of a run into its metrics: latencies are nearest-rank
percentiles over every part's samples, rates are completions over the
summed timed phases, set-up time is the median and recovery time the mean
over the parts, and per-layer numbers are sums over the parts.

Values are ``3 * key + 1``, so one key-value pair is 16 user bytes
(an int64 key and an int64 value); ``disk_bytes_per_user_byte`` divides the
files on disk at the crash point by that count.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from metrics import COST_BUCKETS, PER_LAYER, latency, median, own_peak_rss_mb, pid_peak_rss_mb
from pace import HALF_WINDOW, Pace
from spans import END, NAME, START, Tracer, aggregate, merge_aggregates, self_times, under

USER_BYTES_PER_KEY = 16
#: The repository's ``near_sorted`` degree: K=10% of keys displaced, by at
#: most L=5% of the stream length.
K_FRACTION = 0.10
L_FRACTION = 0.05

INGEST = {
    "parts": 5,
    # 128 keys per write: a flush cycle (every 2,048 keys, half the default
    # 4,096-entry buffer) then rides on 6.25% of writes, so write_p95 measures
    # flush-time sorting and routing rather than the host's fsync tail.
    "write_batch": 128,
    "reads_per_write": 8,
    "read_recent": 4096,
    "scan_every_writes": 4,
    "scan_keys": 256,
    "checkpoint_every_keys": 32768,
    # Stream length per second of --seconds: about what this commit ingests
    # per second on a 2-core VM, so the stream (and the crash state at its
    # end) is a function of the seed and --seconds only. At 10 s a part
    # ingests 89,984 keys: L = 5% of them is 1.1 buffers.
    "keys_per_second": 45000,
    "setups": 2,
    "recoveries": 2,
}

LOOKUP = {
    "parts": 6,
    # Even keys 0, 2, ..., 2^20 - 2: 128 times the SWARE buffer, and small
    # enough that every part can bulk-load and recover its own copy.
    "n_keys": 1 << 19,
    "bulk_chunk": 4096,
    "read_batch": 16,
    "scan_keys": 256,
    "write_batch": 8,
    # Random writes logged after the checkpoint during set-up: the 4,096-
    # entry buffer fills, flushes half, and refills to 3,584 entries, so
    # every part's timed writes (about 770 keys at 10 s) cross a flush and
    # reach the tree through top inserts.
    "prefill_keys": 5632,
    "mix": {"read": 0.85, "scan": 0.10, "write": 0.05},
    # Script length per second of --seconds: about what this commit serves
    # per second on a 2-core VM. The whole script always runs, so every op
    # kind has a sample count fixed by the seed and --seconds.
    "ops_per_second": 1150,
    "setups": 1,
    "recoveries": 2,
}

SERVE = {
    "parts": 4,
    "preload_keys": 65536,  # 4x the 4 shards' combined 16,384-entry buffers
    "preload_batch": 2048,
    "connections": 2,
    "mix": {"put": 0.45, "get": 0.45, "scan": 0.10},
    "scan_keys": 256,
    # Requests per connection per second of --seconds: about what this
    # commit serves on a 2-core VM. Each connection runs its whole script.
    "ops_per_connection_per_second": 690,
    "readback_batch": 1000,
    "shards": 4,
    # Requests per connection between two chances for a reference run.
    "round_requests": 16,
}


def value_of(key: int) -> int:
    return 3 * key + 1


WORKLOADS = {"ingest": INGEST, "lookup": LOOKUP, "serve": SERVE}


def exact_mix(mix: Dict[str, float], n: int, rng: random.Random) -> List[str]:
    """About ``n`` request kinds in exactly the shares of ``mix``, in a
    seeded random order: the mix, and so the work of a script, does not
    vary with the seed."""
    kinds = [kind for kind, share in mix.items() for _ in range(round(share * n))]
    rng.shuffle(kinds)
    return kinds


def part_seed(seed: int, part: int) -> int:
    """Distinct inputs for every (seed, part) pair (at most 16 parts)."""
    return seed * 16 + part


def new_part(params: dict) -> dict:
    """The results of one part; ``combine`` reads these keys. Times are at
    the reference pace, and ``raw`` holds the same times as measured."""
    return {
        "params": params,
        "lat": {"write": [], "read": [], "scan": []},
        "elapsed_ns": 0,
        "write_keys": 0,
        "setup_s": [],
        "recover_s": [],
        "raw": {"lat": {}, "elapsed_ns": 0, "setup_s": [], "recover_s": []},
        "pace": {},
        "disk_bytes": 0,
        "user_bytes": 0,
        "peak_rss_mb": 0.0,
        "attempted": 0,
        "failed": 0,
        "notes": [],
    }


def paced(part: dict, what: str, pace: Pace, fn):
    """Call ``fn`` between reference runs and append its duration, at the
    reference pace and raw, to the part's ``what`` list; return its result."""
    out, raw_s, paced_s = pace.measure(fn)
    part[what].append(paced_s)
    part["raw"][what].append(raw_s)
    return out


def pace_timed_phase(part: dict, pace: Pace, t0: int, t1: int) -> None:
    """Turn the part's latency samples — (start, end), or (start, mid, end)
    for writes, whose [mid, end] is the WAL sync, a wait on the disk — and
    its timed phase [t0, t1] into durations at the reference pace, keeping
    the raw ones."""
    raw = part["raw"]
    syncs = [(x[1], x[2]) for intervals in part["lat"].values() for x in intervals if len(x) == 3]
    for kind, intervals in part["lat"].items():
        raw["lat"][kind] = [x[-1] - x[0] for x in intervals]
        part["lat"][kind] = pace.scale(intervals)
    raw["elapsed_ns"] = t1 - t0
    part["elapsed_ns"] = pace.span_ns(t0, t1, syncs)
    core, disk = zip(*pace.factors())
    part["pace"] = {
        "reference_runs": len(pace.took),
        "core_reference_p50_us": median(pace.took) / 1e3,
        "disk_reference_p50_us": median(pace.synced) / 1e3,
        "wal_sync_p50_us": median([end - start for start, end in syncs]) / 1e3 if syncs else None,
        "core_factor_range": [min(core), max(core)],
        "disk_factor_range": [min(disk), max(disk)],
    }


def fail(part: dict, what: str) -> None:
    part["failed"] += 1
    if len(part["notes"]) < 20:
        part["notes"].append(what)


def program_env(root: str) -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (os.path.join(root, "src"), env.get("PYTHONPATH")) if x
    )
    return env


def _file_bytes(*paths: str) -> int:
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


def _tree_bytes(root: str, only: Optional[str] = None) -> int:
    """Bytes of the files under ``root`` (only those named ``only``, if set)."""
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirs, names in os.walk(root)
        for name in names
        if only is None or name == only
    )


def numeric_stats(stats) -> Dict[str, float]:
    return {k: v for k, v in stats.snapshot().items() if isinstance(v, (int, float))}


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def add_into(into: Dict[str, float], more: Dict[str, float]) -> Dict[str, float]:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value
    return into


def read_path(spans) -> Dict[str, int]:
    """How the time of ``SortednessAwareIndex.get_many`` splits: its total,
    the part spent inside ``BPlusTree.get_many`` (with that call's kernels),
    and the kernels' self time within it."""
    in_sware = under(spans, "core.sware.get_many")
    in_tree = under(spans, "btree.get_many")
    out = {"sware_get_many_ns": 0, "tree_get_many_ns": 0, "tree_kernels_self_ns": 0}
    for span, self_ns, sw, tr in zip(spans, self_times(spans), in_sware, in_tree):
        name = span[NAME]
        if name == "core.sware.get_many":
            out["sware_get_many_ns"] += span[END] - span[START]
        elif name == "btree.get_many" and sw:
            out["tree_get_many_ns"] += span[END] - span[START]
        elif name.startswith("kernels.") and sw and tr:
            out["tree_kernels_self_ns"] += self_ns
    return out


def inprocess_trace(part: dict, timed, recovery, sware, meter, sums) -> None:
    """The traced results of an in-process part: span aggregates of the
    timed phase and of the recovery, SWARE counters and summable sums."""
    from repro.storage.costmodel import CostModel

    part["agg"] = aggregate(timed)
    part["recovery_agg"] = aggregate(recovery)
    part["sware"] = sware
    sim = meter.bucket_nanos(CostModel())
    for bucket in COST_BUCKETS:
        sums[f"sim_ns.{bucket}"] = sim.get(bucket, 0.0)
        sums[f"wall_ns.{bucket}"] = meter.bucket_wall_ns.get(bucket, 0)
    part["sums"] = add_into(sums, read_path(timed))
    part["spans"] = timed


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def run_ingest(seed: int, seconds: float, workdir: str, tracer: Optional[Tracer], root: str) -> dict:
    from repro.btree.btree import BPlusTree
    from repro.core.sware import SortednessAwareIndex
    from repro.sortedness.generator import generate_kl_keys
    from repro.storage.costmodel import Meter
    from repro.storage.pagefile import CheckpointStore
    from repro.storage.wal import WriteAheadLog

    p = INGEST
    cycle = p["checkpoint_every_keys"]
    batch_n = p["write_batch"]
    n = max(cycle, int(seconds * p["keys_per_second"]) // batch_n * batch_n)
    part = new_part(dict(p, stream_keys=n, k=K_FRACTION, l=L_FRACTION))
    recent = p["read_recent"]
    keys = generate_kl_keys(n, K_FRACTION, L_FRACTION, seed=seed)
    rng = random.Random(seed * 7919 + 1)
    n_writes = n // batch_n
    read_offsets = [rng.randrange(recent) for _ in range(n_writes * p["reads_per_write"])]
    scan_offsets = [rng.randrange(recent) for _ in range(n_writes // p["scan_every_writes"] + 1)]
    meter = Meter() if tracer is not None else None
    pace = Pace(os.path.join(workdir, "pace.bin"))

    # Set-up is a cold open: a fresh interpreter imports the program and
    # opens an empty durable index (an in-process open takes ~0.1 ms, too
    # little to time steadily). The timed phase then opens its own.
    for i in range(p["setups"]):
        path = os.path.join(workdir, f"cold-{i}")
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "open_index.py"), path]
        paced(part, "setup_s", pace,
              lambda: subprocess.run(cmd, env=program_env(root), check=True, timeout=120))
        shutil.rmtree(path)
    path = os.path.join(workdir, "ingest")
    os.makedirs(path)
    wal = WriteAheadLog(os.path.join(path, "wal.log"), fsync_policy="batch")
    store = CheckpointStore(os.path.join(path, "checkpoint.db"))
    index = SortednessAwareIndex(BPlusTree(), wal=wal, meter=meter)

    lat = part["lat"]
    writes, reads, scans = lat["write"], lat["read"], lat["scan"]
    written = bytearray(n)
    clock = time.perf_counter_ns
    reads_per_write = p["reads_per_write"]
    scan_every = p["scan_every_writes"]
    scan_span = p["scan_keys"] - 1
    pos = 0
    req = 0
    stats_before = numeric_stats(index.stats)
    if tracer is not None:
        tracer.take()
        tracer.recording = True
    pace.mark()
    t0 = clock()
    for w in range(n_writes):
        batch = [(k, value_of(k)) for k in keys[pos : pos + batch_n]]
        if tracer is not None:
            tracer.request_id = req
        start = clock()
        index.put_many(batch)
        mid = clock()
        wal.sync()
        end = clock()
        writes.append((start, mid, end))
        req += 1
        for k in keys[pos : pos + batch_n]:
            written[k] = 1
        pos += batch_n
        if pos % cycle == 0:
            index.checkpoint(store)
        window = min(pos, recent)
        for r in range(w * reads_per_write, (w + 1) * reads_per_write):
            key = keys[pos - 1 - read_offsets[r] % window]
            if tracer is not None:
                tracer.request_id = req
            start = clock()
            got = index.get(key)
            end = clock()
            reads.append((start, end))
            req += 1
            if got != value_of(key):
                fail(part, f"get({key}) returned {got!r}")
        if w % scan_every == 0:
            lo = keys[pos - 1 - scan_offsets[w // scan_every] % window]
            hi = lo + scan_span
            if tracer is not None:
                tracer.request_id = req
            start = clock()
            got = index.range_query(lo, hi)
            end = clock()
            scans.append((start, end))
            req += 1
            expected = [(k, value_of(k)) for k in range(lo, min(hi, n - 1) + 1) if written[k]]
            if got != expected:
                fail(part, f"range_query({lo}, {hi}) returned {len(got)} items")
        pace.tick()
    t1 = clock()
    pace.mark()
    part["write_keys"] = pos
    part["attempted"] = req
    timed = tracer.take() if tracer is not None else []

    # Crash: drop the index with its buffer undrained, close the log.
    user_bytes = USER_BYTES_PER_KEY * pos
    ckpt_bytes = _file_bytes(store.path)
    part["disk_bytes"] = ckpt_bytes + _file_bytes(wal.path)
    part["user_bytes"] = user_bytes
    wal.close()
    sware = counter_delta(stats_before, numeric_stats(index.stats))
    sums = {"wal_bytes": wal.bytes_written, "wal_user_bytes": user_bytes,
            "ckpt_bytes": ckpt_bytes, "user_bytes": user_bytes}
    del index
    part["peak_rss_mb"] = own_peak_rss_mb()
    expected_items = sorted((k, value_of(k)) for k in keys[:pos])
    for i in range(1 if tracer is not None else p["recoveries"]):
        recovered, report = paced(part, "recover_s", pace,
                                  lambda: CheckpointStore(store.path).recover(wal.path))
        part["attempted"] += 1
        # Recovery is deterministic: the first one is compared item by item,
        # the repeats by their live-entry count.
        ok = recovered.items() == expected_items if i == 0 else report.entries == pos
        if not ok:
            fail(part, "recovered index differs from the oracle")
        del recovered
    pace_timed_phase(part, pace, t0, t1)
    if tracer is not None:
        inprocess_trace(part, timed, tracer.take(), sware, meter, sums)
    return part


# ----------------------------------------------------------------------
# lookup
# ----------------------------------------------------------------------
def run_lookup(seed: int, seconds: float, workdir: str, tracer: Optional[Tracer], root: str) -> dict:
    from repro.btree.btree import BPlusTree
    from repro.core.sware import SortednessAwareIndex
    from repro.storage.costmodel import Meter
    from repro.storage.pagefile import CheckpointStore
    from repro.storage.wal import WriteAheadLog

    p = LOOKUP
    n_keys = p["n_keys"]
    rng = random.Random(seed * 7919 + 2)
    kinds = exact_mix(p["mix"], int(seconds * p["ops_per_second"]), rng)
    part = new_part(dict(p, script_ops=len(kinds)))
    script = []
    n_write_ops = 0
    for kind in kinds:
        if kind == "read":
            # Half even (present) and half odd (absent unless written).
            script.append(("read", [2 * rng.randrange(n_keys) + rng.randrange(2)
                                    for _ in range(p["read_batch"])]))
        elif kind == "scan":
            script.append(("scan", 2 * rng.randrange(n_keys - p["scan_keys"])))
        else:
            script.append(("write", None))
            n_write_ops += 1
    n_fresh = p["prefill_keys"] + n_write_ops * p["write_batch"]
    fresh = [2 * r + 1 for r in rng.sample(range(n_keys), n_fresh)]
    prefill = [(k, value_of(k)) for k in fresh[: p["prefill_keys"]]]
    items = [(2 * i, value_of(2 * i)) for i in range(n_keys)]
    chunk = p["bulk_chunk"]
    meter = Meter() if tracer is not None else None
    pace = Pace(os.path.join(workdir, "pace.bin"))

    def setup(path):
        tree = BPlusTree()
        for at in range(0, n_keys, chunk):
            tree.bulk_load_append(items[at : at + chunk])
        store = CheckpointStore(os.path.join(path, "checkpoint.db"))
        wal = WriteAheadLog(os.path.join(path, "wal.log"), fsync_policy="batch")
        index = SortednessAwareIndex(tree, wal=wal, meter=meter)
        index.checkpoint(store)
        index.put_many(prefill)
        wal.sync()
        return tree, store, wal, index

    for i in range(p["setups"]):
        path = os.path.join(workdir, f"lookup-{i}")
        os.makedirs(path)
        tree, store, wal, index = paced(part, "setup_s", pace, lambda: setup(path))
        if i < p["setups"] - 1:
            wal.close()
            del index, tree
            shutil.rmtree(path)
            gc.collect()
    del items
    if meter is not None:
        meter.reset()

    extra: Dict[int, int] = dict(prefill)  # written odd keys
    extra_sorted: List[int] = sorted(extra)
    lat = part["lat"]
    writes, reads, scans = lat["write"], lat["read"], lat["scan"]
    clock = time.perf_counter_ns
    scan_span = 2 * p["scan_keys"] - 1
    write_batch = p["write_batch"]
    next_fresh = p["prefill_keys"]
    req = 0
    stats_before = numeric_stats(index.stats)
    wal_before = wal.bytes_written
    if tracer is not None:
        tracer.take()
        tracer.recording = True
    pace.mark()
    t0 = clock()
    for kind, arg in script:
        if tracer is not None:
            tracer.request_id = req
        if kind == "read":
            start = clock()
            got = index.get_many(arg)
            end = clock()
            reads.append((start, end))
            for key, value in zip(arg, got):
                want = value_of(key) if key % 2 == 0 or key in extra else None
                if value != want:
                    fail(part, f"get_many: key {key} returned {value!r}")
        elif kind == "scan":
            lo, hi = arg, arg + scan_span
            start = clock()
            got = index.range_query(lo, hi)
            end = clock()
            scans.append((start, end))
            odd = extra_sorted[bisect.bisect_left(extra_sorted, lo) : bisect.bisect_right(extra_sorted, hi)]
            want = sorted([(k, value_of(k)) for k in range(lo, hi + 1, 2)] + [(k, extra[k]) for k in odd])
            if got != want:
                fail(part, f"range_query({lo}, {hi}) returned {len(got)} items")
        else:
            batch = [(k, value_of(k)) for k in fresh[next_fresh : next_fresh + write_batch]]
            next_fresh += write_batch
            start = clock()
            index.put_many(batch)
            mid = clock()
            wal.sync()
            end = clock()
            writes.append((start, mid, end))
            for k, v in batch:
                extra[k] = v
                bisect.insort(extra_sorted, k)
        req += 1
        pace.tick()
    t1 = clock()
    pace.mark()
    part["write_keys"] = len(writes) * write_batch
    part["attempted"] = req
    timed = tracer.take() if tracer is not None else []

    live = n_keys + len(extra)
    user_bytes = USER_BYTES_PER_KEY * live
    ckpt_bytes = _file_bytes(store.path)
    part["disk_bytes"] = ckpt_bytes + _file_bytes(wal.path)
    part["user_bytes"] = user_bytes
    wal.close()
    sware = counter_delta(stats_before, numeric_stats(index.stats))
    sums = {"wal_bytes": wal.bytes_written - wal_before,
            "wal_user_bytes": USER_BYTES_PER_KEY * (len(extra) - len(prefill)),
            "ckpt_bytes": ckpt_bytes, "user_bytes": user_bytes}
    del index, tree
    part["peak_rss_mb"] = own_peak_rss_mb()
    gc.collect()
    odd_keys = sorted(extra)
    sample = odd_keys + [2 * rng.randrange(n_keys) for _ in range(4096)]
    for i in range(p["recoveries"]):
        recovered, report = paced(part, "recover_s", pace,
                                  lambda: CheckpointStore(store.path).recover(wal.path))
        part["attempted"] += 1
        # The first recovery is checked on every written key and a sample of
        # bulk-loaded ones, repeats of the deterministic replay by count.
        ok = report.entries == live
        if i == 0:
            ok = ok and recovered.get_many(sample) == [value_of(k) for k in sample]
        if not ok:
            fail(part, "recovered index differs from the oracle")
        del recovered
    pace_timed_phase(part, pace, t0, t1)
    if tracer is not None:
        inprocess_trace(part, timed, tracer.take(), sware, meter, sums)
    return part


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` child, its log file and its port."""

    def __init__(self, cmd: List[str], log_path: str, env: dict, cwd: str):
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=self._log, env=env, cwd=cwd)
        self.port = self._wait_port(timeout=120.0)

    def _wait_port(self, timeout: float) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path) as fobj:
                for line in fobj:
                    if line.startswith("serving ") and " on " in line:
                        return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not come up; see {self.log_path}")

    def kill(self) -> None:
        """SIGKILL: the crash the durability check recovers from."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=60)
        self._log.close()

    def stop(self) -> None:
        """Graceful shutdown (the CLI handles SIGINT), SIGKILL as a fallback."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait(timeout=60)
        self._log.close()


async def _connect(port: int):
    from repro.net.client import IndexClient

    return await IndexClient.connect("127.0.0.1", port)


async def _preload(port: int, items, batch: int) -> None:
    client = await _connect(port)
    try:
        for at in range(0, len(items), batch):
            await client.put_many(items[at : at + batch])
    finally:
        await client.close()


def run_serve(seed: int, seconds: float, workdir: str, tracer: Optional[Tracer], root: str) -> dict:
    from repro.errors import ReproError
    from repro.sortedness.generator import generate_kl_keys

    p = SERVE
    conns = p["connections"]
    per_conn = int(seconds * p["ops_per_connection_per_second"])
    n_pre = p["preload_keys"]
    n_total = n_pre + conns * per_conn
    part = new_part(dict(p, stream_keys=n_total, k=K_FRACTION, l=L_FRACTION))
    keys = generate_kl_keys(n_total, K_FRACTION, L_FRACTION, seed=seed)
    preload = [(k, value_of(k)) for k in keys[:n_pre]]
    put_streams = [keys[n_pre + c :: conns] for c in range(conns)]
    rng = random.Random(seed * 7919 + 3)
    scripts = [
        [(kind, rng.random()) for kind in exact_mix(p["mix"], per_conn, rng)]
        for _c in range(conns)
    ]

    env = program_env(root)
    serve_opts = [
        "--port", "0", "--shards", str(p["shards"]), "--fsync", "batch",
        "--split-threshold", "0", "--key-range", "0", str(n_total),
    ]
    dump_path = os.path.join(workdir, "server-dump.json")
    root_dir = os.path.join(workdir, "serve")
    if tracer is not None:
        head = [sys.executable, os.path.join(root, "perfbench", "serve_traced.py"), dump_path]
    else:
        head = [sys.executable, "-m", "repro"]

    # The server runs on whichever core is free: pace by all of them.
    pace = Pace(os.path.join(workdir, "pace.bin"), every_core=True)
    server: Optional[ServerProcess] = None

    def boot():
        nonlocal server
        server = ServerProcess(head + ["serve", root_dir] + serve_opts,
                               os.path.join(workdir, "server.log"), env, root)
        asyncio.run(_preload(server.port, preload, p["preload_batch"]))

    try:
        paced(part, "setup_s", pace, boot)

        acked: List[int] = [k for k, _v in preload]
        ack_seq: Dict[int, int] = {k: i for i, k in enumerate(acked)}
        sent = set(acked)
        lat = part["lat"]
        clock = time.perf_counter_ns
        span = p["scan_keys"] - 1

        async def connection(client, puts, script, done_puts):
            """Run ``script`` on one connection; return the puts done."""
            for kind, u in script:
                part["attempted"] += 1
                try:
                    if kind == "put":
                        key = puts[done_puts]
                        done_puts += 1
                        sent.add(key)
                        start = clock()
                        await client.put(key, value_of(key))
                        end = clock()
                        lat["write"].append((start, end))
                        ack_seq[key] = len(acked)
                        acked.append(key)
                    elif kind == "get":
                        key = acked[int(u * len(acked))]
                        start = clock()
                        got = await client.get(key)
                        end = clock()
                        lat["read"].append((start, end))
                        if got != value_of(key):
                            fail(part, f"get({key}) returned {got!r}")
                    else:
                        lo = acked[int(u * len(acked))]
                        hi = lo + span
                        before = len(acked)
                        start = clock()
                        got = await client.range_query(lo, hi)
                        end = clock()
                        lat["scan"].append((start, end))
                        # Writes acked before the scan was sent must show;
                        # writes still in flight may; nothing unsent may.
                        got_keys = [k for k, _v in got]
                        must = {k for k in range(lo, hi + 1) if ack_seq.get(k, before) < before}
                        if (
                            any(v != value_of(k) or k not in sent for k, v in got)
                            or got_keys != sorted(set(got_keys))
                            or not must <= set(got_keys)
                            or (got_keys and (got_keys[0] < lo or got_keys[-1] > hi))
                        ):
                            fail(part, f"range_query({lo}, {hi}) returned {len(got)} items")
                except (ReproError, ConnectionError, OSError) as exc:
                    fail(part, f"{kind}: {exc!r}")
            return done_puts

        async def timed_phase():
            clients = [await _connect(server.port) for _ in range(conns)]
            try:
                before = await clients[0].stats()  # marks the start for traced servers
                if tracer is not None:
                    tracer.take()
                    tracer.recording = True
                # Rounds of a few requests per connection; the references
                # run between rounds, when no request is in flight.
                rounds = p["round_requests"]
                done_puts = [0] * conns
                pace.mark()
                t0 = clock()
                for at in range(0, len(scripts[0]), rounds):
                    done_puts = await asyncio.gather(*(
                        connection(clients[c], put_streams[c], scripts[c][at : at + rounds], done_puts[c])
                        for c in range(conns)
                    ))
                    pace.tick()
                t1 = clock()
                pace.mark()
                if tracer is not None:
                    tracer.recording = False
                after = await clients[0].stats()  # marks the end
                # Every acked write is visible to a full scan, and nothing else is.
                full = await clients[0].range_query(0, n_total)
                part["attempted"] += 1
                if full != [(k, value_of(k)) for k in sorted(acked)]:
                    fail(part, f"full scan returned {len(full)} items, {len(acked)} acked")
                return t0, t1, after["server"]["commits"] - before["server"]["commits"]
            finally:
                for client in clients:
                    await client.close()

        t0, t1, commits = asyncio.run(timed_phase())
        part["write_keys"] = len(lat["write"])
        user_bytes = USER_BYTES_PER_KEY * len(acked)
        part["disk_bytes"] = _tree_bytes(root_dir)
        part["user_bytes"] = user_bytes
        part["peak_rss_mb"] = pid_peak_rss_mb(server.proc.pid)
        if tracer is not None:
            server.proc.send_signal(signal.SIGUSR1)
            deadline = time.perf_counter() + 60
            while not os.path.exists(dump_path) and time.perf_counter() < deadline:
                time.sleep(0.01)
            with open(dump_path) as fobj:
                dump = json.load(fobj)

        async def read_back(port: int) -> int:
            """The time of the restarted server's first answer, after which
            every acked key is read back."""
            client = await _connect(port)
            try:
                await client.stats()
                ready = clock()
                ordered = sorted(acked)
                batch = p["readback_batch"]
                for at in range(0, len(ordered), batch):
                    chunk = ordered[at : at + batch]
                    part["attempted"] += 1
                    got = await client.get_many(chunk)
                    lost = sum(1 for k, v in zip(chunk, got) if v != value_of(k))
                    if lost:
                        fail(part, f"{lost} acked keys lost after restart")
                return ready
            finally:
                await client.close()

        # SIGKILL and restart on the same root: recover_s is the time from
        # the kill to the restarted server's first answer.
        pace.mark(HALF_WINDOW + 1)
        crash_at = clock()
        server.kill()
        server = ServerProcess(
            [sys.executable, "-m", "repro", "serve", root_dir, "--port", "0"],
            os.path.join(workdir, "server-restart.log"), env, root,
        )
        ready = asyncio.run(read_back(server.port))
        pace.mark(HALF_WINDOW + 1)
        part["recover_s"].append(pace.span_ns(crash_at, ready) / 1e9)
        part["raw"]["recover_s"].append((ready - crash_at) / 1e9)
        pace_timed_phase(part, pace, t0, t1)
        # A PUT waits for the server's commit loop, which wakes every 2 ms
        # of wall-clock time, and those waits bound the closed loop's
        # throughput: neither follows a core's speed, so both count as
        # measured.
        part["lat"]["write"] = part["raw"]["lat"]["write"]
        part["elapsed_ns"] = part["raw"]["elapsed_ns"]
        if tracer is not None:
            serve_trace(part, tracer.take(), dump, root_dir, user_bytes, commits)
    finally:
        if server is not None:
            server.stop()
    return part


def serve_trace(part: dict, client_spans, dump, root_dir, user_bytes, commits) -> None:
    """The traced results of a serve part: server-side span aggregates and
    counters from the server's dump, protocol spans from this client. The
    client's latencies are taken raw, like the server's spans."""
    lat = part["raw"]["lat"]
    part["agg"] = merge_aggregates(dump["aggregates"], aggregate(client_spans))
    part["recovery_agg"] = {}
    part["sware"] = dump["sware"]
    sums = {
        "fsyncs": dump["fsyncs"],
        "acks": dump["acks"],
        "ack_wait_ns": dump["ack_wait_ns"],
        "commits": commits,
        "timed_acks": len(lat["write"]),
        # Splits are off, so no shard checkpoints and the WALs hold every write.
        "wal_bytes": _tree_bytes(root_dir, "wal.log"),
        "wal_user_bytes": user_bytes,
        "ckpt_bytes": _tree_bytes(root_dir, "checkpoint.db"),
        "user_bytes": user_bytes,
    }
    for kind, label in (("put", "write"), ("get", "read"), ("range_query", "scan")):
        sums[f"client_ns.{kind}"] = sum(lat[label])
        sums[f"client_n.{kind}"] = len(lat[label])
    part["sums"] = sums
    part["spans"] = client_spans


# ----------------------------------------------------------------------
# combining the parts of a run
# ----------------------------------------------------------------------
class Run:
    """What one workload run produced, over all its parts."""

    def __init__(self, name: str, parts: List[dict]):
        self.name = name
        self.params = dict(parts[0]["params"], parts=len(parts))
        self.attempted = sum(x["attempted"] for x in parts)
        self.failed = sum(x["failed"] for x in parts)
        self.notes = [note for x in parts for note in x["notes"]]
        self.metrics: Dict[str, float] = {}
        #: The same timings as measured, before the reference pace.
        self.raw: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.aggregates: Dict[str, dict] = {}
        self.per_part: List[dict] = []


def timings(name: str, parts: List[dict]) -> Dict[str, float]:
    """Latency percentiles, rates, set-up and recovery time of the parts
    (each a dict with ``lat``, ``elapsed_ns``, ``setup_s`` and ``recover_s``)."""
    out = {}
    for kind in ("write", "read", "scan"):
        summary = latency([x for part in parts for x in part["lat"][kind]], f"{name}.{kind}")
        out[f"{kind}_p50_us"] = summary["p50_us"]
        out[f"{kind}_p95_us"] = summary["p95_us"]
    seconds = sum(part["elapsed_ns"] for part in parts) / 1e9
    completions = sum(len(lats) for part in parts for lats in part["lat"].values())
    out["ops_per_s"] = completions / seconds
    out["write_keys_per_s"] = sum(part["write_keys"] for part in parts) / seconds
    recoveries = [t for part in parts for t in part["recover_s"]]
    out["setup_s"] = median([t for part in parts for t in part["setup_s"]])
    out["recover_s"] = sum(recoveries) / len(recoveries)
    return out


def combine(name: str, parts: List[dict], traced: bool) -> Run:
    run = Run(name, parts)
    run.metrics.update(timings(name, parts))
    run.raw = timings(name, [dict(part["raw"], write_keys=part["write_keys"]) for part in parts])
    for kind in ("write", "read", "scan"):
        run.samples[kind] = sum(len(part["lat"][kind]) for part in parts)
    setups = [t for part in parts for t in part["setup_s"]]
    recoveries = [t for part in parts for t in part["recover_s"]]
    run.metrics["disk_bytes_per_user_byte"] = (
        sum(part["disk_bytes"] for part in parts) / sum(part["user_bytes"] for part in parts)
    )
    run.metrics["peak_rss_mb"] = median([part["peak_rss_mb"] for part in parts])
    run.samples.update(parts=len(parts), setups=len(setups), recoveries=len(recoveries))
    run.per_part = [
        {
            "ops_per_s": sum(len(lats) for lats in part["lat"].values()) / (part["elapsed_ns"] / 1e9),
            "setup_s": part["setup_s"],
            "recover_s": part["recover_s"],
            "pace": part["pace"],
        }
        for part in parts
    ]
    if traced:
        layers(run, parts)
    return run


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sware_ratios(stats: Dict[str, float]) -> Dict[str, float]:
    """Buffer, routing and Bloom ratios from summed ``SWAREStats`` counters."""
    false_pos = stats["global_bf_false_positives"] + stats["page_bf_false_positives"]
    negatives = stats["global_bf_negatives"] + stats["page_bf_negatives"]
    bulk, top = stats["bulk_loaded_entries"], stats["top_inserted_entries"]
    return {
        "core.buffer.hit_ratio": ratio(stats["buffer_hits"], stats["lookups"]),
        "core.buffer.effortless_flush_ratio": ratio(stats["flushes_without_sort"], stats["flushes"]),
        "core.sware.bulk_load_ratio": ratio(bulk, bulk + top),
        "filters.bloom.false_positive_ratio": ratio(false_pos, false_pos + negatives),
        "filters.bloom.negatives": negatives,
    }


def layers(run: Run, parts: List[dict]) -> None:
    """Every PER_LAYER metric of a traced run, summed over its parts:
    ``.self_s``/``.calls`` from span aggregates, the rest from counters
    (zero where the workload never enters the layer)."""
    agg = merge_aggregates(*(part["agg"] for part in parts))
    rec = merge_aggregates(*(part["recovery_agg"] for part in parts))
    sums: Dict[str, float] = {}
    sware: Dict[str, float] = {}
    for part in parts:
        add_into(sums, part["sums"])
        add_into(sware, part["sware"])
    special = sware_ratios(sware)
    special["storage.wal.bytes_per_user_byte"] = ratio(sums["wal_bytes"], sums["wal_user_bytes"])
    special["storage.pagefile.checkpoint_bytes_per_user_byte"] = ratio(
        sums["ckpt_bytes"], sums["user_bytes"]
    )
    load = rec.get("storage.pagefile.load_btree", {})
    special["storage.pagefile.load_btree.self_s"] = load.get("self_ns", 0) / 1e9
    recover_total = rec.get("storage.pagefile.recover", {}).get("total_ns", 0)
    special["storage.pagefile.recover.replay_s"] = (recover_total - load.get("total_ns", 0)) / 1e9
    for bucket in COST_BUCKETS:
        special[f"costmodel.{bucket}.sim_ns"] = sums.get(f"sim_ns.{bucket}", 0.0)
        special[f"costmodel.{bucket}.wall_s"] = sums.get(f"wall_ns.{bucket}", 0) / 1e9
    if "commits" in sums:
        commit_calls = agg.get("net.sharded.commit", {}).get("calls", 0)
        special["net.sharded.fsyncs_per_commit"] = ratio(sums["fsyncs"], commit_calls)
        special["net.server.acks_per_commit"] = ratio(sums["timed_acks"], sums["commits"])
        ack_wait_us = ratio(sums["ack_wait_ns"], sums["acks"]) / 1e3
        special["net.server.ack_wait_us"] = ack_wait_us
        for kind in ("put", "get", "range_query"):
            served = agg.get(f"net.server.dispatch.{kind}")
            if not served or not sums[f"client_n.{kind}"]:
                continue
            # Client-observed mean minus the server's mean dispatch time
            # (plus the ack wait for puts): transport, framing, scheduling.
            server_us = served["total_ns"] / served["calls"] / 1e3
            if kind == "put":
                server_us += ack_wait_us
            client_us = sums[f"client_ns.{kind}"] / sums[f"client_n.{kind}"] / 1e3
            special[f"net.client.{kind}.unattributed_us"] = client_us - server_us
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in special:
            out[name] = float(special[name])
        elif name.endswith(".self_s"):
            out[name] = agg.get(name[: -len(".self_s")], {}).get("self_ns", 0) / 1e9
        elif name.endswith(".calls"):
            out[name] = float(agg.get(name[: -len(".calls")], {}).get("calls", 0))
        else:
            out[name] = 0.0
    run.layer = out
    run.aggregates = {"timed": agg, "recovery": rec}
    if "sware_get_many_ns" in sums:
        run.aggregates["reads"] = {
            key: sums[key]
            for key in ("sware_get_many_ns", "tree_get_many_ns", "tree_kernels_self_ns")
        }
