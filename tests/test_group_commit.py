"""Deterministic tests of the server's timerless group commit.

No sockets and no timers: a fake writer stands in for each connection,
requests are applied and parked the way the connection handler does it,
and a spy on ``index.commit`` records which writes each commit covered.
Every ack must be released by a commit that ran after its write was
applied, and the batching must come from what is parked, not from a
clock.
"""

import asyncio

from repro.core.config import SWAREConfig
from repro.net import protocol as p
from repro.net.server import IndexServer
from repro.net.sharded import ShardedConfig, ShardedSortednessAwareIndex


class FakeWriter:
    """Records each released ack as (request_id, commits so far)."""

    def __init__(self, commits, on_drain=None, yields=False):
        self.commits = commits
        self.on_drain = on_drain
        self.yields = yields
        self.released = []
        self.drains = 0

    def is_closing(self):
        return False

    def write(self, frame):
        request_id = p.decode_header(frame[: p.HEADER.size])[1]
        self.released.append((request_id, len(self.commits)))

    async def drain(self):
        self.drains += 1
        hook, self.on_drain = self.on_drain, None
        if hook is not None:
            hook()
        if self.yields:
            await asyncio.sleep(0)  # a drain that waits on a slow socket


class Harness:
    def __init__(self, tmp_path):
        index = ShardedSortednessAwareIndex(
            str(tmp_path / "db"),
            config=ShardedConfig(
                n_shards=2,
                split_threshold=0,
                fsync_policy="batch",
                initial_key_range=(0, 1000),
                index_config=SWAREConfig(buffer_capacity=32, page_size=8),
            ),
        )
        self.server = IndexServer(index)
        self.applied = []  # request ids, in apply order
        #: One entry per commit: the request ids applied before it ran.
        self.commits = []
        real_commit = index.commit

        def spy():
            self.commits.append(list(self.applied))
            return real_commit()

        index.commit = spy

    def writer(self, **kw):
        return FakeWriter(self.commits, **kw)

    def put(self, writer, request_id):
        """Apply a PUT and park its ack, as the connection handler does."""
        server = self.server
        server._dispatch(p.OP_PUT, p.encode_put(request_id, request_id))
        self.applied.append(request_id)
        ok = p.encode_frame(p.RESP_OK, request_id, p.encode_result(None))
        server._ack(writer, p.OP_PUT, ok)

    async def settle(self):
        while self.server._commit_task is not None:
            await self.server._commit_task

    def check_covered(self, writers):
        """Every released ack's write was applied before its commit ran."""
        for writer in writers:
            for request_id, commit_no in writer.released:
                assert commit_no >= 1
                assert request_id in self.commits[commit_no - 1]


def test_acks_parked_in_one_turn_share_one_commit(tmp_path):
    async def run():
        h = Harness(tmp_path)
        writers = [h.writer() for _ in range(3)]
        for request_id in range(12):
            h.put(writers[request_id % 3], request_id)
        assert h.commits == []  # nothing commits inside the parking turn
        await h.settle()
        assert len(h.commits) == 1
        released = sorted(r for w in writers for r in w.released)
        assert released == [(request_id, 1) for request_id in range(12)]
        h.check_covered(writers)
        # One drain per distinct writer, not per parked ack.
        assert [w.drains for w in writers] == [1, 1, 1]
        assert (h.server.commits, h.server.acks) == (1, 12)
        h.server.index.close()

    asyncio.run(run())


def test_write_applied_during_drain_waits_for_next_commit(tmp_path):
    async def run():
        h = Harness(tmp_path)
        late = h.writer()
        early = h.writer(on_drain=lambda: h.put(late, 100), yields=True)
        h.put(early, 0)
        await h.settle()
        assert len(h.commits) == 2
        assert early.released == [(0, 1)]
        # Applied while the first commit was draining its writers: that
        # commit did not cover it, so only the second may release it.
        assert 100 not in h.commits[0]
        assert late.released == [(100, 2)]
        h.check_covered([early, late])
        assert (h.server.commits, h.server.acks) == (2, 2)
        h.server.index.close()

    asyncio.run(run())


def test_lone_put_released_by_first_commit_without_timer(tmp_path):
    async def run():
        h = Harness(tmp_path)
        writer = h.writer()
        h.put(writer, 7)
        # A single loop turn, with no clock involved, releases the ack.
        await asyncio.sleep(0)
        assert writer.released == [(7, 1)]
        assert h.commits == [[7]]
        await h.settle()
        assert len(h.commits) == 1
        h.server.index.close()

    asyncio.run(run())
