"""The server starts, serves and stops cleanly under every fsync policy.

A connection handler still pending when the event loop shuts down is
cancelled, and asyncio reports that cancellation through the loop's
exception handler ("Exception in callback ...") even though the program
exits 0. ``IndexServer.stop()`` must leave no such handler behind, whether
the clients hung up first or are still connected.
"""

import asyncio

import pytest

from repro.core.config import SWAREConfig
from repro.net.client import IndexClient
from repro.net.server import IndexServer
from repro.net.sharded import (
    ShardedConfig,
    ShardedSortednessAwareIndex,
    recover_sharded,
)


def open_index(tmp_path, policy):
    return ShardedSortednessAwareIndex(
        str(tmp_path / "db"),
        config=ShardedConfig(
            n_shards=2,
            split_threshold=0,
            fsync_policy=policy,
            initial_key_range=(0, 1000),
            index_config=SWAREConfig(buffer_capacity=32, page_size=8),
        ),
    )


def serve_and_stop(tmp_path, policy, clients_hang_up):
    """Run one server session; return what reached the exception handler."""
    reported = []

    async def run():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: reported.append(context)
        )
        server = IndexServer(open_index(tmp_path, policy))
        await server.start()
        clients = [await IndexClient.connect(port=server.port) for _ in range(2)]
        for i, client in enumerate(clients):
            await client.put(i, f"v{i}")
            await client.put_many([(10 + i, "a"), (20 + i, "b")])
            assert await client.get(i) == f"v{i}"
        if clients_hang_up:
            for client in clients:
                await client.close()
        await server.stop()
        if not clients_hang_up:
            for client in clients:
                with pytest.raises(ConnectionError):
                    await client.get(0)
                await client.close()

    asyncio.run(run())
    return reported


@pytest.mark.parametrize("policy", ["always", "batch", "never"])
@pytest.mark.parametrize("clients_hang_up", [True, False])
def test_stop_reports_no_loop_errors(tmp_path, policy, clients_hang_up):
    assert serve_and_stop(tmp_path, policy, clients_hang_up) == []


@pytest.mark.parametrize("policy", ["always", "batch", "never"])
def test_writes_acked_before_stop_are_durable(tmp_path, policy):
    serve_and_stop(tmp_path, policy, clients_hang_up=True)
    index, _reports = recover_sharded(str(tmp_path / "db"))
    try:
        assert index.get(0) == "v0" and index.get(1) == "v1"
        assert index.get(21) == "b"
    finally:
        index.close()


def test_cancelled_serve_forever_stops_with_client_connected(tmp_path):
    # `repro serve` on Ctrl-C: serve_forever is cancelled while a client
    # is still connected, then stop() runs. On Python >= 3.12 a listener's
    # wait_closed() waits for open connections, so stop() must hang up on
    # them before waiting.
    reported = []

    async def run():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: reported.append(context)
        )
        server = IndexServer(open_index(tmp_path, "batch"))
        await server.start()
        serving = asyncio.create_task(server.serve_forever())
        client = await IndexClient.connect(port=server.port)
        await client.put(1, "a")
        serving.cancel()
        await asyncio.gather(serving, return_exceptions=True)
        await asyncio.wait_for(server.stop(), timeout=30)
        await client.close()

    asyncio.run(run())
    assert reported == []
