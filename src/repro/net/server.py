"""The asyncio front door over a :class:`ShardedSortednessAwareIndex`.

One :class:`IndexServer` owns the sharded index and serves the binary
protocol of :mod:`repro.net.protocol` over TCP. Connections are handled
concurrently; within a connection requests are *pipelined* — the client
may send many frames without waiting, and responses are matched back by
``request_id``, not by order (write acks routinely overtake later reads
under group commit).

**Group commit / ack-after-fsync.** Mutating opcodes (``MUTATING_OPS``)
are applied to the index immediately, but under ``fsync_policy="batch"``
their OK responses are *parked*. The first parked ack starts a commit
task; as soon as the loop runs it, it fsyncs every dirty shard WAL
(:meth:`ShardedSortednessAwareIndex.commit`), releases the acks parked so
far, and repeats for acks parked meanwhile. There is no timer: a lone
write waits for one fsync, and batching comes from load, as requests that
arrive during one fsync all park before the next. A client therefore
never sees an ack for a write that a crash could lose, which the crash
harness (``tests/test_sharded_crash.py``) kills the server to check.
Under ``fsync_policy="always"`` the WAL appends sync inline and acks are
written immediately; under ``"never"`` durability is explicitly waived
and acks are also immediate.

Protocol violations (bad magic, CRC mismatch, torn frame) close the
connection — a structurally corrupt stream cannot be re-synchronized.
Index-level errors (and malformed payloads that decode but fail) are
returned as ``RESP_ERR`` frames and the connection lives on.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.net import protocol as p
from repro.net.sharded import ShardedSortednessAwareIndex
from repro.obs import Observability, current_obs
from repro.storage.wal import FSYNC_BATCH


class IndexServer:
    """See module docstring."""

    def __init__(
        self,
        index: ShardedSortednessAwareIndex,
        host: str = "127.0.0.1",
        port: int = 0,
        obs: Optional[Observability] = None,
    ):
        self.index = index
        self.host = host
        self.port = port
        self.obs = obs if obs is not None else current_obs()
        self._server: Optional[asyncio.AbstractServer] = None
        #: The running commit task, while any ack is parked or releasing.
        self._commit_task: Optional[asyncio.Task] = None
        #: Parked (writer, ack frame) pairs awaiting the next commit.
        self._parked: List[Tuple[asyncio.StreamWriter, bytes]] = []
        #: Open connections: writer -> its handler task.
        self._conns: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._group_commit = index.config.fsync_policy == FSYNC_BATCH
        self.requests = 0
        self.errors = 0
        self.commits = 0
        self.acks = 0
        self.connections = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(self._serve_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Ack what is parked, then hang up and let every handler return: one
        # cancelled at loop shutdown escapes to the loop's exception handler.
        await self._release_parked()
        for writer in self._conns:
            writer.close()
        await asyncio.gather(*self._conns.values(), return_exceptions=True)
        if server is not None:
            await server.wait_closed()  # since 3.12, waits for the handlers
        await self._release_parked()  # commit what the handlers applied since
        self.index.close()

    async def serve_forever(self) -> None:
        """Serve until cancelled; the caller then runs :meth:`stop`."""
        if self._server is None:
            await self.start()
        await asyncio.get_running_loop().create_future()

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------
    async def _commit_loop(self) -> None:
        # Acks parked while one commit drains its writers wait for the next.
        try:
            while self._parked:
                await self._release_parked()
        finally:
            self._commit_task = None

    async def _release_parked(self) -> None:
        if not self._parked and not self.index._dirty:
            return
        parked, self._parked = self._parked, []
        with self.obs.span("serve.commit", acks=len(parked)):
            self.index.commit()  # fsync every dirty shard WAL
        self.commits += 1
        self.acks += len(parked)
        for writer, frame in parked:
            if not writer.is_closing():
                writer.write(frame)
        for writer in dict.fromkeys(writer for writer, _frame in parked):
            if not writer.is_closing():
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass  # client went away; its acks are moot

    def _ack(self, writer: asyncio.StreamWriter, opcode: int, frame: bytes) -> None:
        """Write a response now, or park it until the covering commit."""
        if self._group_commit and opcode in p.MUTATING_OPS:
            self._parked.append((writer, frame))
            if self._commit_task is None:
                self._commit_task = asyncio.create_task(self._commit_loop())
        else:
            writer.write(frame)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        self._conns[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    frame = await p.read_frame(reader)
                except p.ProtocolError:
                    self.errors += 1
                    break  # corrupt stream: cannot resync, drop the connection
                if frame is None:
                    break  # clean EOF
                opcode, request_id, payload = frame
                self.requests += 1
                try:
                    result = self._dispatch(opcode, payload)
                except p.ProtocolError:
                    self.errors += 1
                    break
                except Exception as exc:  # noqa: BLE001 - becomes a wire error
                    self.errors += 1
                    writer.write(
                        p.encode_frame(p.RESP_ERR, request_id, p.encode_error(repr(exc)))
                    )
                    await writer.drain()
                    continue
                ok = p.encode_frame(p.RESP_OK, request_id, p.encode_result(result))
                self._ack(writer, opcode, ok)
                if reader.at_eof() or not self._group_commit:
                    await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            del self._conns[writer]
            if not writer.is_closing():
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    def _dispatch(self, opcode: int, payload: bytes) -> object:
        index = self.index
        if opcode == p.OP_PUT:
            key, value = p.decode_put(payload)
            index.put(key, value)
            return None
        if opcode == p.OP_GET:
            return index.get(p.decode_key(payload))
        if opcode == p.OP_DEL:
            index.delete(p.decode_key(payload))
            return None
        if opcode == p.OP_RANGE:
            lo, hi = p.decode_range(payload)
            return index.range_query(lo, hi)
        if opcode == p.OP_PUT_MANY:
            index.put_many(p.decode_put_many(payload))
            return None
        if opcode == p.OP_GET_MANY:
            return index.get_many(p.decode_get_many(payload))
        if opcode == p.OP_STATS:
            stats = index.describe()
            stats["server"] = {
                "requests": self.requests,
                "errors": self.errors,
                "commits": self.commits,
                "acks": self.acks,
                "connections": self.connections,
                "group_commit": self._group_commit,
            }
            stats["shard_map"] = index.shard_map()
            return stats
        raise p.ProtocolError(f"opcode {opcode} is not a request")
