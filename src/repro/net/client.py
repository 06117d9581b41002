"""Client library for the sharded index server.

:class:`IndexClient` is the asyncio-native client. It pipelines freely: a
background receive loop matches responses to in-flight requests by
``request_id``, so many calls may be awaiting concurrently on one
connection (``asyncio.gather`` over a batch of puts is the intended
usage — the server's group commit will fold their fsyncs together).

:class:`SyncIndexClient` wraps it for blocking callers (the CLI, tests)
by driving a private event loop per call.

Server-side failures surface as :class:`ServerError`; transport-level
corruption as :class:`~repro.net.protocol.ProtocolError`; a connection
that dies with requests in flight fails those requests with
:class:`ConnectionError`.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.net import protocol as p


class ServerError(ReproError):
    """The server processed the frame but the operation failed."""


class IndexClient:
    """See module docstring. Construct via :meth:`connect`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._inflight: Dict[int, asyncio.Future] = {}
        self._recv_task = asyncio.create_task(self._recv_loop())
        self._closed = False

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 0) -> "IndexClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _recv_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                frame = await p.read_frame(self._reader)
                if frame is None:
                    error = ConnectionError("server closed the connection")
                    break
                opcode, request_id, payload = frame
                future = self._inflight.pop(request_id, None)
                if future is None or future.done():
                    continue  # response to a caller that gave up
                if opcode == p.RESP_OK:
                    future.set_result(payload)
                elif opcode == p.RESP_ERR:
                    future.set_exception(ServerError(p.decode_error(payload)))
                else:
                    error = p.ProtocolError(f"unexpected response opcode {opcode}")
                    break
        except (p.ProtocolError, ConnectionError, OSError) as exc:
            error = exc
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        finally:
            # Whatever ended the loop fails every in-flight request: a
            # deferred group-commit ack that never arrives must not hang
            # its caller forever.
            error = error or ConnectionError("receive loop exited")
            for future in self._inflight.values():
                if not future.done():
                    future.set_exception(error)
            self._inflight.clear()

    async def _request(self, opcode: int, payload: bytes = b"") -> bytes:
        if self._closed:
            raise ConnectionError("client is closed")
        if self._recv_task.done():  # no one is left to resolve the future
            raise ConnectionError("server closed the connection")
        request_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[request_id] = future
        self._writer.write(p.encode_frame(opcode, request_id, payload))
        await self._writer.drain()
        return await future

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def put(self, key: int, value: object) -> None:
        await self._request(p.OP_PUT, p.encode_put(key, value))

    async def get(self, key: int) -> Optional[object]:
        return p.decode_result(await self._request(p.OP_GET, p.encode_key(key)))

    async def delete(self, key: int) -> None:
        await self._request(p.OP_DEL, p.encode_key(key))

    async def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        return p.decode_result(await self._request(p.OP_RANGE, p.encode_range(lo, hi)))

    async def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        await self._request(p.OP_PUT_MANY, p.encode_put_many(items))

    async def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        return p.decode_result(
            await self._request(p.OP_GET_MANY, p.encode_get_many(keys))
        )

    async def stats(self) -> dict:
        return p.decode_result(await self._request(p.OP_STATS))

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._recv_task.cancel()
        try:
            await self._recv_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "IndexClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


class SyncIndexClient:
    """Blocking facade over :class:`IndexClient` (one private event loop)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._loop = asyncio.new_event_loop()
        self._client = self._loop.run_until_complete(IndexClient.connect(host, port))

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def put(self, key: int, value: object) -> None:
        self._run(self._client.put(key, value))

    def get(self, key: int) -> Optional[object]:
        return self._run(self._client.get(key))

    def delete(self, key: int) -> None:
        self._run(self._client.delete(key))

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        return self._run(self._client.range_query(lo, hi))

    def put_many(self, items: Sequence[Tuple[int, object]]) -> None:
        self._run(self._client.put_many(items))

    def get_many(self, keys: Sequence[int]) -> List[Optional[object]]:
        return self._run(self._client.get_many(keys))

    def stats(self) -> dict:
        return self._run(self._client.stats())

    def close(self) -> None:
        try:
            self._run(self._client.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "SyncIndexClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
