"""Client side: seeded request scripts, an asyncio client, a fleet.

:class:`ClientScript` is the deterministic half shared by the asyncio
fleet and the in-process :class:`~repro.serve.harness.ScriptedFleet`:
a seeded request generator plus a *read-your-writes shadow*.  Clients
write only to their own slice of the variable space (client ``i`` owns
variables ``v`` with ``v % clients == i``), so every read of an owned
variable has exactly one writer — the client itself — and the script
can assert the served value against its local shadow regardless of how
the server interleaved other tenants.  A violated assertion means the
batching window reordered or lost a write, which is exactly the class
of bug the service harness exists to catch.

:class:`ServeClient` speaks the ``repro.serve/1`` line protocol over an
asyncio stream; :func:`run_fleet` drives a seeded fleet of them against
a live server (or boots an in-process one on an ephemeral port).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.serve import protocol as wire

__all__ = [
    "ClientScript",
    "FleetReport",
    "ServeClient",
    "request_stream",
    "run_fleet",
]

#: ``n`` assumed when sizing the client-side stream limit before the
#: server's WELCOME reveals the real scheme — covers any deployment up
#: to 2**16 variables (a limit, not an allocation); ``connect(limit=…)``
#: overrides it.
_DEFAULT_LIMIT_N = 1 << 16


def request_stream(
    seed: int,
    index: int,
    clients: int,
    num_variables: int,
    batch: int,
    count: int,
) -> list[tuple[str, list[int], list[int] | None, list[bool] | None]]:
    """The ``count`` wire requests client ``index`` will send, fully
    determined by ``(seed, index, clients, num_variables, batch)``.

    Writes stay inside the client's ownership slice; reads roam the
    whole space.  Returned as ``(op, variables, values, is_write)``
    tuples in send order.
    """
    rng = np.random.default_rng((seed, index))
    owned = np.arange(index % clients, num_variables, clients, dtype=np.int64)
    all_vars = np.arange(num_variables, dtype=np.int64)
    requests = []
    for _ in range(count):
        op = ("read", "write", "mixed")[int(rng.integers(3))]
        size = int(rng.integers(1, batch + 1))
        if op == "read":
            variables = rng.choice(all_vars, size=size, replace=False)
            requests.append((op, [int(v) for v in variables], None, None))
        elif op == "write":
            size = min(size, len(owned))
            variables = rng.choice(owned, size=size, replace=False)
            values = rng.integers(0, 1 << 20, size=size)
            requests.append(
                (op, [int(v) for v in variables], [int(v) for v in values], None)
            )
        else:
            writes = min(max(1, size // 2), len(owned))
            reads = max(1, size - writes)
            write_vars = rng.choice(owned, size=writes, replace=False)
            readable = np.setdiff1d(all_vars, write_vars, assume_unique=True)
            read_vars = rng.choice(readable, size=reads, replace=False)
            variables = np.concatenate([write_vars, read_vars])
            is_write = np.concatenate(
                [np.ones(writes, dtype=bool), np.zeros(reads, dtype=bool)]
            )
            values = np.where(
                is_write, rng.integers(0, 1 << 20, size=len(variables)), 0
            )
            order = rng.permutation(len(variables))
            requests.append(
                (
                    op,
                    [int(v) for v in variables[order]],
                    [int(v) for v in values[order]],
                    [bool(b) for b in is_write[order]],
                )
            )
    return requests


class ClientScript:
    """Seeded request script + read-your-writes shadow for one client."""

    def __init__(
        self,
        index: int,
        clients: int,
        seed: int,
        num_variables: int,
        batch: int,
        count: int,
        *,
        tenant: str | None = None,
    ):
        self.index = index
        self.clients = clients
        self.tenant = tenant if tenant is not None else f"t{index}"
        self._queue = request_stream(
            seed, index, clients, num_variables, batch, count
        )
        self._cursor = 0
        self._next_id = 0
        #: request id -> (op, variables, values, is_write) awaiting outcome
        self.sent: dict[int, tuple] = {}
        #: the client's view of its OWN variables' latest values
        self.shadow: dict[int, int] = {}
        self.delivered = 0
        self.refused = 0
        self.rejected = 0
        self.mesh_steps = 0.0

    def has_more(self) -> bool:
        return self._cursor < len(self._queue)

    def next_request(self) -> wire.Step:
        op, variables, values, is_write = self._queue[self._cursor]
        self._cursor += 1
        request_id = self._next_id
        self._next_id += 1
        self.sent[request_id] = (op, variables, values, is_write)
        return wire.Step(
            id=request_id,
            op=op,
            variables=tuple(variables),
            values=None if values is None else tuple(values),
            is_write=None if is_write is None else tuple(is_write),
        )

    def _owns(self, variable: int) -> bool:
        return variable % self.clients == self.index

    def on_reply(self, msg: wire.Message) -> None:
        """Account one outcome; enforce read-your-writes for owned
        variables (reads check the shadow BEFORE this request's writes
        land in it — served values are pre-step, and a same-request
        read/write collision is impossible since variables are
        distinct per request)."""
        if isinstance(msg, wire.Result):
            op, variables, values, is_write = self.sent.pop(msg.id)
            if len(msg.values) != len(variables):
                raise AssertionError(
                    f"client {self.index}: result id {msg.id} returned "
                    f"{len(msg.values)} values for {len(variables)} variables"
                )
            for pos, var in enumerate(variables):
                writing = (
                    op == "write" or (op == "mixed" and is_write[pos])
                )
                if writing or not self._owns(var):
                    continue
                expect = self.shadow.get(var, 0)
                if msg.values[pos] != expect:
                    raise AssertionError(
                        f"read-your-writes violated: client {self.index} "
                        f"read {msg.values[pos]} from its own variable "
                        f"{var}, expected {expect} (request {msg.id})"
                    )
            if op != "read":
                for pos, var in enumerate(variables):
                    if op == "write" or is_write[pos]:
                        self.shadow[var] = values[pos]
            self.delivered += 1
            self.mesh_steps += msg.mesh_steps
        elif isinstance(msg, wire.Refused):
            if msg.id is not None:
                self.sent.pop(msg.id, None)
            if msg.code == "degraded-refusal":
                self.refused += 1
            else:
                self.rejected += 1
        else:
            raise AssertionError(f"unexpected reply type {type(msg).__name__}")

    def counters(self) -> dict:
        return {
            "delivered": self.delivered,
            "refused": self.refused,
            "rejected": self.rejected,
            "mesh_steps": self.mesh_steps,
        }


@dataclass(frozen=True)
class FleetReport:
    """What a fleet run produced (deterministic in seed + topology,
    except ``counters``/``machines`` which also reflect real admission
    timing when run over sockets)."""

    clients: int
    requests: int
    delivered: int
    refused: int
    rejected: int
    mesh_steps: float
    counters: dict
    machines: tuple
    certified: bool | None
    per_client: tuple


class ServeClient:
    """One ``repro.serve/1`` connection (asyncio streams)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        welcome: wire.Welcome,
    ):
        self.reader = reader
        self.writer = writer
        self.welcome = welcome

    @property
    def session(self) -> str:
        return self.welcome.session

    @property
    def num_variables(self) -> int:
        return int(self.welcome.scheme["num_variables"])

    @property
    def inflight_max(self) -> int:
        return int(self.welcome.limits["inflight_max"])

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        tenant: str,
        *,
        machine: int | None = None,
        resume: str | None = None,
        limit: int | None = None,
    ) -> ServeClient:
        """Open a session.  ``resume`` names an idempotency scope: the
        opener becomes RESUME instead of HELLO and retained outcomes of
        a previous incarnation become replayable.  ``limit`` overrides
        the stream-reader byte limit (default: sized for the server's
        largest legal frame via :func:`~repro.serve.protocol.frame_limit`,
        assuming the deployment ceiling ``n``)."""
        if limit is None:
            limit = wire.frame_limit(_DEFAULT_LIMIT_N)
        reader, writer = await asyncio.open_connection(host, port, limit=limit)
        if resume is not None:
            opener: wire.Message = wire.Resume(
                tenant=tenant, token=resume, machine=machine
            )
        else:
            opener = wire.Hello(tenant=tenant, machine=machine)
        writer.write(wire.encode_message(opener))
        await writer.drain()
        line = await reader.readline()
        reply = wire.decode_message(line)
        if isinstance(reply, wire.Refused):
            writer.close()
            raise RuntimeError(
                f"{opener.TYPE} refused [{reply.code}]: {reply.message}"
            )
        if not isinstance(reply, wire.Welcome):
            writer.close()
            raise RuntimeError(f"expected WELCOME, got {reply.TYPE}")
        return cls(reader, writer, reply)

    async def send(self, msg: wire.Message) -> None:
        self.writer.write(wire.encode_message(msg))
        await self.writer.drain()

    async def recv(self) -> wire.Message:
        try:
            line = await self.reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise wire.FrameError(
                "bad-frame", f"reply overran the stream limit: {exc}"
            ) from exc
        if not line:
            raise ConnectionError("server closed the connection")
        return wire.decode_message(line)

    async def recv_outcome(self) -> wire.Message:
        """Next request outcome: a RESULT, or a REFUSED carrying an id."""
        msg = await self.recv()
        if isinstance(msg, wire.Result):
            return msg
        if isinstance(msg, wire.Refused) and msg.id is not None:
            return msg
        raise RuntimeError(f"expected a request outcome, got {msg.TYPE}")

    async def request(
        self, msg: wire.Message, *, on_outcome=None
    ) -> wire.Message:
        """Send a control message and await its reply; request outcomes
        flushed ahead of the reply are handed to ``on_outcome``."""
        reply_type = {
            wire.Stats.TYPE: wire.StatsOk,
            wire.Certify.TYPE: wire.Certified,
            wire.Bye.TYPE: wire.ByeOk,
            wire.Shutdown.TYPE: wire.ShutdownOk,
        }[msg.TYPE]
        await self.send(msg)
        while True:
            reply = await self.recv()
            if isinstance(reply, reply_type):
                return reply
            if isinstance(reply, wire.Result) or (
                isinstance(reply, wire.Refused) and reply.id is not None
            ):
                if on_outcome is not None:
                    on_outcome(reply)
                continue
            raise RuntimeError(
                f"expected {reply_type.TYPE} reply, got {reply.TYPE}"
                + (
                    f" [{reply.code}]: {reply.message}"
                    if isinstance(reply, wire.Refused)
                    else ""
                )
            )

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _drive_client(
    host: str,
    port: int,
    index: int,
    *,
    clients: int,
    requests: int,
    batch: int,
    seed: int,
    pipeline: int,
    machine: int | None,
) -> tuple[ClientScript, list[float]]:
    """Drive one scripted client to completion.

    Returns the script and the send→outcome interval of every request
    that got an outcome, in seconds on the client's clock.
    """
    client = await ServeClient.connect(
        host, port, tenant=f"t{index}", machine=machine
    )
    script = ClientScript(
        index, clients, seed, client.num_variables, batch, requests
    )
    cap = max(1, min(pipeline, client.inflight_max))
    sent_at: dict[int, float] = {}
    latencies: list[float] = []
    inflight = 0
    try:
        while script.has_more() or inflight:
            while script.has_more() and inflight < cap:
                msg = script.next_request()
                sent_at[msg.id] = time.perf_counter()
                await client.send(msg)
                inflight += 1
            outcome = await client.recv_outcome()
            arrived = time.perf_counter()
            if outcome.id in sent_at:
                latencies.append(arrived - sent_at.pop(outcome.id))
            script.on_reply(outcome)
            inflight -= 1
        await client.request(wire.Bye(), on_outcome=script.on_reply)
    finally:
        await client.close()
    return script, latencies


async def run_fleet_async(
    host: str,
    port: int,
    *,
    clients: int = 4,
    requests: int = 20,
    batch: int = 3,
    seed: int = 0,
    fault_clients: int = 0,
    pipeline: int = 8,
    certify: bool = True,
    shutdown: bool = False,
) -> FleetReport:
    """Drive a seeded fleet against a listening server, then pull stats
    (and optionally the certification verdict / a shutdown)."""
    driven = await asyncio.gather(
        *(
            _drive_client(
                host,
                port,
                i,
                clients=clients,
                requests=requests,
                batch=batch,
                seed=seed,
                pipeline=pipeline,
                machine=0 if i < fault_clients else None,
            )
            for i in range(clients)
        )
    )
    scripts = [script for script, _ in driven]
    control = await ServeClient.connect(host, port, tenant="fleet-control")
    try:
        stats = await control.request(wire.Stats())
        certified = None
        if certify:
            verdict = await control.request(wire.Certify())
            certified = verdict.ok
            if not verdict.ok:
                raise AssertionError(f"certification failed: {verdict.message}")
        if shutdown:
            await control.request(wire.Shutdown())
        else:
            await control.request(wire.Bye())
    finally:
        await control.close()
    return FleetReport(
        clients=clients,
        requests=clients * requests,
        delivered=sum(s.delivered for s in scripts),
        refused=sum(s.refused for s in scripts),
        rejected=sum(s.rejected for s in scripts),
        mesh_steps=sum(s.mesh_steps for s in scripts),
        counters=dict(stats.counters),
        machines=stats.machines,
        certified=certified,
        per_client=tuple(s.counters() for s in scripts),
    )


def run_fleet(
    config=None,
    *,
    host: str | None = None,
    port: int = 0,
    clients: int = 4,
    requests: int = 20,
    batch: int = 3,
    seed: int = 0,
    fault_clients: int = 0,
    pipeline: int = 8,
    certify: bool = True,
    shutdown: bool = False,
) -> FleetReport:
    """Synchronous fleet entry point.  With ``host=None`` an in-process
    server is booted from ``config`` on an ephemeral port and torn down
    afterwards; otherwise the fleet targets ``host:port`` (and
    ``shutdown=True`` stops that server after the run)."""
    from repro.serve.server import ServeConfig, start_server

    async def _main() -> FleetReport:
        if host is not None:
            return await run_fleet_async(
                host,
                port,
                clients=clients,
                requests=requests,
                batch=batch,
                seed=seed,
                fault_clients=fault_clients,
                pipeline=pipeline,
                certify=certify,
                shutdown=shutdown,
            )
        handle = await start_server(config or ServeConfig())
        try:
            return await run_fleet_async(
                "127.0.0.1",
                handle.port,
                clients=clients,
                requests=requests,
                batch=batch,
                seed=seed,
                fault_clients=fault_clients,
                pipeline=pipeline,
                certify=certify,
            )
        finally:
            await handle.stop()

    return asyncio.run(_main())
