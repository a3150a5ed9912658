"""The TCP edge: the JSON-lines batch verb, the self-hosted loadgen
``tcp`` target, and the external-connect mode."""

import asyncio
import json

import pytest

from repro.cluster import ClusterConfig, ClusterRouter, protocol
from repro.engine import RunContext
from repro.service import VlsaServer, VlsaService, run_loadgen
from repro.service.executor import VlsaBatchExecutor
from repro.service.server import install_uvloop

WIDTH, WINDOW = 32, 8
MASK = (1 << WIDTH) - 1


async def _rpc(reader, writer, obj):
    writer.write(json.dumps(obj).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_batch_verb_bit_identical_to_executor():
    pairs = [(i * 2654435761 & MASK, (i * 40503) & MASK)
             for i in range(500)]
    want = VlsaBatchExecutor(WIDTH, window=WINDOW).execute(pairs)

    async def main():
        service = VlsaService(width=WIDTH, window=WINDOW)
        async with VlsaServer(service, port=0) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            reply = await _rpc(reader, writer,
                               {"id": 9, "pairs": [list(p) for p in pairs]})
            assert reply["id"] == 9
            assert reply["sums"] == want.sums
            assert reply["couts"] == want.couts
            assert reply["stalled"] == want.stalled
            assert reply["latencies"] == want.latencies
            # Scalar verb still answers on the same connection.
            scalar = await _rpc(reader, writer, {"a": MASK, "b": 1})
            assert scalar["sum"] == 0 and scalar["cout"] == 1
            writer.close()

    asyncio.run(main())


def test_batch_verb_rejects_malformed_pairs():
    async def main():
        service = VlsaService(width=WIDTH, window=WINDOW)
        async with VlsaServer(service, port=0) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            for bad in ([["x", 1]], [[1]], "nope", [[1, 2, 3]]):
                reply = await _rpc(reader, writer, {"pairs": bad})
                assert reply["code"] == "bad_request"
            writer.close()

    asyncio.run(main())


def test_batch_verb_over_cluster_front():
    """The server accepts a ClusterRouter as its service: the batch
    verb drives the full wire path underneath."""
    pairs = [(i, MASK - i) for i in range(300)]
    want = VlsaBatchExecutor(WIDTH, window=WINDOW).execute(pairs)

    async def main():
        router = ClusterRouter(ClusterConfig(
            width=WIDTH, window=WINDOW, workers=1,
            heartbeat_interval=0.1))
        async with VlsaServer(router, port=0) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            reply = await _rpc(reader, writer,
                               {"pairs": [list(p) for p in pairs]})
            assert reply["sums"] == want.sums
            assert reply["couts"] == want.couts
            info = await _rpc(reader, writer, {"cmd": "info"})
            assert info["backend"].startswith("cluster:1x")
            writer.close()

    asyncio.run(main())


def test_unhealthy_cluster_front_replies_unavailable(caplog):
    """With no live worker and degraded mode off, the router raises
    ClusterUnhealthyError; the server answers it instead of dropping
    the connection."""
    async def main():
        router = ClusterRouter(ClusterConfig(
            width=WIDTH, window=WINDOW, workers=1, degraded_mode="error",
            heartbeat_interval=0.05, restart_backoff_base=60.0,
            restart_backoff_max=60.0))
        async with VlsaServer(router, port=0) as server:
            router.supervisor.live[0].send((protocol.CRASH, 1))
            while router.supervisor.live:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(*server.address)
            replies = [await _rpc(reader, writer, {"id": 1, "a": 1, "b": 2}),
                       await _rpc(reader, writer, {"id": 2, "pairs": [[1, 2]]})]
            writer.close()
            return replies

    with caplog.at_level("ERROR", logger="asyncio"):
        replies = asyncio.run(main())
    assert [(r["id"], r["code"]) for r in replies] == [
        (1, "unavailable"), (2, "unavailable")]
    assert all("error" in r for r in replies)
    assert "Unhandled exception" not in caplog.text


def test_loadgen_tcp_target_self_hosted():
    report = run_loadgen(
        "uniform", ops=3000, target="tcp", workers=2,
        width=WIDTH, window=WINDOW,
        chunk=256, concurrency=4, ctx=RunContext(seed=11))
    assert report.ops == 3000
    assert report.params["target"] == "tcp"
    assert report.params["edge"] == "self-hosted"
    assert report.backend.startswith("cluster:2x")
    assert report.rejected == 0 and report.timeouts == 0
    assert report.params["worker_failures"] == 0
    assert report.params["transport_tx_bytes"] > 0
    assert report.params["transport_rx_bytes"] > 0


def test_loadgen_external_connect_mode():
    """Client-only loadgen against an already-listening server."""

    async def main():
        router = ClusterRouter(ClusterConfig(
            width=WIDTH, window=WINDOW, workers=1,
            heartbeat_interval=0.1))
        async with VlsaServer(router, port=0) as server:
            host, port = server.address
            report = await asyncio.to_thread(
                run_loadgen, "uniform", ops=2000, target="tcp",
                connect=(host, port), width=WIDTH, window=WINDOW,
                chunk=256, concurrency=2, ctx=RunContext(seed=7))
            assert report.ops == 2000
            assert report.params["edge"] == "external"
            assert report.params["connect"] == f"{host}:{port}"
            assert report.params["server_info"]["workers"] == 1
            assert report.backend.startswith("cluster:1x")
            assert report.rejected == 0 and report.timeouts == 0

    asyncio.run(main())


def test_connect_requires_tcp_target():
    with pytest.raises(ValueError):
        run_loadgen("uniform", ops=10, target="cluster",
                    connect=("127.0.0.1", 1))


def test_install_uvloop_is_safe_without_uvloop():
    # True only when uvloop is importable; either way it must not raise.
    assert install_uvloop() in (True, False)
    asyncio.set_event_loop_policy(None)  # restore the default policy
