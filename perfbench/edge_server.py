"""The ``edge`` workload's server process.

Runs the production path: :class:`~repro.service.server.VlsaServer`
over a one-worker :class:`~repro.cluster.ClusterRouter` with every
other cluster setting at its default.  The benchmark starts it with::

    python3 perfbench/edge_server.py --stats <file>

and talks to it over stdin/stdout:

* it prints ``READY <port> <worker pid>,...`` once the worker
  pool has heartbeated and the socket listens;
* ``trace`` / ``untrace`` on stdin install / remove the span wrappers
  (the traced run only), answered by ``TRACE`` / ``UNTRACE``;
* ``stop`` on stdin, or end of input, stops the server and its worker,
  then writes spans, counter deltas and peak memory to the stats
  file as JSON, and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _stdin_commands(loop, queue: asyncio.Queue) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line.strip())
    loop.call_soon_threadsafe(queue.put_nowait, "stop")


async def serve(stats_path: Path) -> None:
    from repro.cluster import ClusterConfig, ClusterRouter
    from repro.service.server import VlsaServer

    import layers

    router = ClusterRouter(ClusterConfig(width=64, workers=1))
    server = VlsaServer(router, port=0)
    t0 = time.perf_counter()
    await server.start()
    ready_s = time.perf_counter() - t0
    pids = ",".join(str(h.proc.pid) for h in router.supervisor.slots
                    if h is not None)
    print(f"READY {server.port} {pids}", flush=True)

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()
    threading.Thread(target=_stdin_commands, args=(loop, commands),
                     daemon=True).start()
    tracing = layers.Tracing(
        layers.install_edge,
        lambda: layers.counter_values(router.metrics_json()))
    on = False
    while True:
        cmd = await commands.get()
        if cmd == "trace" and not on:
            tracing.on()
            on = True
            print("TRACE", flush=True)
        elif cmd == "untrace" and on:
            tracing.off()
            on = False
            print("UNTRACE", flush=True)
        elif cmd == "stop":
            break
    if on:
        tracing.off()
    await server.stop()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    stats_path.write_text(json.dumps({
        "ready_s": ready_s, "delta": tracing.delta,
        "spans": tracing.log.finished(), "ops": tracing.log.ops,
        "rss_kb": self_kb + child_kb}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stats", type=Path, required=True)
    args = ap.parse_args()
    asyncio.run(serve(args.stats))


if __name__ == "__main__":
    main()
