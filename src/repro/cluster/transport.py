"""The cluster wire: pickle over one duplex ``multiprocessing`` pipe.

The router and each of its workers exchange
:mod:`repro.cluster.protocol` messages over one duplex pipe; pickle does
the framing.  This module holds the two ends of that pipe:

* :class:`RouterChannel` — the router's end.  A writer thread drains an
  outbound queue, so a full pipe can never block the event loop, and a
  reader thread posts every inbound message onto the loop.  Both keep
  the byte and message accounting the router exports as
  ``transport_{tx,rx}_{bytes,msgs}_total``.
* :class:`WorkerChannel` — the worker's end: strictly serial
  ``recv``/``send``/``close``, raising :class:`ChannelClosed` once the
  router is gone.
"""

from __future__ import annotations

import contextlib
import queue
import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from . import protocol

__all__ = [
    "TransportError",
    "ChannelClosed",
    "RouterChannel",
    "WorkerChannel",
    "payload_nbytes",
]


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class ChannelClosed(TransportError):
    """The peer is gone (EOF or broken pipe)."""


#: Per-op bytes of a BATCH: one (a, b) uint64 pair.
_BATCH_OP_BYTES = 16
#: Per-op bytes of a RESULT: sums u64 + couts u64 + stalled u8
#: + spec_errors u8.
_RESULT_OP_BYTES = 18
#: Fixed bytes per RESULT: cycles, start_cycle and the four light
#: counters (ops, stalls, batches, cycles) as uint64s.
_RESULT_TRAILER = 48


def payload_nbytes(msg: protocol.Message) -> int:
    """Wire payload size of *msg* (the copy-bytes accounting unit).

    Counts the raw operand and result data a message carries, not its
    pickle framing; control messages count zero.
    """
    kind = msg[0]
    if kind == protocol.BATCH:
        payload = msg[2]
        if isinstance(payload, np.ndarray):
            return int(payload.nbytes)
        return len(payload) * _BATCH_OP_BYTES
    if kind == protocol.RESULT:
        result = msg[2]
        return (len(result["sums"]) * _RESULT_OP_BYTES
                + _RESULT_TRAILER)
    return 0


_CLOSE = object()


class RouterChannel:
    """Router end of one worker's pipe.

    Lifecycle: construct → hand :attr:`child_conn` to the worker
    process → ``after_spawn()`` (drop the child end) →
    ``start_io(post, on_message, on_eof)`` → ``send`` at will →
    ``close()``.  Each accounting field is written by one I/O thread
    only; the router reads them through :meth:`stats`.
    """

    def __init__(self, mp_ctx):
        self._conn, self.child_conn = mp_ctx.Pipe(duplex=True)
        self._out_q: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self.tx_msgs = self.tx_bytes = 0
        self.rx_msgs = self.rx_bytes = 0

    def after_spawn(self) -> None:
        self.child_conn.close()  # the parent must drop it to see EOF

    def start_io(self, post: Callable, on_message: Callable,
                 on_eof: Callable) -> None:
        conn = self._conn

        def _reader():
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                self.rx_msgs += 1
                self.rx_bytes += payload_nbytes(msg)
                post(on_message, msg)
            post(on_eof)

        def _writer():
            while True:
                item = self._out_q.get()
                if item is _CLOSE:
                    break
                try:
                    conn.send(item)
                except (BrokenPipeError, OSError):
                    break  # the reader will surface the EOF
                self.tx_msgs += 1
                self.tx_bytes += payload_nbytes(item)

        for target, name in ((_reader, "vlsa-pipe-r"),
                             (_writer, "vlsa-pipe-w")):
            t = threading.Thread(target=target, name=name, daemon=True)
            t.start()
            self._threads.append(t)

    def send(self, msg: protocol.Message) -> None:
        """Queue *msg* for the writer thread (never blocks the loop)."""
        self._out_q.put(msg)

    def stats(self) -> Dict[str, int]:
        return {"tx_msgs": self.tx_msgs, "tx_bytes": self.tx_bytes,
                "rx_msgs": self.rx_msgs, "rx_bytes": self.rx_bytes}

    def close(self) -> None:
        self._out_q.put(_CLOSE)
        with contextlib.suppress(OSError):
            self._conn.close()
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(1.0)


class WorkerChannel:
    """Worker end of the pipe: serial ``recv``/``send``/``close``."""

    def __init__(self, conn):
        self._conn = conn

    def recv(self, timeout: float) -> Optional[protocol.Message]:
        """Next message, or None after *timeout* of silence.

        Raises :class:`ChannelClosed` when the router is gone.
        """
        try:
            if not self._conn.poll(timeout):
                return None
            return self._conn.recv()
        except (EOFError, OSError):
            raise ChannelClosed("router pipe closed") from None

    def send(self, msg: protocol.Message) -> None:
        """Ship *msg* to the router.

        Raises :class:`ChannelClosed` when the router is gone — the
        worker loop turns that into a structured death trace rather
        than a silent exit.
        """
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError):
            raise ChannelClosed("router pipe closed") from None

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._conn.close()
