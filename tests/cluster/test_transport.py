"""The pipe wire's byte accounting and the worker death trace.

Everything here runs in-process — no worker processes — so a failure
points at the accounting rule or the worker loop itself.
"""

import json
import os

import numpy as np

from repro.cluster import protocol
from repro.cluster.transport import payload_nbytes
from repro.cluster.worker import DEATH_TRACE_MARKER, worker_main


def batch_msg(pairs):
    arr = np.asarray(pairs, dtype=np.uint64).reshape(len(pairs), 2)
    return (protocol.BATCH, 7, arr)


def test_payload_nbytes_accounting():
    assert payload_nbytes(batch_msg([(1, 2)] * 10)) == 160
    pairs_as_list = (protocol.BATCH, 1, [(1, 2)] * 10)
    assert payload_nbytes(pairs_as_list) == 160
    result = {"sums": np.zeros(10, np.uint64)}
    assert (payload_nbytes((protocol.RESULT, 1, result))
            == 10 * 18 + 48)
    assert payload_nbytes((protocol.SHUTDOWN,)) == 0


# ----------------------------------------------------------------------
# Worker death trace (the silent-exit fix)
# ----------------------------------------------------------------------
class _DyingChannel:
    """Delivers one batch, then the router 'vanishes' on send."""

    def __init__(self):
        from repro.cluster.transport import ChannelClosed

        self._closed_exc = ChannelClosed
        self._batch = (protocol.BATCH, 1,
                       np.asarray([(1, 2), (3, 4)], dtype=np.uint64))
        self.closed = False

    def recv(self, timeout):
        if self._batch is not None:
            msg, self._batch = self._batch, None
            return msg
        raise self._closed_exc("router gone")

    def send(self, msg):
        raise self._closed_exc("router gone")

    def close(self):
        self.closed = True


def test_worker_emits_structured_death_trace(capsys):
    cfg = {"width": 32, "window": 8, "recovery_cycles": 1,
           "backend": "numpy", "family": "aca",
           "heartbeat_interval": 10.0}
    channel = _DyingChannel()
    worker_main(5, channel, cfg)  # returns instead of raising
    assert channel.closed
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines()
             if ln.startswith(DEATH_TRACE_MARKER)]
    assert lines, f"no {DEATH_TRACE_MARKER} line on stderr"
    record = json.loads(lines[0][len(DEATH_TRACE_MARKER):])
    assert record["event"] == "worker_channel_closed"
    assert record["reason"] == "result_send"
    assert record["worker_id"] == 5
    assert record["pid"] == os.getpid()
    assert record["ops_total"] == 2  # the batch that was executed
    assert record["batches_total"] == 1
