"""repro.service — the online checker as a network daemon.

The subsystem that closes the gap between the in-process reproduction
and the paper's deployment story: an asyncio daemon
(:class:`~repro.service.daemon.CheckerService`) wraps one checker —
Aion for SI, Aion-SER for SER — behind a TCP (or unix-socket) wire protocol
of length-prefixed binary frames with columnar submit batches
(:mod:`repro.service.protocol`, :mod:`repro.service.framing`) — a
blocking client library
(:class:`~repro.service.client.CheckerClient`) feeds it from ordinary
synchronous producers, and :mod:`repro.service.replay` streams WAL
captures, history files, anomaly fixtures, or generated workloads into a
running daemon.  ``python -m repro serve`` / ``python -m repro replay``
expose the pair on the command line.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PROTOCOL_VERSION",
    "CheckerClient",
    "CheckerService",
    "ProtocolError",
    "ReplayReport",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "replay_transactions",
    "transactions_in_commit_order",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "CheckerClient": "repro.service.client",
        "ServiceError": "repro.service.client",
        "ServiceConfig": "repro.service.config",
        "CheckerService": "repro.service.daemon",
        "ServiceThread": "repro.service.daemon",
        "PROTOCOL_VERSION": "repro.service.protocol",
        "ProtocolError": "repro.service.protocol",
        "ReplayReport": "repro.service.replay",
        "replay_transactions": "repro.service.replay",
        "transactions_in_commit_order": "repro.service.replay",
    },
)
