"""Online serving: asyncio micro-batching over the batch engine.

See :mod:`repro.serve.service` for the architecture and
``docs/serving.md`` for operational guidance (SLO knobs, shedding
semantics, benchmark interpretation).
"""

from .service import (
    FLUSH_DRAIN,
    FLUSH_IDLE,
    FLUSH_SIZE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOAD,
    MicroBatchServer,
    ServeConfig,
    ServedResult,
)

__all__ = [
    "FLUSH_DRAIN",
    "FLUSH_IDLE",
    "FLUSH_SIZE",
    "MicroBatchServer",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_OVERLOAD",
    "ServeConfig",
    "ServedResult",
]
