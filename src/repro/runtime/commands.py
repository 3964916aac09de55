"""Device→host command and host→device response encodings.

These are the entries travelling through the circular queues: commands on
the command queue (device library → block manager), acknowledgements on the
ack queue, and notifications on the notification queue (block manager →
device library).  Real entries are fixed-size vector-write payloads; the
classes carry the same fields plus, for simulation convenience, direct
references to the numpy views involved.

Every entry is a ``slots=True`` dataclass.  The hot ones
(:class:`PutCommand`, :class:`GetCommand`, :class:`NotifyCommand`,
:class:`Ack`, :class:`Notification`) are not frozen: a diffusion run
constructs several thousand of them, and a frozen dataclass's
``object.__setattr__`` guard costs about twice the plain generated
``__init__``.  Puts and gets compare by identity (``eq=False``); the rest
compare by value — tests and the cross-backend differential harness
compare notification lists by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

__all__ = [
    "WinCreateCommand", "WinFreeCommand", "PutCommand", "GetCommand",
    "NotifyCommand", "BarrierCommand", "FinishCommand", "LogCommand",
    "Ack", "Notification",
]


@dataclass(slots=True)
class WinCreateCommand:
    """Collective window creation: the rank registers a local memory range."""

    origin_rank: int
    local_win_id: int
    comm_name: str
    buffer: np.ndarray          # the rank's registered memory range
    participants: Tuple[int, ...]


@dataclass(slots=True)
class WinFreeCommand:
    origin_rank: int
    global_win_id: int


@dataclass(slots=True, eq=False)
class PutCommand:
    """Notified put to a *distributed-memory* rank (Fig. 5 control flow).

    ``src`` references origin device memory; the block manager reads it when
    the MPI send is issued, exactly as the real block manager isends straight
    out of device memory.
    """

    origin_rank: int
    global_win_id: int
    target_rank: int
    target_offset: int
    count: int
    src: np.ndarray
    tag: int
    flush_id: int
    notify: bool = True


@dataclass(slots=True, eq=False)
class GetCommand:
    """Notified get from a remote window into origin device memory."""

    origin_rank: int
    global_win_id: int
    target_rank: int
    target_offset: int
    count: int
    dst: np.ndarray
    tag: int
    flush_id: int
    notify: bool = True


@dataclass(slots=True)
class NotifyCommand:
    """Shared-memory RMA already performed on-device; deliver the target
    notification (and the flush update) through the host."""

    origin_rank: int
    global_win_id: int
    target_rank: int
    tag: int
    flush_id: int
    notify: bool = True


@dataclass(slots=True)
class BarrierCommand:
    origin_rank: int
    comm_name: str


#: Pseudo window id used by collective-completion notifications.
COLLECTIVE_WIN = -2


@dataclass(slots=True)
class NonblockingBarrierCommand:
    """§V extension: a barrier that completes in the background and posts a
    notification (win id ``COLLECTIVE_WIN``) instead of an ack."""

    origin_rank: int
    comm_name: str
    tag: int


@dataclass(slots=True)
class FinishCommand:
    origin_rank: int


@dataclass(slots=True)
class LogCommand:
    origin_rank: int
    message: str


@dataclass(slots=True)
class Ack:
    """Host→device acknowledgement for a completed command."""

    kind: str                   # "win_create" | "win_free" | ...
    value: Any = None


@dataclass(slots=True, unsafe_hash=True)
class Notification:
    """One notification-queue entry: (window, source rank, tag).

    Value-compared and hashable (matcher-parity and differential tests
    compare notification lists); not frozen, for construction speed —
    treat instances as immutable.
    """

    win_id: int
    source: int
    tag: int
