"""Inter-node runtime protocol messages.

The runtime-system instances talk to each other over the (simulated) MPI
substrate.  Meta messages describe a transfer (Fig. 5 step 2); the payload
data travels as a separate message matched by the transfer id.  Control
messages implement the flat-tree global synchronization used for barriers,
window creation, and finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

__all__ = [
    "RT_TAG_META", "RT_TAG_DATA_BASE", "META_BYTES", "CTRL_BYTES",
    "data_tag", "PutMeta", "GetMeta", "CtrlArrive", "CtrlRelease",
]

# Reserved tag space, below COLL_TAG_BASE (1 << 24).
RT_TAG_META = 1 << 23
RT_TAG_DATA_BASE = 1 << 22
_DATA_TAG_MOD = 1 << 18

#: Wire size of a meta-information tuple (data pointer, size, target rank,
#: window, offset, tag, flush id — §III-B).
META_BYTES = 64.0
#: Wire size of a synchronization token.
CTRL_BYTES = 32.0


def data_tag(xfer_id: int) -> int:
    """Tag of the payload message belonging to transfer *xfer_id*."""
    return RT_TAG_DATA_BASE + (xfer_id % _DATA_TAG_MOD)


@dataclass(frozen=True, slots=True)
class PutMeta:
    """Announces an incoming notified put (origin → target event handler)."""

    xfer_id: int
    origin_rank: int
    target_rank: int
    global_win_id: Tuple[str, int]
    target_offset: int
    count: int
    nbytes: float
    tag: int
    notify: bool


@dataclass(frozen=True, slots=True)
class GetMeta:
    """Requests window data (origin → target event handler)."""

    xfer_id: int
    origin_rank: int
    target_rank: int
    global_win_id: Tuple[str, int]
    target_offset: int
    count: int
    tag: int


@dataclass(frozen=True, slots=True)
class CtrlArrive:
    """Node-level arrival at a global synchronization point."""

    key: Any
    node: int


@dataclass(frozen=True, slots=True)
class CtrlRelease:
    """Coordinator's release of a global synchronization point."""

    key: Any
