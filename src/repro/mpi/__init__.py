"""Simulated-host MPI substrate: two-sided p2p and collectives."""

from .comm import ANY_SOURCE, ANY_TAG, MPIWorld
from .message import Envelope, copy_payload, payload_nbytes
from .request import Request, wait_all_requests
from .collectives import (
    COLL_TAG_BASE,
    allgather,
    allreduce,
    barrier,
    bcast,
    gather,
    reduce,
    scatter,
    sendrecv,
)

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "MPIWorld",
    "Envelope", "copy_payload", "payload_nbytes",
    "Request", "wait_all_requests",
    "COLL_TAG_BASE", "allgather", "allreduce", "barrier", "bcast",
    "gather", "reduce", "scatter", "sendrecv",
]
