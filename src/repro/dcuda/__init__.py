"""dCUDA: device-side remote memory access with target notification.

The paper's primary contribution — a single coherent GPU-cluster
programming model.  Write a kernel as a generator over :class:`DRank`,
then :func:`launch` it on a simulated :class:`~repro.hw.Cluster`::

    from repro.hw import Cluster, greina
    from repro.dcuda import launch, DCUDA_ANY_SOURCE

    def kernel(rank):
        win = yield from rank.win_create(my_buffer)
        yield from rank.put_notify(win, rank.world_rank ^ 1, 0, data, tag=0)
        yield from rank.wait_notifications(win, DCUDA_ANY_SOURCE, 0, 1)
        yield from rank.win_free(win)
        yield from rank.finish()

    result = launch(Cluster(greina(2)), kernel, ranks_per_device=2)

The :mod:`capi`, :mod:`collectives` and :mod:`ext` subpackages load on
first use (PEP 562): a launch that calls none of them does not pay for
their imports.
"""

import importlib

from .device_api import (
    DCUDA_ANY_SOURCE,
    DCUDA_ANY_TAG,
    DCUDA_ANY_WINDOW,
    DCUDA_COMM_DEVICE,
    DCUDA_COMM_WORLD,
    DRank,
)
from .errors import (
    ERROR_TABLE,
    DCudaError,
    DCudaFaultError,
    DCudaProtocolError,
    DCudaTimeoutError,
    DCudaUsageError,
    DCudaWorkerError,
)
from .launch import LaunchResult, launch
from .notifications import NotificationMatcher
from .window import Window, same_memory

__all__ = [
    "capi", "collectives", "ext",
    "DCUDA_ANY_SOURCE", "DCUDA_ANY_TAG", "DCUDA_ANY_WINDOW",
    "DCUDA_COMM_DEVICE", "DCUDA_COMM_WORLD", "DRank",
    "DCudaError", "DCudaProtocolError", "DCudaUsageError",
    "DCudaTimeoutError", "DCudaFaultError", "DCudaWorkerError",
    "ERROR_TABLE",
    "LaunchResult", "launch",
    "NotificationMatcher",
    "Window", "same_memory",
]

_LAZY_SUBMODULES = ("capi", "collectives", "ext")


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        # The import binds the submodule on the package, so this runs once.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
