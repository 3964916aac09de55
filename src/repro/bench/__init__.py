"""Benchmark harness: microbenchmarks, weak-scaling drivers, statistics.

Every name below loads on first use (PEP 562), the idiom of
:mod:`repro.faults` and :mod:`repro.obs`.  Importing the package, or
``repro.bench.table`` for the fault and overlap reports, then loads no
simulation code, and scipy loads only where the SpMV weak-scaling driver
runs rather than in every sweep worker and CLI that touches the package.
``repro.bench.simperf`` is a ``python -m`` entry point and is not
re-exported; import it as ``from repro.bench.simperf import ...``.
"""

import importlib

#: Submodule -> the public names it defines.
_SUBMODULE_EXPORTS = {
    "stats": ("Measurement", "median", "median_ci", "summarize"),
    "table": ("Table", "ascii_series", "format_value"),
    "pingpong": ("DEFAULT_PACKET_SIZES", "PingPongResult", "pingpong_sweep",
                 "run_pingpong"),
    "overlap": ("COPY_BYTES_PER_ITER", "NEWTON_FLOPS_PER_ITER",
                "OverlapPoint", "run_overlap"),
    "weak_scaling": ("ScalingRow", "particles_weak_scaling",
                     "spmv_weak_scaling", "stencil_weak_scaling"),
}
_SOURCE = {name: module for module, names in _SUBMODULE_EXPORTS.items()
           for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
