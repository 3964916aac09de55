"""dcuda-repro: a reproduction of *dCUDA: Hardware Supported Overlap of
Computation and Communication* (Gysi, Baer, Hoefler -- SC'16) on a
deterministic discrete-event simulation of a GPU cluster.

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (processes, events, resources,
    fair-share bandwidth links, tracing).
``repro.hw``
    Hardware models and calibration: GPU, device memory, PCIe, node,
    cluster (``greina()`` preset).
``repro.net``
    Inter-node interconnect fabric.
``repro.mpi``
    Two-sided MPI substrate on the simulated hosts.
``repro.runtime``
    The dCUDA host-side runtime system (queues, block managers, event
    handler).
``repro.dcuda``
    The device-side dCUDA library -- the paper's primary contribution --
    plus the paper's discussion-section extensions, a C-style API, and device-side collectives.
``repro.mpicuda``
    The traditional MPI-CUDA baseline programming model.
``repro.apps``
    Mini-applications (stencil, diffusion, particles, SpMV) in both
    programming models with serial references.
``repro.bench``
    Benchmark harness behind every figure of the paper's evaluation;
    ``python -m repro.exec run <figure>`` regenerates one.

Quick start: see ``repro.dcuda.launch`` and ``examples/quickstart.py``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
