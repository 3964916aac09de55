"""Unit semantics of the pluggable communication backends.

Backend *selection* (registry, config validation, runtime wiring), the
paths each backend must or must not touch (host command queue, NIC
doorbells, SM-side RMA initiation), typed-error parity, the latency
ordering their cost models imply, and the ``comm_backend`` cache
salting of the sweep engine.
"""

import dataclasses

import numpy as np
import pytest

from repro.comm import build_backend
from repro.comm.device import DeviceBackend
from repro.comm.proxy import ProxyBackend
from repro.comm.stream import StreamBackend
from repro.dcuda import launch
from repro.errors import DCudaUsageError
from repro.exec import RunSpec
from repro.hw import (
    COMM_BACKENDS,
    Cluster,
    DeviceCommConfig,
    StreamCommConfig,
    greina,
)

BACKEND_CLASSES = {"proxy": ProxyBackend, "device": DeviceBackend,
                   "stream": StreamBackend}


# ------------------------------------------------------- selection ----------
def test_registry_covers_every_declared_backend():
    assert set(BACKEND_CLASSES) == set(COMM_BACKENDS)


def test_unknown_backend_rejected_at_config_time():
    with pytest.raises(DCudaUsageError, match="comm_backend"):
        greina(comm_backend="rdma-over-carrier-pigeon")


def test_wrong_cost_config_types_rejected():
    with pytest.raises(DCudaUsageError, match="device_comm"):
        greina(device_comm=StreamCommConfig())
    with pytest.raises(DCudaUsageError, match="stream_comm"):
        greina(stream_comm=DeviceCommConfig())


def test_build_backend_rejects_unknown_name():
    cluster = Cluster(greina(1))
    from repro.runtime.system import DCudaRuntime

    runtime = DCudaRuntime(cluster, 1)
    with pytest.raises(DCudaUsageError, match="unknown comm backend"):
        build_backend("bogus", runtime)


@pytest.mark.parametrize("backend", COMM_BACKENDS)
def test_runtime_wires_the_configured_backend(backend):
    cluster = Cluster(greina(1, comm_backend=backend))
    from repro.runtime.system import DCudaRuntime

    runtime = DCudaRuntime(cluster, 1)
    assert isinstance(runtime.comm, BACKEND_CLASSES[backend])


def test_default_backend_is_proxy():
    assert greina().comm_backend == "proxy"


# ------------------------------------------------- path observability -------
def _run_remote_put(backend):
    """One remote notified put on a 2-node cluster.

    Returns:
        ``(cluster, rank0_cmd_queue_enqueues)``.
    """
    cluster = Cluster(greina(2, comm_backend=backend))
    buffers = {r: np.zeros(8) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        if r == 0:
            yield from rank.put_notify(win, 1, 0, np.ones(4), tag=7)
            yield from rank.flush()
        else:
            yield from rank.wait_notifications(win, source=0, tag=7)
        yield from rank.barrier()
        yield from rank.finish()

    res = launch(cluster, kernel, ranks_per_device=1)
    assert buffers[1][:4].tolist() == [1.0] * 4
    return cluster, res.runtime.state_of(0).cmd_queue.stats.enqueues


def test_proxy_uses_host_path_only():
    cluster, _ = _run_remote_put("proxy")
    assert cluster.nodes[0].gpu(0).rma_initiations == 0
    assert cluster.fabric.nic_stats(0)["doorbells"] == 0


def test_device_backend_bypasses_the_host_command_queue():
    cluster, device_q = _run_remote_put("device")
    # The SM initiated the RMA and rang the NIC doorbell itself...
    assert cluster.nodes[0].gpu(0).rma_initiations > 0
    assert cluster.fabric.nic_stats(0)["doorbells"] == 1
    # ...and the host-side proxy queue never saw a put command: only
    # win_create, two barriers, and finish crossed PCIe.
    _, proxy_q = _run_remote_put("proxy")
    assert device_q == proxy_q - 1


def test_stream_backend_defers_ops_without_doorbells():
    cluster, stream_q = _run_remote_put("stream")
    assert cluster.nodes[0].gpu(0).rma_initiations == 0
    assert cluster.fabric.nic_stats(0)["doorbells"] == 0
    # Stream traffic rides the d2d lane off the host command queue...
    _, proxy_q = _run_remote_put("proxy")
    assert stream_q == proxy_q - 1
    # ...but still crosses the wire as one NIC message.
    assert cluster.fabric.nic_stats(0)["messages"] >= 1


# ------------------------------------------------------ typed errors --------
@pytest.mark.parametrize("backend", COMM_BACKENDS)
def test_remote_out_of_bounds_put_raises_index_error(backend):
    cluster = Cluster(greina(2, comm_backend=backend))
    buffers = {r: np.zeros(8) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        if r == 0:
            yield from rank.put_notify(win, 1, 6, np.ones(4), tag=1)
            yield from rank.flush()
        yield from rank.barrier()
        yield from rank.finish()

    with pytest.raises(IndexError, match="out of bounds"):
        launch(cluster, kernel, ranks_per_device=1)


@pytest.mark.parametrize("backend", COMM_BACKENDS)
def test_shared_dtype_mismatch_raises_type_error(backend):
    cluster = Cluster(greina(1, comm_backend=backend))
    buffers = {r: np.zeros(8, dtype=np.float64) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        if r == 0:
            yield from rank.put_notify(win, 1, 0,
                                       np.ones(2, dtype=np.float32), tag=1)
        yield from rank.barrier()
        yield from rank.finish()

    with pytest.raises(TypeError, match="dtype"):
        launch(cluster, kernel, ranks_per_device=2)


@pytest.mark.parametrize("backend", COMM_BACKENDS)
def test_remote_out_of_bounds_get_raises_index_error(backend):
    cluster = Cluster(greina(2, comm_backend=backend))
    buffers = {r: np.zeros(8) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        if r == 0:
            dst = np.zeros(4)
            yield from rank.get_notify(win, 1, 6, dst, tag=1)
            yield from rank.flush()
        yield from rank.barrier()
        yield from rank.finish()

    with pytest.raises(IndexError, match="out of bounds"):
        launch(cluster, kernel, ranks_per_device=1)


# ------------------------------------------------------ cost models ---------
def test_latency_ordering_matches_the_initiation_depth():
    """Fewer hops, lower latency: device-initiated skips the host
    round-trip entirely, stream-triggered pays the trigger latency on
    top, and the proxy pays the full PCIe command/poll cycle."""
    from repro.bench.pingpong import run_pingpong

    lat = {b: run_pingpong(False, 256, 4,
                           cfg=greina(comm_backend=b)).latency
           for b in COMM_BACKENDS}
    assert lat["device"] < lat["stream"] < lat["proxy"]
    shared = {b: run_pingpong(True, 256, 4,
                              cfg=greina(comm_backend=b)).latency
              for b in COMM_BACKENDS}
    assert shared["device"] < shared["stream"] < shared["proxy"]


def test_proxy_backend_is_the_unchanged_default_path():
    """The proxy backend must reproduce the paper-calibrated ping-pong
    latencies exactly — it is the historical code path behind a new
    interface, not a reimplementation."""
    from repro.bench.pingpong import run_pingpong

    default = run_pingpong(False, 256, 4).latency
    explicit = run_pingpong(False, 256, 4,
                            cfg=greina(comm_backend="proxy")).latency
    assert default == explicit


# ------------------------------------------------------ cache salting -------
def test_spec_digest_salts_on_comm_backend_param():
    base = dict(shared_mem=False, packet_bytes=256, iterations=4)
    hashes = {RunSpec("pingpong_point",
                      dict(base, comm_backend=b)).content_hash()
              for b in COMM_BACKENDS}
    assert len(hashes) == len(COMM_BACKENDS)
    # Omitting the param is also distinct from naming any backend.
    hashes.add(RunSpec("pingpong_point", base).content_hash())
    assert len(hashes) == len(COMM_BACKENDS) + 1


def test_spec_digest_salts_on_comm_backend_config_field():
    base = greina(2)
    hashes = {RunSpec("overlap_point",
                      dict(mode="copy", compute_iters=4,
                           cfg=dataclasses.replace(base, comm_backend=b))
                      ).content_hash()
              for b in COMM_BACKENDS}
    assert len(hashes) == len(COMM_BACKENDS)
