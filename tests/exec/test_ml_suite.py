"""The ml suite: spec shape, entrypoint contracts, CLI, and caching."""

import json

import pytest

from repro.errors import DCudaUsageError
from repro.exec.__main__ import main
from repro.exec.points import collective_point, gemm_point, train_point
from repro.exec.suites import build_suite

TINY = dict(kind="flat", num_nodes=2, gpus_per_node=1)


class TestBuildSuite:
    def test_default_shape(self):
        suite = build_suite("ml")
        # 1 backend x 2 kinds x (3 collectives + 3 gemm modes + 2 train).
        assert len(suite.specs) == 16
        labels = [s.label for s in suite.specs]
        assert "ml-coll:proxy:flat:ring" in labels
        assert "ml-coll:proxy:fat_tree:hierarchical" in labels
        assert "ml-gemm:proxy:flat:stream" in labels
        assert "ml-train:proxy:fat_tree:65536" in labels

    def test_backend_axis_multiplies_the_suite(self):
        suite = build_suite("ml", backends=("proxy", "device", "stream"))
        assert len(suite.specs) == 48
        for backend in ("proxy", "device", "stream"):
            assert f"ml-train:{backend}:flat:64" in [s.label
                                                     for s in suite.specs]

    def test_kind_subset(self):
        suite = build_suite("ml", topology=("fat_tree",))
        assert len(suite.specs) == 8
        assert all(s.params["kind"] == "fat_tree" for s in suite.specs)

    def test_unknown_kind_rejected(self):
        # The ml story needs flat vs fat_tree; ring is a topo-suite kind.
        with pytest.raises(DCudaUsageError, match="ml topology kind"):
            build_suite("ml", topology=("ring",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(DCudaUsageError, match="comm backend"):
            build_suite("ml", backends=("pigeon",))


class TestEntrypoints:
    @pytest.mark.parametrize("op", ("allreduce", "reduce_scatter",
                                    "all_gather"))
    def test_collective_point_verifies_in_process(self, op):
        result = collective_point(
            dict(TINY, op=op, algorithm="ring", elems=10))
        assert result["ok"] and result["elapsed"] > 0
        assert result["algorithm"] == "ring"

    def test_collective_point_rejects_unknown_op(self):
        with pytest.raises(DCudaUsageError, match="collective op"):
            collective_point(dict(TINY, op="scan", elems=4))

    def test_gemm_point_bit_identity_in_both_mode(self):
        result = gemm_point(
            dict(kind="fat_tree", num_nodes=2, gpus_per_node=2,
                 mode="both", m=24, k=6, batch=8, tiles=4))
        assert result["ok"]
        assert result["elapsed"] > 0 and result["gather"] > 0

    def test_gemm_point_stream_mode_skips_verification(self):
        result = gemm_point(dict(TINY, mode="stream", m=8, k=6,
                                 batch=8, tiles=4))
        assert result["ok"] and result["gather"] == 0.0

    def test_train_point_autotunes_and_verifies(self):
        result = train_point(
            dict(kind="fat_tree", num_nodes=2, gpus_per_node=2,
                 features=64, steps=2, algorithm="auto"))
        assert result["ok"]
        # On 2 nodes hierarchical pays fewer inter-node latency terms
        # than tree (2 vs 4), so it wins even for a small gradient.
        assert result["algorithm"] == "hierarchical"
        assert result["predicted"] > 0

    def test_train_point_pinned_algorithm_has_no_prediction(self):
        result = train_point(dict(TINY, features=16, steps=1,
                                  algorithm="ring"))
        assert result["ok"] and result["algorithm"] == "ring"
        assert result["predicted"] is None

    def test_ml_cluster_rejects_unknown_kind(self):
        with pytest.raises(DCudaUsageError, match="ml-suite topology"):
            collective_point(dict(kind="ring", elems=4))


def test_cli_runs_tiny_ml_suite(tmp_path, capsys):
    rc = main(["run", "ml", "--topology", "flat", "--nodes", "2",
               "--topo-gpus", "1",
               "--cache-dir", str(tmp_path / "cache"),
               "--json", str(tmp_path / "sweep.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ML collectives" in out
    assert "Pipelined GEMM" in out
    assert "Autotuned data-parallel SGD" in out
    assert "NO" not in out  # every exactness/verification cell passed
    record = json.loads((tmp_path / "sweep.json").read_text())
    assert record["suite"] == "ml" and record["tasks"] == 8


def test_ml_results_are_cacheable(tmp_path, capsys):
    args = ["run", "ml", "--topology", "flat", "--nodes", "2",
            "--topo-gpus", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "sweep.json")]
    assert main(args) == 0
    cold = json.loads((tmp_path / "sweep.json").read_text())
    assert main(args + ["--require-cached"]) == 0
    warm = json.loads((tmp_path / "sweep.json").read_text())
    assert warm["results_digest"] == cold["results_digest"]
    assert warm["cache_hits"] == warm["tasks"]
