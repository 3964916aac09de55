"""The topo suite: spec shape, CLI flags, and kind validation."""

import json

import pytest

from repro.errors import DCudaUsageError
from repro.exec.__main__ import main
from repro.exec.suites import build_suite


class TestBuildSuite:
    def test_default_sweeps_all_kinds(self):
        suite = build_suite("topo")
        # 3 kinds x (3 latency pairs + 3 overlap runs), proxy backend.
        assert len(suite.specs) == 18
        labels = [s.label for s in suite.specs]
        assert "topo:proxy:flat:same-node" in labels
        assert "topo:proxy:ring:far" in labels
        assert "topo-overlap:proxy:fat_tree:both" in labels

    def test_kind_subset(self):
        suite = build_suite("topo", topology=("ring",))
        assert len(suite.specs) == 6
        latency = [s for s in suite.specs
                   if s.label.startswith("topo:")]
        assert len(latency) == 3
        assert all(s.params["kind"] == "ring" for s in latency)

    def test_backend_axis_multiplies_the_suite(self):
        suite = build_suite("topo", topology=("flat",),
                            backends=("proxy", "device", "stream"))
        assert len(suite.specs) == 18
        for backend in ("proxy", "device", "stream"):
            assert f"topo:{backend}:flat:far" in [s.label
                                                  for s in suite.specs]

    def test_unknown_backend_rejected(self):
        with pytest.raises(DCudaUsageError, match="comm backend"):
            build_suite("topo", backends=("smoke-signals",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DCudaUsageError, match="interconnect kind"):
            build_suite("topo", topology=("torus",))

    def test_far_pair_is_ring_diameter(self):
        suite = build_suite("topo", nodes=6, topo_gpus=1)
        far = [s for s in suite.specs
               if s.label == "topo:proxy:ring:far"][0]
        assert far.params["b"] == (3, 0)


def test_cli_runs_one_kind(tmp_path, capsys):
    rc = main(["run", "topo", "--topology", "ring", "--nodes", "4",
               "--topo-gpus", "1", "--iterations", "3",
               "--cache-dir", str(tmp_path / "cache"),
               "--json", str(tmp_path / "sweep.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Topology matrix" in out
    assert "Overlap efficiency" in out
    record = json.loads((tmp_path / "sweep.json").read_text())
    assert record["suite"] == "topo" and record["tasks"] == 6


def test_topology_results_are_cacheable(tmp_path, capsys):
    args = ["run", "topo", "--topology", "flat", "--nodes", "2",
            "--topo-gpus", "1", "--iterations", "3",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "sweep.json")]
    assert main(args) == 0
    cold = json.loads((tmp_path / "sweep.json").read_text())
    assert main(args + ["--require-cached"]) == 0
    warm = json.loads((tmp_path / "sweep.json").read_text())
    assert warm["results_digest"] == cold["results_digest"]
    assert warm["cache_hits"] == warm["tasks"]
