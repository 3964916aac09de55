"""Tests for the RunSpec task model and the canonical content hash."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.apps.diffusion import DiffusionWorkload
from repro.errors import DCudaUsageError
from repro.exec import (
    RunSpec,
    canonical_digest,
    entrypoint,
    registered_entrypoints,
    resolve_entrypoint,
)
from repro.hw import greina


class TestCanonicalDigest:
    def test_stable_across_calls(self):
        value = {"a": 1, "b": [1.5, "x", None, True]}
        assert canonical_digest(value) == canonical_digest(value)

    def test_dict_insertion_order_never_matters(self):
        assert (canonical_digest({"a": 1, "b": 2})
                == canonical_digest({"b": 2, "a": 1}))

    def test_distinct_values_distinct_digests(self):
        seen = {canonical_digest(v) for v in
                (None, True, False, 0, 1, 1.0, "1", b"1", [1], {"k": 1})}
        assert len(seen) == 10

    def test_no_concatenation_collisions(self):
        assert (canonical_digest(("ab", "c"))
                != canonical_digest(("a", "bc")))
        assert canonical_digest([1, 23]) != canonical_digest([12, 3])

    def test_numpy_array_content_sensitivity(self):
        a = np.arange(6, dtype=np.float64)
        b = a.copy()
        assert canonical_digest(a) == canonical_digest(b)
        b[3] += 1e-12
        assert canonical_digest(a) != canonical_digest(b)
        # dtype and shape are part of the identity too.
        assert (canonical_digest(a.astype(np.float32))
                != canonical_digest(a))
        assert (canonical_digest(a.reshape(2, 3))
                != canonical_digest(a))

    def test_non_contiguous_array_equals_contiguous_copy(self):
        a = np.arange(10, dtype=np.int64)[::2]
        assert canonical_digest(a) == canonical_digest(a.copy())

    def test_nested_dataclasses_hash(self):
        wl = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=2)
        cfg = greina(2)
        d1 = canonical_digest({"wl": wl, "cfg": cfg})
        d2 = canonical_digest({"wl": wl, "cfg": greina(2)})
        assert d1 == d2
        d3 = canonical_digest({"wl": wl, "cfg": greina(4)})
        assert d1 != d3

    def test_unsupported_type_raises_typed_error(self):
        with pytest.raises(DCudaUsageError):
            canonical_digest(object())
        with pytest.raises(DCudaUsageError):
            canonical_digest({"nested": {"deep": set()}})

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(DCudaUsageError):
            canonical_digest({1: "a"})


class TestRunSpec:
    def test_content_hash_ignores_label(self):
        nap = {"mode": "sleep", "seconds": 0.5}
        a = RunSpec("selftest_point", nap, label="x")
        b = RunSpec("selftest_point", nap, label="y")
        assert a.content_hash() == b.content_hash()

    def test_a_spec_is_its_entrypoint_params_and_label(self):
        """Every spec is content: there is no per-spec cache policy."""
        assert [f.name for f in dataclasses.fields(RunSpec)] == [
            "entrypoint", "params", "label"]

    def test_content_hash_covers_entrypoint_and_params(self):
        a = RunSpec("selftest_point", {"mode": "sleep", "seconds": 0.5})
        assert (a.content_hash()
                != RunSpec("pingpong_point", a.params).content_hash())
        assert (a.content_hash()
                != RunSpec("selftest_point",
                           {"mode": "sleep", "seconds": 0.6}).content_hash())

    def test_hash_stable_across_pickle_roundtrip(self):
        wl = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=2)
        spec = RunSpec("weak_scaling_point",
                       dict(app="stencil", nodes=3, wl=wl), label="c3")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.content_hash() == spec.content_hash()
        assert clone.label == "c3"

    def test_describe_prefers_label(self):
        assert RunSpec("selftest_point", label="nap").describe() == "nap"
        anon = RunSpec("selftest_point").describe()
        assert anon.startswith("selftest_point[")


class TestRegistry:
    def test_known_entrypoints_registered(self):
        """Every registered entrypoint is a pure function of its params;
        a wall-clock probe is not one and is not registered."""
        assert set(registered_entrypoints()) == {
            "chaos_case", "pingpong_point", "topology_point",
            "overlap_point", "weak_scaling_point", "collective_point",
            "gemm_point", "train_point", "queue_burst_point",
            "staging_point", "selftest_point"}

    def test_every_entrypoint_takes_only_its_params(self):
        """A task is its spec: each registered entrypoint has exactly one
        parameter, the spec's params, and nothing else can reach it."""
        import inspect

        for name, fn in registered_entrypoints().items():
            params = list(inspect.signature(fn).parameters.values())
            assert len(params) == 1, (name, params)
            assert params[0].kind in (inspect.Parameter.POSITIONAL_ONLY,
                                      inspect.Parameter.POSITIONAL_OR_KEYWORD)

    def test_unknown_entrypoint_raises_typed_error(self):
        with pytest.raises(DCudaUsageError, match="unknown entrypoint"):
            resolve_entrypoint("no_such_point")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DCudaUsageError, match="already registered"):
            @entrypoint("selftest_point")
            def imposter(params):
                return None

    def test_reregistering_same_function_is_idempotent(self):
        fn = resolve_entrypoint("selftest_point")
        assert entrypoint("selftest_point")(fn) is fn
