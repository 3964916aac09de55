"""Digest parity: the exact-type serializer against the frozen reference.

:func:`repro.exec.spec.canonical_digest` keys every cache entry and
witnesses every sweep's results.  Its serialization must therefore never drift.  This module
keeps a frozen copy of the streaming ``h.update`` implementation it
replaced (:func:`_reference_feed`) and asserts byte-identical digests,
and the same typed errors, on a generated corpus that covers both the
exact-type fast path and the general isinstance chain.  The committed
fig6 sweep record pins the whole chain end to end.
"""

import collections
import collections.abc
import dataclasses
import enum
import hashlib
import json
import types
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import DCudaUsageError
from repro.exec import RunSpec, canonical_digest, run_specs
from repro.exec.suites import build_suite
from repro.faults import FaultEvent, FaultsConfig
from repro.hw import greina

REPO_ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------ frozen reference -----
def _reference_feed(h, obj: Any) -> None:
    """The streaming serializer, frozen: do not edit."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, int):
        t = str(obj).encode()
        h.update(b"I%d:" % len(t) + t)
    elif isinstance(obj, float):
        t = repr(obj).encode()
        h.update(b"F%d:" % len(t) + t)
    elif isinstance(obj, str):
        t = obj.encode()
        h.update(b"S%d:" % len(t) + t)
    elif isinstance(obj, bytes):
        h.update(b"Y%d:" % len(obj) + obj)
    elif isinstance(obj, (tuple, list)):
        h.update(b"T%d:" % len(obj))
        for item in obj:
            _reference_feed(h, item)
    elif isinstance(obj, Mapping):
        keys = list(obj)
        if not all(isinstance(k, str) for k in keys):
            raise DCudaUsageError(
                "spec parameter dicts must have string keys, got "
                f"{sorted(type(k).__name__ for k in keys)}")
        h.update(b"D%d:" % len(keys))
        for k in sorted(keys):
            _reference_feed(h, k)
            _reference_feed(h, obj[k])
    elif isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        h.update(b"A")
        _reference_feed(h, data.dtype.str)
        _reference_feed(h, list(data.shape))
        h.update(hashlib.sha256(data.tobytes()).digest())
    elif isinstance(obj, np.generic):
        h.update(b"G")
        _reference_feed(h, obj.dtype.str)
        h.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        h.update(b"C")
        _reference_feed(h, f"{cls.__module__}.{cls.__qualname__}")
        _reference_feed(h, {f.name: getattr(obj, f.name)
                            for f in dataclasses.fields(obj)})
    else:
        raise DCudaUsageError(
            f"unhashable spec parameter of type {type(obj).__name__!r}: "
            f"{obj!r}; supported types are primitives, tuples/lists, "
            "str-keyed dicts, dataclasses, and numpy arrays")


def reference_digest(obj: Any) -> str:
    h = hashlib.sha256()
    h.update(b"runspec-v1")
    _reference_feed(h, obj)
    return h.hexdigest()


def _outcome(fn, obj):
    try:
        return "ok", fn(obj)
    except DCudaUsageError as exc:
        return "usage-error", str(exc)


def assert_parity(obj):
    assert _outcome(canonical_digest, obj) == _outcome(reference_digest, obj)


# ------------------------------------------------------------ corpus -----
@dataclasses.dataclass(frozen=True)
class Inner:
    a: Any = 0
    b: Any = "x"


@dataclasses.dataclass(frozen=True)
class Outer:
    inner: Inner = Inner()
    items: Any = ()
    zeta: float = 0.0


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


Pair = collections.namedtuple("Pair", "left right")


@dataclasses.dataclass(frozen=True)
class MappingRecord(collections.abc.Mapping):
    """A dataclass that is also a Mapping: the Mapping branch claims it."""

    a: int = 1

    def __getitem__(self, key):
        return {"a": self.a}[key]

    def __iter__(self):
        return iter(("a",))

    def __len__(self):
        return 1


class Text(str):
    pass


floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324])
scalars = (st.none() | st.booleans()
           | st.integers(min_value=-10 ** 300, max_value=10 ** 300)
           | floats | st.text(max_size=12) | st.binary(max_size=12)
           | st.sampled_from(list(Level))
           | st.builds(Text, st.text(max_size=4))
           | st.builds(MappingRecord, st.integers()))
numpy_scalars = st.one_of(
    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_))
arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int8,
                           np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=4))
non_contiguous = arrays.filter(lambda a: a.ndim >= 1).map(lambda a: a[::2])
zero_d = floats.map(np.array)


def _containers(children):
    dicts = st.dictionaries(st.text(max_size=6), children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        dicts,
        dicts.map(lambda d: collections.OrderedDict(sorted(d.items()))),
        dicts.map(types.MappingProxyType),
        st.builds(Pair, children, children),
        st.builds(Inner, children, children),
        st.builds(Outer, st.builds(Inner, children, children),
                  st.lists(children, max_size=3).map(tuple), floats))


values = st.recursive(
    scalars | numpy_scalars | arrays | non_contiguous | zero_d,
    _containers, max_leaves=20)


class TestDigestParity:
    @settings(max_examples=300, deadline=None)
    @given(values)
    def test_generated_values_digest_identically(self, obj):
        assert_parity(obj)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), values, max_size=4),
           st.text(max_size=8))
    def test_spec_content_hash_matches_reference(self, params, name):
        spec = RunSpec(name, params)
        assert spec.content_hash() == reference_digest((name, params))

    @pytest.mark.parametrize("obj", [
        -0.0, float("nan"), 10 ** 200, -(10 ** 200), True, 1, 1.0,
        "é", b"\x00", np.arange(10)[::3], np.array(2.5), np.float32(1.5),
        Level.HIGH, Pair(1, "a"), collections.OrderedDict(b=1, a=2),
        types.MappingProxyType({"k": [1]}), MappingRecord(7), Text("t"),
        {Text("k"): 1}, Outer(Inner((1, 2), {"n": None}), (Inner(),), 2.0),
    ])
    def test_edge_values(self, obj):
        assert_parity(obj)

    def test_machine_and_faults_configs(self):
        for obj in (greina(2), greina(4),
                    FaultsConfig(enabled=True, seed=3),
                    FaultsConfig(enabled=True, events=(
                        FaultEvent("queue_drop", start=1e-6, target=2),
                        FaultEvent("link_degrade", target="node0"))),
                    {"cfg": greina(2), "faults": FaultsConfig()}):
            assert_parity(obj)

    @pytest.mark.parametrize("obj", [
        object(), {1: "a"}, {"a": 1, 2: "b"}, {(1,): "t"},
        {"nested": {"deep": set()}}, [frozenset()], bytearray(b"x"),
        1j, Inner, {"f": lambda: None},
        collections.OrderedDict([(1, 2)]),
        types.MappingProxyType({None: 1}), Outer(items=(set(),)),
    ])
    def test_same_typed_error_for_unsupported_values(self, obj):
        outcome = _outcome(canonical_digest, obj)
        assert outcome[0] == "usage-error"
        assert outcome == _outcome(reference_digest, obj)


def test_fig6_results_digest_matches_committed_record():
    """The committed sweep record pins the whole token stream."""
    committed = json.loads((REPO_ROOT / "BENCH_sweep.json").read_text())
    assert committed["suite"] == "fig6"
    suite = build_suite("fig6", iterations=5)
    assert committed["tasks"] == len(suite.specs)
    report = run_specs(suite.specs, workers=1)
    assert canonical_digest(report.results) == committed["results_digest"]
