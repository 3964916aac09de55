"""Digest parity: the exact-type serializer against the frozen reference.

:func:`repro.exec.spec.canonical_digest` keys every cache entry and
witnesses every sweep's results.  Its serialization must therefore never drift.  This module
keeps a frozen copy of the streaming ``h.update`` implementation it
replaced (:func:`_reference_feed`) and asserts byte-identical digests,
and the same typed errors, on a generated corpus that covers both the
exact-type fast path and the general isinstance chain.  The serializer
looks numpy up instead of importing it, so a fresh interpreter that
digests before numpy loads, and again after, must give the reference's
digests too.  The committed fig6 sweep record pins the whole chain end
to end.
"""

import collections
import collections.abc
import dataclasses
import enum
import hashlib
import json
import subprocess
import sys
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


# ------------------------------------------ numpy loaded after the digest -----
#: Run as ``__main__`` both in a fresh interpreter and here, so the
#: dataclass names, and so the digests, agree.
_LATE_CORPUS = """
import collections
import dataclasses


@dataclasses.dataclass(frozen=True)
class Point:
    x: object = 0
    y: object = "y"


@dataclasses.dataclass(frozen=True)
class Nested:
    point: Point = Point()
    items: tuple = ()


# Values that exist without numpy, unsupported ones included.
def before():
    return [None, True, 0, -(10 ** 40), 2.5, -0.0, float("nan"), "e\u0301",
            b"\\x00", (1, "a"), [1.0, [2, (3,)]], {"b": 1, "a": [None]},
            collections.OrderedDict(z=1, a=2), Point(),
            Nested(Point(1, (2,)), (Point(),)),
            {"cfg": Nested(), "seeds": list(range(3))},
            {1: "a"}, {"deep": [set()]}, frozenset({1}), 1j,
            bytearray(b"x"), Point(set())]


# numpy's values, and dataclasses deriving from its types.
def after():
    import numpy as np

    @dataclasses.dataclass(init=False, eq=False)
    class ArrayRecord(np.ndarray):
        pass

    @dataclasses.dataclass(init=False, eq=False)
    class ScalarRecord(np.float32):
        pass

    grid = np.arange(24.0).reshape(4, 6)
    return [grid, grid[::2, 1::3], grid.T, np.array(2.5), np.int32(-7),
            np.float32(1.5), np.float64(0.1), np.bool_(True),
            np.int64(2 ** 40), {"field": grid, "scalar": np.uint8(3)},
            Point(np.arange(3), np.float32(2)),
            np.arange(6).view(ArrayRecord), ScalarRecord(1.5)]
"""

_LATE_SCRIPT = """
import json
import sys

from repro.errors import DCudaUsageError
from repro.exec.spec import canonical_digest

exec(sys.argv[1])


def outcome(obj):
    try:
        return ["ok", canonical_digest(obj)]
    except DCudaUsageError as exc:
        return ["usage-error", str(exc)]


assert "numpy" not in sys.modules, "importing the digest loaded numpy"
early = [outcome(value) for value in before()]
assert "numpy" not in sys.modules, "digesting loaded numpy"
late = [outcome(value) for value in after()]
again = [outcome(value) for value in before()]
print(json.dumps({"early": early, "late": late, "again": again}))
"""


def test_digests_match_reference_when_numpy_loads_late():
    """Before numpy loads, after it loads, and for values built before it
    loaded: every digest and typed error equals the reference's, which
    runs here with numpy imported first."""
    proc = subprocess.run(
        [sys.executable, "-c", _LATE_SCRIPT, _LATE_CORPUS],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    corpus = {"__name__": "__main__"}
    exec(_LATE_CORPUS, corpus)

    def reference(values):
        return [list(_outcome(reference_digest, v)) for v in values]

    early = reference(corpus["before"]())
    assert [kind for kind, _ in early].count("usage-error") == 6
    assert got["early"] == early
    assert got["again"] == early
    assert got["late"] == reference(corpus["after"]())


def test_fig6_results_digest_matches_committed_record():
    """The committed sweep record pins the whole token stream."""
    committed = json.loads((REPO_ROOT / "BENCH_sweep.json").read_text())
    assert committed["suite"] == "fig6"
    suite = build_suite("fig6", iterations=5)
    assert committed["tasks"] == len(suite.specs)
    report = run_specs(suite.specs, workers=1)
    assert canonical_digest(report.results) == committed["results_digest"]
