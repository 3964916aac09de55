"""The sweep task model: picklable :class:`RunSpec` + entrypoint registry.

A *run spec* describes one independent simulation — a figure point, an
ablation cell or a chaos seed — as pure data: the name
of a registered entrypoint function plus a mapping of picklable
parameters.  Because the spec is data, the execution engine
(:mod:`repro.exec.engine`) can ship it to a worker process spawned with a
fresh interpreter, and because it has a *stable content hash*
(:meth:`RunSpec.content_hash`), the result cache
(:mod:`repro.exec.cache`) can address results by what was asked for
rather than when it ran.

The content hash is computed over a canonical byte serialization
(:func:`canonical_digest`) that covers the value types sweeps actually
use — primitives, tuples/lists, string-keyed dicts, (nested, frozen)
dataclasses such as :class:`~repro.hw.config.MachineConfig`, and numpy
arrays — and deliberately rejects everything else: an unhashable
parameter would silently break cache addressing, so it raises
:class:`~repro.errors.DCudaUsageError` instead.  The serializer looks
numpy up in :data:`sys.modules` and never imports it: an array, a numpy
scalar or a class deriving from one exists only once numpy is loaded,
so every token is the same as if it had imported numpy, and a sweep
coordinator, which keys specs and digests results that hold no array,
never loads it.

Entrypoints are plain functions ``fn(params) -> result`` registered
by name via :func:`entrypoint`; the registry is populated by importing
:mod:`repro.exec.points` (done lazily by :func:`resolve_entrypoint`,
and by every worker at start-up), so a spec resolves identically in the
parent and in a spawned worker.  A task is its spec: nothing but the
params reaches the entrypoint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping

from ..errors import DCudaUsageError

__all__ = [
    "RunSpec",
    "canonical_digest",
    "entrypoint",
    "resolve_entrypoint",
    "registered_entrypoints",
]

#: Version tag mixed into every hash so a change to the canonical
#: serialization itself invalidates all previously cached results.
_HASH_VERSION = b"runspec-v1"

#: A dataclass that also derives from one of these, or from numpy's
#: ``ndarray`` or ``generic`` once numpy is loaded, is serialized as that
#: type, by the isinstance chain, not field by field.
_CLAIMED = (int, float, str, bytes, tuple, list, Mapping)

#: Per class: ``False``, or for a dataclass the fast path covers, its
#: token prefix (class tag and field count) and ``(field name, name
#: token)`` pairs in sorted order.
_CLASS_TAGS: Dict[type, Any] = {}


def _dataclass_tags(cls: type):
    tags = _CLASS_TAGS.get(cls)
    if tags is None:
        tags = False
        np = sys.modules.get("numpy")
        claimed = _CLAIMED if np is None else (
            _CLAIMED + (np.ndarray, np.generic))
        if dataclasses.is_dataclass(cls) and not issubclass(cls, claimed):
            out: List[bytes] = []
            _tokens(f"{cls.__module__}.{cls.__qualname__}", out)
            names = sorted(f.name for f in dataclasses.fields(cls))
            for name in names:
                _tokens(name, out)
            head = b"C" + out[0] + b"D%d:" % len(names)
            tags = (head, tuple(zip(names, out[1:])))
        _CLASS_TAGS[cls] = tags
    return tags


def _tokens(obj: Any, out: List[bytes]) -> None:
    """Append *obj*'s type-tagged token stream to *out*.

    Every token is tagged and length-prefixed, so distinct values can
    never collide by concatenation (``("ab", "c")`` vs ``("a", "bc")``).
    Exact built-in types, str-keyed dicts and dataclasses dispatch on
    ``type(obj)``; every other value (subclasses, bytes, other mappings,
    numpy values) takes the isinstance chain, which yields the same
    tokens for any value both accept.

    Raises:
        DCudaUsageError: If *obj* (or anything nested in it) is not a
            supported spec-parameter type.
    """
    cls = type(obj)
    if cls is str:
        t = obj.encode()
        out.append(b"S%d:" % len(t) + t)
    elif cls is int:
        t = str(obj).encode()
        out.append(b"I%d:" % len(t) + t)
    elif cls is float:
        t = repr(obj).encode()             # repr round-trips IEEE doubles
        out.append(b"F%d:" % len(t) + t)
    elif cls is bool:
        out.append(b"B1" if obj else b"B0")
    elif obj is None:
        out.append(b"N")
    elif cls is tuple or cls is list:
        out.append(b"T%d:" % len(obj))
        for item in obj:
            _tokens(item, out)
    elif cls is dict and all(type(k) is str for k in obj):
        out.append(b"D%d:" % len(obj))
        for k in sorted(obj):              # insertion order never matters
            t = k.encode()
            out.append(b"S%d:" % len(t) + t)
            _tokens(obj[k], out)
    elif tags := _dataclass_tags(cls):
        head, fields = tags
        out.append(head)
        for name, token in fields:
            out.append(token)
            _tokens(getattr(obj, name), out)
    elif isinstance(obj, int):
        t = str(obj).encode()
        out.append(b"I%d:" % len(t) + t)
    elif isinstance(obj, float):
        t = repr(obj).encode()
        out.append(b"F%d:" % len(t) + t)
    elif isinstance(obj, str):
        t = obj.encode()
        out.append(b"S%d:" % len(t) + t)
    elif isinstance(obj, bytes):
        out.append(b"Y%d:" % len(obj) + obj)
    elif isinstance(obj, (tuple, list)):
        out.append(b"T%d:" % len(obj))
        for item in obj:
            _tokens(item, out)
    elif isinstance(obj, Mapping):
        keys = list(obj)
        if not all(isinstance(k, str) for k in keys):
            raise DCudaUsageError(
                "spec parameter dicts must have string keys, got "
                f"{sorted(type(k).__name__ for k in keys)}")
        out.append(b"D%d:" % len(keys))
        for k in sorted(keys):
            _tokens(k, out)
            _tokens(obj[k], out)
    else:
        _numpy_tokens(obj, out)


def _numpy_tokens(obj: Any, out: List[bytes]) -> None:
    """Append the tokens of a numpy array or scalar; reject anything else.

    numpy is looked up, not imported: when it is not loaded, *obj*
    cannot be one of its values.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        out.append(b"A")
        _tokens(data.dtype.str, out)
        _tokens(list(data.shape), out)
        out.append(hashlib.sha256(data.tobytes()).digest())
    elif np is not None and isinstance(obj, np.generic):
        out.append(b"G")
        _tokens(obj.dtype.str, out)
        out.append(obj.tobytes())
    else:
        raise DCudaUsageError(
            f"unhashable spec parameter of type {type(obj).__name__!r}: "
            f"{obj!r}; supported types are primitives, tuples/lists, "
            "str-keyed dicts, dataclasses, and numpy arrays")


def canonical_digest(obj: Any) -> str:
    """Deterministic sha256 hex digest of a supported parameter value.

    The digest is stable across processes, interpreter restarts, and dict
    insertion orders — the property the result cache's content addressing
    rests on.  The token stream is built first and hashed in one pass.

    Raises:
        DCudaUsageError: For unsupported value types (see :func:`_tokens`).
    """
    out = [_HASH_VERSION]
    _tokens(obj, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One independent simulation run, as pure picklable data.

    Args:
        entrypoint: Name of a function registered via :func:`entrypoint`
            (the registry lives in :mod:`repro.exec.points`).
        params: Picklable, canonically-hashable keyword parameters passed
            to the entrypoint, its only input.  An input every spec of a
            sweep needs is rebuilt from these params in the worker and
            cached there, as the chaos baseline is.
        label: Display name for progress/error messages; not hashed.
    """

    entrypoint: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    def content_hash(self) -> str:
        """Stable content hash of ``(entrypoint, params)``.

        ``label`` is presentation, not content, and is deliberately
        excluded.
        """
        return canonical_digest((self.entrypoint, dict(self.params)))

    def describe(self) -> str:
        """Human-readable identity for logs and error messages."""
        return self.label or f"{self.entrypoint}[{self.content_hash()[:10]}]"


# ------------------------------------------------------------ registry -----
_ENTRYPOINTS: Dict[str, Callable[[Mapping[str, Any]], Any]] = {}


def entrypoint(name: str):
    """Decorator factory: register ``fn(params)`` under *name*.

    Raises:
        DCudaUsageError: If *name* is already registered (a silent
            overwrite would make spec hashes ambiguous).
    """

    def _register(fn):
        if name in _ENTRYPOINTS and _ENTRYPOINTS[name] is not fn:
            raise DCudaUsageError(
                f"entrypoint {name!r} is already registered")
        _ENTRYPOINTS[name] = fn
        return fn

    return _register


def resolve_entrypoint(name: str):
    """Look up a registered entrypoint, importing the registry if needed.

    Returns:
        The registered ``fn(params)`` callable.

    Raises:
        DCudaUsageError: If no entrypoint of that name exists.
    """
    if name not in _ENTRYPOINTS:
        from . import points  # noqa: F401  (import populates the registry)
    try:
        return _ENTRYPOINTS[name]
    except KeyError:
        known = ", ".join(sorted(_ENTRYPOINTS)) or "<none>"
        raise DCudaUsageError(
            f"unknown entrypoint {name!r}; registered: {known}") from None


def registered_entrypoints() -> Dict[str, Callable]:
    """Snapshot of the registry (importing it first), name → callable."""
    from . import points  # noqa: F401
    return dict(_ENTRYPOINTS)
