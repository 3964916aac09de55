"""Structural guard: the model uses the kernel and the queues through
their APIs.

A hold site outside ``repro.sim`` waits with ``yield sem.request()`` and
returns the token with ``sem.release()``.  It never copies the acquire:
no module under ``src/repro/`` outside ``sim/`` may import ``PENDING``,
name a semaphore's private ``_req_name`` or ``_available`` (or an
``_efree`` request pool), or assign an event's ``_value``,
``_scheduled`` or ``callbacks``.

A bounded wait is ``yield from bounded(ev, t)``: no module outside
``sim/`` may name ``AnyOf`` or assign an event's ``abandoned`` flag, and
no module under ``dcuda/`` may name ``bounded`` at all — the device
API's waits follow the peer, not a deadline.
Nor may one reach into a buffer's privates (``_entries``, ``_items``,
``_putters``): a circular queue's buffer is its read-only ``entries``,
and only ``runtime/queues.py`` names a queue's parked consumer
(``_park_proc``); the matcher asks ``queue.parked``.

The check reads each module's syntax tree, so comments and docstrings may
still mention the names.
"""

import ast
from pathlib import Path

_PKG = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Kernel-private names a model module must not use.
_PRIVATE_NAMES = {"PENDING", "_efree", "_req_name", "_available", "AnyOf",
                  "_entries", "_items", "_putters"}
#: Event fields only the kernel may write.
_EVENT_FIELDS = {"_value", "_scheduled", "callbacks", "abandoned"}


def _violations(tree: ast.AST, private=_PRIVATE_NAMES, fields=_EVENT_FIELDS):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in private:
                    yield node.lineno, f"imports {alias.name}"
        elif isinstance(node, ast.Name) and node.id in private:
            yield node.lineno, f"names {node.id}"
        elif isinstance(node, ast.Attribute):
            if node.attr in private:
                yield node.lineno, f"names .{node.attr}"
            elif node.attr in fields and isinstance(node.ctx, ast.Store):
                yield node.lineno, f"assigns .{node.attr}"


def _modules():
    modules = sorted(_PKG.rglob("*.py"))
    assert len(modules) > 50  # the walk found the package
    return modules


def _found(modules, **rules):
    return [f"{path.relative_to(_PKG)}:{line}: {what}"
            for path in modules
            for line, what in _violations(ast.parse(path.read_text()),
                                          **rules)]


def test_no_module_outside_sim_reaches_into_the_kernel():
    sim = _PKG / "sim"
    assert _found([p for p in _modules() if sim not in p.parents]) == []


def test_no_dcuda_module_bounds_a_wait():
    """The device API's waits (acks, notifications, flushes) end when the
    peer's operation lands; only the hang guards of the launch and the
    fault-injected queue sites may bound a wait."""
    dcuda = _PKG / "dcuda"
    assert _found([p for p in _modules() if dcuda in p.parents],
                  private={"bounded"}, fields=set()) == []


def test_only_the_queue_names_its_parked_consumer():
    queues = _PKG / "runtime" / "queues.py"
    assert _found([p for p in _modules() if p != queues],
                  private={"_park_proc"}, fields=set()) == []
