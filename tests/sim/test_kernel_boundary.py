"""Structural guard: the model waits for a token through the kernel's API.

A hold site outside ``repro.sim`` waits with ``yield sem.request()`` and
returns the token with ``sem.release()``.  It never copies the acquire:
no module under ``src/repro/`` outside ``sim/`` may import ``PENDING``,
name a semaphore's private ``_req_name`` or ``_available`` (or an
``_efree`` request pool), or assign an event's ``_value``,
``_scheduled`` or ``callbacks``.  The check reads each module's syntax
tree, so comments and docstrings may still mention the names.
"""

import ast
from pathlib import Path

_PKG = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Kernel-private names a model module must not use.
_PRIVATE_NAMES = {"PENDING", "_efree", "_req_name", "_available"}
#: Event fields only the kernel may write.
_EVENT_FIELDS = {"_value", "_scheduled", "callbacks"}


def _violations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _PRIVATE_NAMES:
                    yield node.lineno, f"imports {alias.name}"
        elif isinstance(node, ast.Name) and node.id in _PRIVATE_NAMES:
            yield node.lineno, f"names {node.id}"
        elif isinstance(node, ast.Attribute):
            if node.attr in _PRIVATE_NAMES:
                yield node.lineno, f"names .{node.attr}"
            elif (node.attr in _EVENT_FIELDS
                  and isinstance(node.ctx, ast.Store)):
                yield node.lineno, f"assigns .{node.attr}"


def _model_modules():
    sim = _PKG / "sim"
    return sorted(p for p in _PKG.rglob("*.py") if sim not in p.parents)


def test_no_module_outside_sim_reaches_into_the_kernel():
    modules = _model_modules()
    assert len(modules) > 50  # the walk found the package
    found = [f"{path.relative_to(_PKG)}:{line}: {what}"
             for path in modules
             for line, what in _violations(ast.parse(path.read_text()))]
    assert found == []

