"""Public-API docstring audit.

Every public symbol of the device API, the window/collective layers, and
the observability package must carry a docstring, and the documented
device-API entry points that can fail must *name* their exceptions in a
``Raises:`` section — the error taxonomy (``docs/faults.md``) is only
useful if the call sites point at it.
"""

import inspect

import pytest

import repro.apps.gemm_stream as gemm_stream
import repro.apps.train_step as train_step
import repro.dcuda.collectives as collectives
import repro.dcuda.collectives.algorithms as coll_algorithms
import repro.dcuda.collectives.autotune as coll_autotune
import repro.dcuda.collectives.core as coll_core
import repro.dcuda.device_api as device_api
import repro.dcuda.window as window
import repro.obs as obs
from repro.dcuda.device_api import DRank

MODULES = (device_api, window, collectives, coll_algorithms,
           coll_autotune, coll_core, gemm_stream, train_step, obs)


def public_symbols(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) or inspect.isclass(obj):
            yield name, obj


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_every_public_symbol_documented(module):
    missing = [name for name, obj in public_symbols(module)
               if not (getattr(obj, "__doc__", None) or "").strip()]
    assert not missing, (
        f"{module.__name__} exports undocumented symbols: {missing}")


def drank_public_methods():
    for name, member in inspect.getmembers(DRank):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member) or isinstance(member, property):
            yield name, member


def test_every_drank_method_documented():
    missing = [name for name, m in drank_public_methods()
               if not ((m.fget.__doc__ if isinstance(m, property)
                        else m.__doc__) or "").strip()]
    assert not missing, f"DRank has undocumented public members: {missing}"


#: Device-API calls and the exception names their docstring must
#: mention.  An empty tuple marks a call that raises nothing and must not
#: claim to: ``flush`` waits until its operations land, with no deadline.
RAISING_API = {
    "win_create": ("DCudaUsageError",),
    "win_free": ("DCudaProtocolError",),
    "barrier": ("DCudaProtocolError",),
    "finish": ("DCudaUsageError",),
    "flush": (),
    "wait_notifications": ("ValueError",),
    "put_notify": ("ValueError",),
    "get_notify": ("ValueError",),
}


@pytest.mark.parametrize("method,exceptions", sorted(RAISING_API.items()))
def test_raising_api_names_its_exceptions(method, exceptions):
    doc = inspect.getdoc(getattr(DRank, method))
    assert doc
    if not exceptions:
        assert "Raises" not in doc and "Error" not in doc, (
            f"DRank.{method} raises nothing but documents an exception")
        return
    assert "Raises" in doc, (
        f"DRank.{method} raises typed errors but has no Raises section")
    for exc in exceptions:
        assert exc in doc, (
            f"DRank.{method} docstring does not name {exc}")


def test_collectives_name_their_exceptions():
    for fn in (collectives.tree_broadcast, collectives.tree_reduce,
               collectives.hierarchical_broadcast):
        doc = inspect.getdoc(fn)
        assert doc and "Raises" in doc and "DCudaError" in doc


def test_window_check_target_names_valueerror():
    doc = inspect.getdoc(window.Window.check_target)
    assert doc and "ValueError" in doc


def test_error_classes_document_code_and_remediation():
    from repro.errors import ERROR_TABLE, DCudaError

    assert inspect.getdoc(DCudaError)
    for code, (name, remediation) in ERROR_TABLE.items():
        assert remediation, f"{name} ({code}) has no remediation hint"
