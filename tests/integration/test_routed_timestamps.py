"""Routed golden timestamps: the routed interconnects replay exactly.

The main and per-backend fixtures run on the flat fabric only, so the
routed path — ``_RouteWalk``'s per-hop ``call_at`` entries, the route
cache, oversubscribed spine links — had no pinned value.
``tests/fixtures/routed_timestamps.json`` freezes the far-pair 1 KiB
ping-pong and one 4096-double allreduce per family on a 2:1
oversubscribed fat tree and on a ring, for every backend.  The check is
``==`` on floats.  Regenerate (only after an intentional model change)
with::

    PYTHONPATH=src python -m repro.bench.golden --routed \\
        tests/fixtures/routed_timestamps.json
"""

import json
from pathlib import Path

import pytest

from repro.bench.golden import ROUTED_KINDS, _routed_probe
from repro.hw.config import COMM_BACKENDS

FIXTURE = Path(__file__).parent.parent / "fixtures" / \
    "routed_timestamps.json"


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(frozen):
    cells = {tuple(k.split(".")[:2]) for k in frozen}
    assert cells == {(b, k) for b in COMM_BACKENDS for k in ROUTED_KINDS}
    assert len(frozen) == 4 * len(cells)


@pytest.mark.parametrize("kind", ROUTED_KINDS)
@pytest.mark.parametrize("backend", COMM_BACKENDS)
def test_routed_schedule_is_bit_identical(backend, kind, frozen):
    current = _routed_probe(backend, kind)
    expected = {k: v for k, v in frozen.items()
                if k.startswith(f"{backend}.{kind}.")}
    assert set(current) == set(expected)
    moved = {k: {"fixture": expected[k], "current": current[k]}
             for k in expected if current[k] != expected[k]}
    assert not moved, f"{len(moved)} routed timestamp(s) moved: {moved}"
