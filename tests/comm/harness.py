"""Differential fuzz harness: seeded random RMA programs, replayed on
every communication backend.

A *program* is a fully deterministic description of what every rank
does: phases of put/get operations, the exact notification waits closing
each phase, and which final-phase waits are deliberately skipped.  The
program is generated once per seed and replayed on each backend; the
backends may schedule the traffic however their cost models dictate
(timestamps differ, same-origin device puts may overtake), but every
*app-visible observable* must agree:

* final window contents of every rank (post-drain),
* every get's fetched bytes,
* per-rank window snapshots of *committed* slots at each phase barrier,
* the multiset of leftover (unconsumed) notifications.

The generator keeps the observables schedule-independent by
construction: every put owns a globally unique (target, slot-range), so
final contents are order-free; every tag is globally unique, so exact
``(source, tag)`` waits consume exactly one specific notification; gets
read only slot ranges that are *committed* (written by an earlier
phase's consumed-notified put) or *reserved* (never written at all), so
the fetched bytes are phase-stable on every backend.
"""

from dataclasses import dataclass, field
from itertools import count
from random import Random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dcuda import launch
from repro.hw import Cluster, greina
from repro.platform import flat

#: Window size in elements, per rank.
WIN = 24

#: Cluster shapes the generator draws from; every backend path appears:
#: same-GPU (shared), cross-GPU same node, and cross-node.
SHAPES = (
    dict(nodes=1, gpus=1, rpd=2),
    dict(nodes=2, gpus=1, rpd=2),
    dict(nodes=2, gpus=2, rpd=1),
    dict(nodes=3, gpus=1, rpd=2),
    dict(nodes=2, gpus=1, rpd=3),
    dict(nodes=2, gpus=2, rpd=2),
)


@dataclass(frozen=True)
class PutOp:
    target: int
    offset: int
    length: int
    tag: int
    notify: bool
    #: Element i of the payload is ``value_base + i``.
    value_base: float


@dataclass(frozen=True)
class GetOp:
    target: int
    offset: int
    length: int
    tag: int
    notify: bool
    #: Key for the fetched bytes in the observables.
    key: int


@dataclass
class Phase:
    #: rank -> its operations, in issue order.
    ops: Dict[int, List[object]] = field(default_factory=dict)
    #: rank -> exact (source, tag) waits, sorted; executed in order.
    waits: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    #: rank -> {offset: expected value} committed slots observable at
    #: this phase's barrier.
    committed: Dict[int, Dict[int, float]] = field(default_factory=dict)


@dataclass
class Program:
    seed: int
    nodes: int
    gpus: int
    rpd: int
    num_ranks: int
    phases: List[Phase]
    #: rank -> sorted skipped (source, tag) pairs = expected leftovers.
    skipped: Dict[int, List[Tuple[int, int]]]
    #: Expected final window contents per rank.
    expected_finals: Dict[int, np.ndarray]
    #: Expected fetched bytes per get key.
    expected_gets: Dict[int, np.ndarray]


def _initial(rank: int) -> np.ndarray:
    return rank * 1000.0 + np.arange(WIN, dtype=np.float64)


def _find_run(free: set, length: int, rng: Random) -> Optional[int]:
    """A random contiguous run of *length* free slots, or ``None``."""
    starts = [o for o in free
              if all(o + i in free for i in range(length))]
    return rng.choice(sorted(starts)) if starts else None


def generate_program(seed: int) -> Program:
    rng = Random(seed)
    shape = SHAPES[rng.randrange(len(SHAPES))]
    num_ranks = shape["nodes"] * shape["gpus"] * shape["rpd"]
    num_phases = rng.randint(2, 3)
    tags = count(1)
    get_keys = count(0)

    free = {t: set(range(WIN)) for t in range(num_ranks)}
    expected_finals = {r: _initial(r) for r in range(num_ranks)}
    expected_gets: Dict[int, np.ndarray] = {}
    #: (target, offset) -> value for committed (consumed-notified) slots.
    committed_slots: Dict[int, Dict[int, float]] = {
        r: {} for r in range(num_ranks)}

    phases: List[Phase] = []
    skipped: Dict[int, List[Tuple[int, int]]] = {
        r: [] for r in range(num_ranks)}

    for p in range(num_phases):
        last = p == num_phases - 1
        phase = Phase(ops={r: [] for r in range(num_ranks)},
                      waits={r: [] for r in range(num_ranks)})
        #: This phase's notified puts/gets: (waiter_rank, source, tag,
        #: skippable, committed_write or None).
        pending_waits: List[Tuple[int, int, int, Dict[int, float]]] = []
        for r in range(num_ranks):
            for _ in range(rng.randint(0, 3)):
                t = rng.randrange(num_ranks)
                length = rng.randint(1, 3)
                off = _find_run(free[t], length, rng)
                if off is None:
                    continue
                for i in range(length):
                    free[t].discard(off + i)
                tag = next(tags)
                notify = rng.random() >= 0.2
                base = float(seed % 97) * 1e4 + tag * 10.0
                op = PutOp(target=t, offset=off, length=length, tag=tag,
                           notify=notify, value_base=base)
                phase.ops[r].append(op)
                expected_finals[t][off:off + length] = \
                    base + np.arange(length)
                if notify:
                    writes = {off + i: base + i for i in range(length)}
                    pending_waits.append((t, r, tag, writes))
            for _ in range(rng.randint(0, 2)):
                t = rng.randrange(num_ranks)
                use_committed = committed_slots[t] and rng.random() < 0.5
                if use_committed:
                    offs = sorted(committed_slots[t])
                    off = rng.choice(offs)
                    length = 1
                    while (off + length in committed_slots[t]
                           and length < 3):
                        length += 1
                    expected = np.array(
                        [committed_slots[t][off + i]
                         for i in range(length)])
                else:
                    length = rng.randint(1, 2)
                    off = _find_run(free[t], length, rng)
                    if off is None:
                        continue
                    # Reserve: nothing may ever write these slots.
                    for i in range(length):
                        free[t].discard(off + i)
                    expected = _initial(t)[off:off + length].copy()
                tag = next(tags)
                notify = rng.random() >= 0.2
                key = next(get_keys)
                phase.ops[r].append(GetOp(target=t, offset=off,
                                          length=length, tag=tag,
                                          notify=notify, key=key))
                expected_gets[key] = expected
                if notify:
                    pending_waits.append((r, t, tag, {}))
        # Close the phase: exact waits sorted by (source, tag); in the
        # final phase a random subset stays unconsumed.
        for waiter, source, tag, writes in pending_waits:
            if last and rng.random() < 0.3:
                skipped[waiter].append((source, tag))
            else:
                phase.waits[waiter].append((source, tag))
                for off, val in writes.items():
                    committed_slots[waiter][off] = val
        for r in range(num_ranks):
            phase.waits[r].sort()
            phase.committed[r] = dict(committed_slots[r])
        phases.append(phase)

    for r in range(num_ranks):
        skipped[r].sort()
    return Program(seed=seed, nodes=shape["nodes"], gpus=shape["gpus"],
                   rpd=shape["rpd"], num_ranks=num_ranks, phases=phases,
                   skipped=skipped, expected_finals=expected_finals,
                   expected_gets=expected_gets)


@dataclass
class Observables:
    """Everything a kernel can see, as captured from one backend run."""

    finals: Dict[int, np.ndarray]
    gets: Dict[int, np.ndarray]
    #: rank -> sorted (win_id, source, tag) of unconsumed notifications.
    leftovers: Dict[int, List[Tuple[int, int, int]]]
    #: (phase, rank) -> {offset: value} snapshot at the barrier.
    barrier_snaps: Dict[Tuple[int, int], Dict[int, float]]
    elapsed: float


def run_program(program: Program, backend: str) -> Observables:
    """Replay *program* on *backend*; returns the captured observables."""
    if program.gpus == 1:
        cfg = greina(program.nodes, comm_backend=backend)
    else:
        cfg = greina(topology=flat(num_nodes=program.nodes,
                                   gpus_per_node=program.gpus),
                     comm_backend=backend)
    cluster = Cluster(cfg)
    buffers = {r: _initial(r) for r in range(program.num_ranks)}
    gets: Dict[int, np.ndarray] = {}
    dranks: Dict[int, object] = {}
    snaps: Dict[Tuple[int, int], Dict[int, float]] = {}

    def kernel(rank):
        r = rank.world_rank
        dranks[r] = rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        for p, phase in enumerate(program.phases):
            for op in phase.ops[r]:
                if isinstance(op, PutOp):
                    src = op.value_base + np.arange(op.length,
                                                    dtype=np.float64)
                    yield from rank.put_notify(win, op.target, op.offset,
                                               src, tag=op.tag,
                                               notify=op.notify)
                else:
                    dst = np.zeros(op.length, dtype=np.float64)
                    gets[op.key] = dst
                    yield from rank.get_notify(win, op.target, op.offset,
                                               dst, tag=op.tag,
                                               notify=op.notify)
            for source, tag in phase.waits[r]:
                yield from rank.wait_notifications(win, source=source,
                                                   tag=tag, count=1)
            snaps[(p, r)] = {off: float(buffers[r][off])
                             for off in phase.committed[r]}
            yield from rank.flush()
            yield from rank.barrier()
        yield from rank.finish()

    res = launch(cluster, kernel, ranks_per_device=program.rpd)

    leftovers = {}
    for r, drank in sorted(dranks.items()):
        leftovers[r] = sorted((n.win_id, n.source, n.tag)
                              for n in drank.matcher._drain())
    return Observables(finals={r: buffers[r].copy()
                               for r in range(program.num_ranks)},
                       gets={k: v.copy() for k, v in gets.items()},
                       leftovers=leftovers, barrier_snaps=snaps,
                       elapsed=res.elapsed)
