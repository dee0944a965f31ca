"""Shared objects under heavy thread interleaving: fresh blocks that some
threads read first and others scan first, and one ``GraphSequence`` that
every thread iterates and slices, give each thread a serial run's results."""

import sys
import threading

from fbblat.correspondence import phi, phi_inverse
from fbblat.fbb import (extract_adjunct_representation,
                        is_basic_block_universal, is_fundamental_basic_block)
from fbblat.graphs import enumerate_d
from fbblat.poset import (classify, dismantling_order, is_lattice,
                          is_rc_lattice, nullity)
from fbblat.render import poset_to_dot

THREADS = 8


def _in_threads(work):
    """``work(slot, sync)`` for every slot, each on its own thread, under a
    1 µs switch interval.  ``sync`` is a barrier of all the threads: it
    starts them at once, and ``work`` may wait on it again to line them up.
    A raised exception is the slot's result and breaks the barrier, so no
    other thread waits for the one that failed."""
    results = [None] * THREADS
    sync = threading.Barrier(THREADS, timeout=30)

    def run(slot):
        try:
            sync.wait()
            results[slot] = work(slot, sync)
        except Exception as exc:
            sync.abort()
            results[slot] = exc

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def _fresh_blocks():
    return [phi_inverse(g) for g in enumerate_d(5, 6)]


def _facts(f, read_first):
    """Everything the package derives from block ``f``: read first (phi and
    the fundamental predicate fill the reading and the proved scan), or
    scanned first (is_lattice and classify run the lattice kernel)."""
    p = f.poset
    if read_first:
        read = (phi(f), is_fundamental_basic_block(f))
        scanned = (is_lattice(p), classify(p))
    else:
        scanned = (is_lattice(p), classify(p))
        read = (phi(f), is_fundamental_basic_block(f))
    return (read, scanned, is_rc_lattice(p), nullity(p),
            is_basic_block_universal(p), dismantling_order(p),
            extract_adjunct_representation(f), poset_to_dot(p))


def test_shared_blocks_give_every_thread_the_serial_results():
    serial = [_facts(f, read_first=True) for f in _fresh_blocks()]
    blocks = _fresh_blocks()
    assert len(blocks) == 205 and not any(f.poset._cache for f in blocks)

    def work(slot, sync):  # every thread starts on each block at once
        facts = []
        for f in blocks:
            sync.wait()
            facts.append(_facts(f, read_first=slot % 2 == 0))
        return facts

    results = _in_threads(work)
    for slot, got in enumerate(results):
        assert got == serial, f"thread {slot}: {got!r:.200}"


def _walk(seq, slot):
    return (list(seq), list(seq[slot::3]), list(seq[-slot - 1::-5]),
            [seq[i] for i in range(slot, len(seq), THREADS)])


def test_shared_graph_sequence_gives_every_thread_the_serial_walk():
    seq = enumerate_d(5, 6)
    serial = [_walk(seq, slot) for slot in range(THREADS)]
    results = _in_threads(lambda slot, sync: _walk(seq, slot))
    for slot, got in enumerate(results):
        assert got == serial[slot], f"thread {slot}: {got!r:.200}"
