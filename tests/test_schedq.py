"""The engine's event queue: the exact-order contract.

:class:`BinaryHeapQueue` must serve entries in full-tuple lexicographic
order — the property the engine's determinism rests on — including under
lazy staleness pruning, the anti-churn bound and decreasing pushes.
"""

import random

from repro.simulator.schedq import BinaryHeapQueue


def drain_all(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append(entry)


class TestExactOrder:
    def test_random_batch_pops_sorted(self):
        rng = random.Random(7)
        queue = BinaryHeapQueue()
        entries = [
            (rng.choice([0.0, rng.random() * rng.choice([1e-6, 1.0, 1e3])]), tok, tok % 9)
            for tok in range(500)
        ]
        for entry in entries:
            queue.push(entry)
        assert drain_all(queue) == sorted(entries)
        assert queue.pop() is None
        assert len(queue) == 0

    def test_equal_times_order_by_token(self):
        queue = BinaryHeapQueue()
        for tok in (5, 1, 3, 2, 4):
            queue.push((1.25, tok, 0))
        assert [e[1] for e in drain_all(queue)] == [1, 2, 3, 4, 5]

    def test_interleaved_against_reference(self):
        """Random push/pop interleaving reproduces a sorted-list oracle."""
        rng = random.Random(42)
        queue = BinaryHeapQueue()
        oracle: list[tuple] = []
        clock = 0.0
        tok = 0
        for _ in range(2000):
            if oracle and rng.random() < 0.45:
                entry = queue.pop()
                assert entry == oracle.pop(0)
                clock = entry[0]
            else:
                # DES-style: pushes never go below the last service time,
                # except the occasional cross-window rewind (see below)
                t = clock + rng.random() * rng.choice([1e-7, 1e-3, 10.0])
                entry = (t, tok, tok % 13)
                tok += 1
                queue.push(entry)
                oracle.append(entry)
                oracle.sort()
        assert drain_all(queue) == oracle

    def test_push_below_cursor_rewinds(self):
        """A push earlier than everything served so far must still pop
        first."""
        queue = BinaryHeapQueue()
        for tok in range(100):
            queue.push((float(tok) + 100.0, tok, 0))
        for _ in range(50):
            queue.pop()
        queue.push((0.5, 1000, 3))
        assert queue.pop() == (0.5, 1000, 3)
        assert queue.pop() == (150.0, 50, 0)

    def test_gate_style_entries(self):
        """Entries may carry non-comparable payload past the tie-break."""
        queue = BinaryHeapQueue()
        payloads = [object() for _ in range(4)]
        queue.push((2.0, 1, 7, 0, "recv", payloads[0]))
        queue.push((1.0, 3, 2, 1, "deliver", payloads[1]))
        queue.push((1.0, 3, 1, 2, "deliver", payloads[2]))
        queue.push((1.0, 2, 9, 3, "recv", payloads[3]))
        order = [e[5] for e in drain_all(queue)]
        assert order == [payloads[3], payloads[2], payloads[1], payloads[0]]


class TestLazyStaleness:
    def test_pop_skips_dead_entries(self):
        dead = {1, 3}
        queue = BinaryHeapQueue(live=lambda e: e[1] not in dead)
        for tok in range(5):
            queue.push((float(tok), tok, 0))
        assert [e[1] for e in drain_all(queue)] == [0, 2, 4]

    def test_bounded_pop_prunes_dead_entries_it_passes(self):
        dead = {0}
        queue = BinaryHeapQueue(live=lambda e: e[1] not in dead)
        queue.push((1.0, 0, 0))
        queue.push((2.0, 1, 1))
        assert queue.pop(bound=2.0) is None
        assert len(queue) == 1  # the dead front entry is gone
        dead.add(1)
        assert queue.pop() is None

    def test_all_stale_queue_pops_none(self):
        queue = BinaryHeapQueue(live=lambda e: False)
        for tok in range(300):
            queue.push((float(tok % 17), tok, 0))
        assert queue.pop() is None
        assert len(queue) == 0


class TestBound:
    def test_pop_respects_bound_and_leaves_entry(self):
        queue = BinaryHeapQueue()
        queue.push((1.0, 0, 0))
        queue.push((5.0, 1, 1))
        assert queue.pop(bound=3.0) == (1.0, 0, 0)
        assert queue.pop(bound=3.0) is None
        assert len(queue) == 1  # stays queued
        assert queue.pop(bound=5.0) is None  # boundary is exclusive
        assert queue.pop(bound=5.1) == (5.0, 1, 1)


class TestIteration:
    def test_iteration_sees_all_entries(self):
        queue = BinaryHeapQueue()
        entries = {(float(tok), tok, 0) for tok in range(40)}
        for entry in entries:
            queue.push(entry)
        assert set(queue) == entries
        assert bool(queue)
