"""The decode cache: one LRU of records and trajectory blocks, budgeted
in bytes.

Three parts.  A model-based property drives any interleaving of record
lookups, block lookups, slot fills and slot-hit tallies under any
budget and holds the cache to a plain list model of one global recency
order: what is resident, what each section counted, and that the
charged bytes never exceed the budget, after a lookup or after a fill
(which may evict other blocks or its own).  A ``tracemalloc``
calibration then holds each charge to the bytes its entries really
retain on the CD profile, so that the budget means what it says.  Last,
a budget of a few blocks, so that blocks leave in the middle of a
request, answers exactly what an unbounded cache answers, and what the
brute-force oracle answers within PDDP error.
"""

import gc
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compressor import compress_dataset
from repro.core.decoder import (
    SECTIONS,
    DecodeSpanCache,
    TrajectoryBlock,
    _block_charge,
    _record_charge,
    _reference_charge,
    _slot_charge,
)
from repro.io import FileBackedArchive
from repro.query import (
    BatchQueryEngine,
    BruteForceOracle,
    RangeQuery,
    StIUIndex,
    UTCQQueryProcessor,
    WhenQuery,
    WhereQuery,
    when_accuracy,
    where_accuracy,
)
from repro.trajectories.datasets import load_dataset
from repro.workloads.harness import build_query_workload


def _record(key: int):
    """A record of the parsed shape whose size depends on the key only,
    so a repeated key is charged the same every time."""
    instances = [
        SimpleNamespace(
            probability=1.0 / (index + 1),
            is_reference=index == 0,
            reference_ordinal=0,
        )
        for index in range(key % 3 + 1)
    ]
    return SimpleNamespace(trajectory_id=key, instances=instances)


def _block(key: int) -> TrajectoryBlock:
    return TrajectoryBlock(_record(key), list(range(key % 5 + 1)))


def _chain(key: int, index: int):
    size = (key + index) % 4 + 1
    return SimpleNamespace(path=[0] * size, location_chainages=[0.0] * size)


def _reference(key: int):
    return SimpleNamespace(edge_numbers=tuple(range(key % 6 + 1)))


keys = st.integers(0, 11)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), keys),
        st.tuples(st.just("block"), keys),
        st.tuples(st.just("fill"), keys, st.integers(0, 2), st.booleans()),
        st.tuples(st.just("hits"), st.integers(1, 3)),
    ),
    max_size=80,
)


class _Model:
    """One recency order over ``("record", key)`` and ``("block", key)``
    entries, with each resident block's charged slots and tuples; a key
    has a record entry only while it has no block."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.order: list[tuple[str, int]] = []  # oldest first
        self.values: dict[tuple[str, int], object] = {}
        # id(block) -> charged slot indices / reference ordinals
        self.slots: dict[int, set[int]] = {}
        self.tuples: dict[int, set[int]] = {}
        self.counts = {
            name: dict.fromkeys(
                ("hits", "misses", "evictions", "resident", "bytes"), 0
            )
            for name in SECTIONS
        }

    def charge(self, entry) -> int:
        value = self.values[entry]
        if entry[0] == "record":
            return _record_charge(value)
        return (
            _block_charge(value)
            + sum(_slot_charge(value.chains[i]) for i in self.slots[id(value)])
            + sum(
                _reference_charge(value.references[o])
                for o in self.tuples[id(value)]
            )
        )

    def resident(self) -> int:
        return sum(self.charge(entry) for entry in self.order)

    def add(self, section: str, charge: int) -> None:
        self.counts[section]["resident"] += 1
        self.counts[section]["bytes"] += charge

    def drop(self, section: str, charge: int) -> None:
        self.counts[section]["resident"] -= 1
        self.counts[section]["bytes"] -= charge
        self.counts[section]["evictions"] += 1

    def evict(self) -> None:
        while self.resident() > self.budget:
            entry = self.order.pop(0)
            value = self.values.pop(entry)
            if entry[0] == "record":
                self.drop("records", _record_charge(value))
                continue
            self.drop("times", _block_charge(value))
            for index in self.slots.pop(id(value)):
                self.drop("chainages", _slot_charge(value.chains[index]))
            for ordinal in self.tuples.pop(id(value)):
                self.drop(
                    "references", _reference_charge(value.references[ordinal])
                )

    def lookup(self, entry, value, made: bool) -> None:
        section = "records" if entry[0] == "record" else "times"
        block = ("block", entry[1])
        if section == "records" and block in self.order:
            # a resident block holds the record: a records hit on it
            assert not made and value is self.values[block].record
            self.counts["records"]["hits"] += 1
            self.order.remove(block)
            self.order.append(block)
            return
        if entry in self.order:
            assert not made and value is self.values[entry]
            self.counts[section]["hits"] += 1
            self.order.remove(entry)
            self.order.append(entry)
            return
        assert made
        self.counts[section]["misses"] += 1
        charge = (
            _record_charge(value) if section == "records"
            else _block_charge(value)
        )
        if charge <= self.budget:
            self.order.append(entry)
            self.values[entry] = value
            self.add(section, charge)
            if section == "times":
                self.slots[id(value)] = set()
                self.tuples[id(value)] = set()
                # the block's record replaces the record entry, which
                # leaves uncounted as an eviction
                record = ("record", entry[1])
                if record in self.order:
                    self.order.remove(record)
                    counts = self.counts["records"]
                    counts["resident"] -= 1
                    counts["bytes"] -= _record_charge(self.values.pop(record))
            self.evict()

    def fill(
        self, key, block, index, decoded, stored_slot, stored_tuple
    ) -> None:
        resident = self.values.get(("block", key)) is block
        self.counts["chainages"]["misses"] += 1
        self.counts["references"]["misses" if decoded else "hits"] += 1
        if not resident:
            return
        if stored_tuple is not None:
            self.tuples[id(block)].add(stored_tuple)
            self.add("references", _reference_charge(block.references[0]))
        if stored_slot:
            self.slots[id(block)].add(index)
            self.add("chainages", _slot_charge(block.chains[index]))
        self.evict()


@settings(max_examples=200, deadline=None)
@given(budget=st.integers(0, 8000), ops=operations)
def test_one_recency_order_one_budget(budget, ops):
    cache = DecodeSpanCache(budget_bytes=budget, register=False)
    model = _Model(budget)
    held: dict[int, TrajectoryBlock] = {}  # the last block each key got
    for op in ops:
        kind = op[0]
        if kind in ("record", "block"):
            key = op[1]
            made = []

            def factory():
                made.append(_record(key) if kind == "record" else _block(key))
                return made[-1]

            if kind == "record":
                value = cache.record_for(key, factory)
            else:
                value = held[key] = cache.block_for(key, factory)
            assert not made or value is made[0]
            model.lookup((kind, key), value, bool(made))
        elif kind == "fill":
            _, key, index, decoded = op
            block = held.get(key)
            if block is None:
                continue
            index %= len(block.chains)
            before = block.chains[index]
            reference = _reference(key) if decoded else None
            # one reference group (ordinal 0): the first tuple stored stays
            new_tuple = 0 if decoded and not block.references else None
            chain = cache.fill(block, index, _chain(key, index), reference)
            assert chain is block.chains[index]
            assert before is None or chain is before  # the first value stays
            model.fill(key, block, index, decoded, before is None, new_tuple)
        else:
            cache.count_slot_hits(op[1])
            model.counts["chainages"]["hits"] += op[1]
        # the resident bytes never exceed the budget, after every step
        assert cache.resident_bytes <= budget
        assert cache.resident_bytes == model.resident()
        assert cache.stats() == model.counts
    # the LRU order is global across both kinds: the model's survivors
    # are exactly the cache's, and they hit without building again
    for kind, key in list(model.order):
        lookup = cache.record_for if kind == "record" else cache.block_for
        assert lookup(key, lambda: pytest.fail("evicted")) is (
            model.values[(kind, key)]
        )


def test_a_fill_can_evict_its_own_block():
    """A block alone in a budget that its next slot overflows: the
    fill stores the slot in the caller's block, and the block leaves
    the cache with everything charged to it."""
    block = _block(4)
    budget = _block_charge(block) + 1
    cache = DecodeSpanCache(budget_bytes=budget, register=False)
    assert cache.block_for(4, lambda: block) is block
    chain = cache.fill(block, 0, _chain(4, 0), _reference(4))
    assert block.chains[0] is chain and block.references[0] is not None
    stats = cache.stats()
    assert cache.resident_bytes == 0
    assert stats["times"]["evictions"] == 1
    assert stats["chainages"]["evictions"] == 1
    assert stats["references"]["evictions"] == 1
    assert all(stats[s]["resident"] == stats[s]["bytes"] == 0 for s in SECTIONS)
    # the next lookup builds afresh
    assert cache.block_for(4, lambda: _block(4)) is not block


@settings(max_examples=50, deadline=None)
@given(ops=operations)
def test_budget_zero_memoizes_nothing(ops):
    cache = DecodeSpanCache(budget_bytes=0, register=False)
    lookups = 0
    for op in ops:
        if op[0] not in ("record", "block"):
            continue
        key = op[1]
        if op[0] == "record":
            first = cache.record_for(key, lambda: _record(key))
            again = cache.record_for(key, lambda: _record(key))
        else:
            first = cache.block_for(key, lambda: _block(key))
            cache.fill(first, 0, _chain(key, 0), _reference(key))
            again = cache.block_for(key, lambda: _block(key))
            assert again.chains[0] is None
        assert first is not again
        lookups += 2
    stats = cache.stats()
    assert cache.resident_bytes == 0
    assert all(
        stats[s]["hits"] == stats[s]["evictions"] == stats[s]["resident"] == 0
        for s in SECTIONS
    )
    assert stats["records"]["misses"] + stats["times"]["misses"] == lookups


def test_budget_comes_from_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_DECODE_CACHE_BYTES", "12345")
    assert DecodeSpanCache(register=False).budget_bytes == 12345
    assert DecodeSpanCache(budget_bytes=7, register=False).budget_bytes == 7
    with pytest.raises(ValueError):
        DecodeSpanCache(budget_bytes=-1, register=False)


def test_a_block_orders_groups_and_sums_as_the_queries_did():
    """The block's precomputed reads equal what the queries computed
    per call before: a stable sort by descending probability, the mass
    summed in instance order, each ordinal's non-references ascending."""
    probabilities = [0.25, 0.5, 0.125, 0.5, 0.125]
    ordinals = [0, 1, 0, 1, 0]
    record = SimpleNamespace(
        trajectory_id=3,
        instances=[
            SimpleNamespace(
                probability=p, is_reference=i in (0, 1), reference_ordinal=o
            )
            for i, (p, o) in enumerate(zip(probabilities, ordinals))
        ],
    )
    block = TrajectoryBlock(record, [0, 10])
    order, mass = block.ranked()
    expected = sorted(range(5), key=lambda i: -probabilities[i])
    assert [index for index, _ in order] == expected == [1, 3, 0, 2, 4]
    assert [p for _, p in order] == [probabilities[i] for i in expected]
    assert mass == sum(probabilities)
    assert block.ranked()[0] is order  # worked out once
    assert [block.members(o) for o in (0, 1, 2)] == [[2, 4], [3], []]
    assert block.chains == [None] * 5 and block.references == {}


# ----------------------------------------------------------------------
# calibration: a charged byte is a retained byte, within 0.5-2x
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world(tmp_path_factory):
    network, trajectories = load_dataset("CD", 300, seed=7, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    path = tmp_path_factory.mktemp("decode-cache") / "archive.utcq"
    archive.save(path)
    return network, trajectories, archive, path


def _held_bytes(step) -> int:
    """Bytes still allocated after ``step()`` that were not before."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        step()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before


def test_each_charge_is_what_its_entries_hold(world):
    network, _, archive, path = world
    with FileBackedArchive.open(path) as lazy:
        cache = DecodeSpanCache(budget_bytes=1 << 30, register=False)
        processor = UTCQQueryProcessor(
            network, lazy, StIUIndex(network, archive), cache=cache
        )
        ids = lazy.trajectory_ids()
        for trajectory_id in ids:
            lazy.time_span(trajectory_id)  # the reader's memo, not the cache's
        held = {
            "records": _held_bytes(lambda: [processor.record(i) for i in ids])
        }
        charged = {"records": cache.stats()["records"]["bytes"]}
        # a block drops its id's record entry: measure blocks alone
        cache.clear()
        blocks = []

        def build_blocks():
            for trajectory_id in ids:
                block = processor._block(trajectory_id)
                block.ranked()  # what range and when work out on first use
                block.members(0)
                blocks.append(block)

        held["times"] = _held_bytes(build_blocks)
        charged["times"] = cache.stats()["times"]["bytes"]

        def fill(references: bool):
            for block in blocks:
                for index, instance in enumerate(block.record.instances):
                    if instance.is_reference == references:
                        processor._fill(block, index)

        # a reference's slot decodes the tuple its group shares; the
        # other slots decode against it, so they are charged the slot alone
        held["reference slots"] = _held_bytes(lambda: fill(True))
        after_references = cache.stats()
        charged["reference slots"] = (
            after_references["chainages"]["bytes"]
            + after_references["references"]["bytes"]
        )
        held["other slots"] = _held_bytes(lambda: fill(False))
        stats = cache.stats()
        charged["other slots"] = (
            stats["chainages"]["bytes"]
            - after_references["chainages"]["bytes"]
        )
    slots = sum(len(block.chains) for block in blocks)
    assert stats["records"]["resident"] == 0
    assert stats["times"]["resident"] == 300
    assert stats["chainages"]["resident"] == stats["chainages"]["misses"] == slots
    assert stats["references"]["misses"] == stats["references"]["resident"]
    assert all(stats[s]["evictions"] == 0 for s in SECTIONS)
    assert stats["instances"] == dict.fromkeys(stats["instances"], 0)
    ratios = {part: charged[part] / held[part] for part in held}
    assert all(0.5 <= ratio <= 2.0 for ratio in ratios.values()), ratios


# ----------------------------------------------------------------------
# eviction in the middle of a request changes no answer
# ----------------------------------------------------------------------
def _queries(network, trajectories):
    workload = build_query_workload(network, trajectories, count=60, seed=3)
    queries = (
        [WhereQuery(tid, t, 0.0) for tid, t, _ in workload.where_queries]
        + [
            WhenQuery(tid, edge, rd, 0.0)
            for tid, edge, rd, _ in workload.when_queries
        ]
        + [RangeQuery(rect, t, 0.3) for rect, t, _ in workload.range_queries]
    )
    random.Random(3).shuffle(queries)
    return queries


def test_blocks_evicted_mid_request_change_no_answer(world):
    network, trajectories, archive, path = world
    queries = _queries(network, trajectories)
    index = StIUIndex(network, archive)
    with FileBackedArchive.open(path) as lazy:
        probe = DecodeSpanCache(register=False)
        block = UTCQQueryProcessor(network, lazy, index, cache=probe)._block(0)
        budget = 4 * _block_charge(block)
        small = DecodeSpanCache(budget_bytes=budget, register=False)
        unbounded = DecodeSpanCache(budget_bytes=1 << 40, register=False)
        tight = BatchQueryEngine(network, lazy, index, cache=small)
        roomy = BatchQueryEngine(network, lazy, index, cache=unbounded)
        got = [tight.run(queries), tight.run(queries[::-1])[::-1]]
        expected = roomy.run(queries)
    assert got[0] == got[1] == expected
    stats = small.stats()
    assert stats["times"]["evictions"] > 0
    assert stats["chainages"]["evictions"] > 0  # filled slots left too
    assert small.resident_bytes <= budget
    assert unbounded.stats()["times"]["evictions"] == 0
    assert tight.counters.instances_decoded > roomy.counters.instances_decoded

    oracle = BruteForceOracle(network, trajectories)
    range_mismatches = when_misses = 0
    for query, answer in zip(queries, expected):
        if isinstance(query, WhereQuery):
            truth = oracle.where(query.trajectory_id, query.t, query.alpha)
            assert where_accuracy(network, truth, answer).f1 == (
                pytest.approx(1.0)
            )
        elif isinstance(query, WhenQuery):
            truth = oracle.when(
                query.trajectory_id,
                query.edge,
                query.relative_distance,
                query.alpha,
            )
            accuracy = when_accuracy(truth, answer)
            assert accuracy.precision == pytest.approx(1.0)
            # `when` probes only the cell of the queried point, so a
            # passing indexed in a neighbouring cell can be lost (2 of
            # these 60 specs; the ledger's oracle check tolerates 10 %)
            when_misses += accuracy.recall < 1.0
        else:
            truth = oracle.range(query.rect, query.t, query.alpha)
            # PDDP rounding can flip borderline trajectories
            range_mismatches += len(set(truth) ^ set(answer))
    assert range_mismatches <= 3
    assert when_misses <= sum(isinstance(q, WhenQuery) for q in queries) // 10


def test_threads_sharing_blocks_lose_no_update(world):
    """More threads than cores query through one small cache, switching
    every microsecond: each answers what a private unbounded cache
    answers, every slot decode is counted once in the cache and once in
    its processor, and the charged bytes equal what the resident
    entries are charged, within the budget."""
    import sys
    import threading

    network, trajectories, archive, _ = world
    queries = _queries(network, trajectories)
    index = StIUIndex(network, archive)
    expected = BatchQueryEngine(network, archive, index).run(queries)
    probe = UTCQQueryProcessor(network, archive, index)
    shared = DecodeSpanCache(
        budget_bytes=8 * _block_charge(probe._block(0)), register=False
    )
    engines = [
        BatchQueryEngine(network, archive, index, cache=shared)
        for _ in range(6)
    ]
    answers: list = [None] * len(engines)

    def work(slot: int) -> None:
        order = queries[slot:] + queries[:slot]
        got = engines[slot].run(order)
        answers[slot] = got[len(queries) - slot:] + got[: len(queries) - slot]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(len(engines))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(got == expected for got in answers)
    stats = shared.stats()
    assert stats["chainages"]["misses"] == sum(
        engine.counters.instances_decoded for engine in engines
    )
    assert stats["times"]["evictions"] > 0
    charged = 0
    for value in shared._entries.values():
        if isinstance(value, TrajectoryBlock):
            charged += _block_charge(value)
            charged += sum(_slot_charge(c) for c in value.chains if c)
            charged += sum(map(_reference_charge, value.references.values()))
        else:
            charged += _record_charge(value)
    assert shared.resident_bytes == charged == sum(
        stats[s]["bytes"] for s in SECTIONS
    )
    assert charged <= shared.budget_bytes
