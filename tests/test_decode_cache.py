"""The decode cache: one LRU over five sections, budgeted in bytes.

Two halves.  A model-based property drives any interleaving of lookups
across the five sections under any budget and holds the cache to a
plain list model of one global recency order: what is resident, what
each section counted, and that the charged bytes never exceed the
budget.  A ``tracemalloc`` calibration then holds each section's charge
to the bytes its entries really retain on the CD profile, so that the
budget means what it says.
"""

import gc
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compressor import compress_dataset
from repro.core.decoder import DecodeSpanCache
from repro.io import FileBackedArchive
from repro.query import StIUIndex, UTCQQueryProcessor
from repro.trajectories.datasets import load_dataset

SECTIONS = ("records", "times", "references", "instances", "chainages")


def _value(section: str, key: int):
    """A value of the section's shape whose size depends on the key only,
    so a repeated key is charged the same every time."""
    size = key % 5 + 1
    items = list(range(size))
    if section == "records":
        return SimpleNamespace(instances=items)
    if section == "times":
        return items
    if section == "references":
        return SimpleNamespace(edge_numbers=tuple(items))
    if section == "instances":
        return SimpleNamespace(path=items, locations=items)
    return SimpleNamespace(path=items, location_chainages=items)


def _lookup(cache: DecodeSpanCache, section: str, key: int, factory):
    if section == "records":
        return cache.record_for(key, factory)
    if section == "times":
        return cache.times_for(key, factory)
    if section == "references":
        return cache.reference_for(key, 0, factory)
    if section == "instances":
        return cache.instance_for(key, 0, factory)
    return cache.chainage_for(key, 0, factory)


def _charge(section: str, key: int) -> int:
    probe = DecodeSpanCache(budget_bytes=1 << 30, register=False)
    _lookup(probe, section, key, lambda: _value(section, key))
    return probe.resident_bytes


lookups = st.lists(
    st.tuples(st.sampled_from(SECTIONS), st.integers(0, 11)), max_size=80
)


@settings(max_examples=200, deadline=None)
@given(budget=st.integers(0, 6000), ops=lookups)
def test_one_recency_order_one_budget(budget, ops):
    cache = DecodeSpanCache(budget_bytes=budget, register=False)
    model: list[tuple[str, int]] = []  # oldest first
    charges: dict[tuple[str, int], int] = {}
    counts = {s: {"hits": 0, "misses": 0, "evictions": 0} for s in SECTIONS}
    for section, key in ops:
        slot = (section, key)
        charge = charges.setdefault(slot, _charge(section, key))
        made = []

        def factory():
            made.append(_value(section, key))
            return made[-1]

        value = _lookup(cache, section, key, factory)
        if slot in model:
            counts[section]["hits"] += 1
            model.remove(slot)
            model.append(slot)
            assert made == []
        else:
            counts[section]["misses"] += 1
            assert value is made[0]
            if charge <= budget:
                model.append(slot)
                while sum(charges[s] for s in model) > budget:
                    counts[model.pop(0)[0]]["evictions"] += 1
        stats = cache.stats()
        # the resident bytes never exceed the budget, after every put
        assert cache.resident_bytes <= budget
        assert cache.resident_bytes == sum(charges[s] for s in model)
        for name in SECTIONS:
            mine = [s for s in model if s[0] == name]
            assert stats[name]["resident"] == len(mine)
            assert stats[name]["bytes"] == sum(charges[s] for s in mine)
            # per section, every lookup is a hit or a miss
            for event, count in counts[name].items():
                assert stats[name][event] == count
    # the LRU order is global across sections: the model's survivors
    # are exactly the cache's, and they hit without decoding again
    for section, key in model:
        _lookup(cache, section, key, lambda: pytest.fail("evicted"))


@settings(max_examples=50, deadline=None)
@given(ops=lookups)
def test_budget_zero_memoizes_nothing(ops):
    cache = DecodeSpanCache(budget_bytes=0, register=False)
    for section, key in ops:
        first = _lookup(cache, section, key, lambda: _value(section, key))
        again = _lookup(cache, section, key, lambda: _value(section, key))
        assert first is not again
    stats = cache.stats()
    assert cache.resident_bytes == 0
    assert all(stats[s]["hits"] == stats[s]["evictions"] == 0 for s in SECTIONS)
    assert sum(stats[s]["misses"] for s in SECTIONS) == 2 * len(ops)


def test_budget_comes_from_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_DECODE_CACHE_BYTES", "12345")
    assert DecodeSpanCache(register=False).budget_bytes == 12345
    assert DecodeSpanCache(budget_bytes=7, register=False).budget_bytes == 7
    with pytest.raises(ValueError):
        DecodeSpanCache(budget_bytes=-1, register=False)


# ----------------------------------------------------------------------
# calibration: a charged byte is a retained byte, within 0.5-2x
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world(tmp_path_factory):
    network, trajectories = load_dataset("CD", 300, seed=7, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    path = tmp_path_factory.mktemp("decode-cache") / "archive.utcq"
    archive.save(path)
    return network, archive, path


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


def test_each_section_is_charged_what_its_entries_hold(world):
    network, archive, path = world
    with FileBackedArchive.open(path) as lazy:
        cache = DecodeSpanCache(budget_bytes=1 << 30, register=False)
        processor = UTCQQueryProcessor(
            network, lazy, StIUIndex(network, archive), cache=cache
        )
        ids = lazy.trajectory_ids()
        for trajectory_id in ids:
            lazy.time_span(trajectory_id)  # the reader's memo, not the cache's
        records = []
        held = {
            "records": _held_bytes(
                lambda: records.extend(map(processor.record, ids))
            )
        }
        instances = [
            (record, position)
            for record in records
            for position in range(len(record.instances))
        ]
        # each step fills one section; what it reads of the others hits
        steps = {
            "times": lambda: [processor._full_times(r) for r in records],
            "references": lambda: [
                processor._reference_tuple(r, i.reference_ordinal)
                for r in records
                for i in r.instances
                if i.is_reference
            ],
            "instances": lambda: [
                processor._materialize(r, p) for r, p in instances
            ],
            "chainages": lambda: [processor._chain(r, p) for r, p in instances],
        }
        for section, step in steps.items():
            held[section] = _held_bytes(step)
        stats = cache.stats()
    assert stats["records"]["resident"] == len(ids) == 300
    assert stats["chainages"]["resident"] == len(instances)
    assert all(stats[s]["evictions"] == 0 for s in SECTIONS)
    ratios = {s: stats[s]["bytes"] / held[s] for s in SECTIONS}
    assert all(0.5 <= ratio <= 2.0 for ratio in ratios.values()), ratios
