"""StampedLRU: the one bounded, version-stamped cache class."""

import threading

import pytest

from repro.relational.lru import StampedLRU


class TestStamps:
    def test_hit_at_the_stored_stamp(self):
        cache = StampedLRU(4)
        cache.put("k", "v", stamp=((0, 3),))
        assert cache.get("k", ((0, 3),)) == "v"

    def test_stamp_mismatch_misses_and_drops_the_entry(self):
        cache = StampedLRU(4)
        cache.put("k", "v", stamp=((0, 3),))
        assert cache.get("k", ((0, 4),)) is None
        assert len(cache) == 0
        # dropped, not kept for its old stamp
        assert cache.get("k", ((0, 3),)) is None

    def test_no_stamp_is_a_stamp_of_its_own(self):
        cache = StampedLRU(4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("k", ((0, 0),)) is None

    def test_put_replaces_an_entry_of_another_stamp(self):
        cache = StampedLRU(4)
        cache.put("k", "old", stamp=1)
        cache.put("k", "new", stamp=2)
        assert len(cache) == 1
        assert cache.get("k", 2) == "new"


class TestRecency:
    def test_evicts_least_recently_used_first(self):
        cache = StampedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert [key for key, _ in cache.items()] == ["b", "c"]

    def test_hit_refreshes_recency(self):
        cache = StampedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a is now the most recent
        cache.put("c", 3)
        assert [key for key, _ in cache.items()] == ["a", "c"]

    def test_put_refreshes_recency(self):
        cache = StampedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert dict(cache.items()) == {"a": 10, "c": 3}

    def test_items_leaves_recency_alone(self):
        cache = StampedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.items()
        cache.put("c", 3)
        assert [key for key, _ in cache.items()] == ["b", "c"]

    def test_capacity_can_shrink(self):
        cache = StampedLRU(4)
        for key in "abcd":
            cache.put(key, key)
        cache.capacity = 2
        cache.put("e", "e")
        assert [key for key, _ in cache.items()] == ["d", "e"]


class TestHousekeeping:
    def test_clear(self):
        cache = StampedLRU(4)
        cache.put("a", 1)
        cache.put("b", 2, stamp=7)
        cache.clear()
        assert len(cache) == 0 and cache.items() == []
        assert cache.get("a") is None and cache.get("b", 7) is None

    def test_discard(self):
        cache = StampedLRU(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.discard("a")
        cache.discard("missing")
        assert dict(cache.items()) == {"b": 2}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            StampedLRU(0)


class TestThreads:
    def test_len_never_exceeds_capacity_under_eight_threads(self):
        cache = StampedLRU(16)
        start = threading.Barrier(8)
        over: list = []
        errors: list = []

        def work(seed: int) -> None:
            try:
                start.wait(timeout=10)
                for step in range(2_000):
                    key = (seed * 7 + step) % 40
                    stamp = step % 3
                    if cache.get(key, stamp) is None:
                        cache.put(key, (seed, step), stamp)
                    size = len(cache)
                    if size > cache.capacity:
                        over.append(size)
            except BaseException as exc:  # surfaced below, in the test thread
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(seed,), name=f"lru-{seed}", daemon=True)
            for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and over == []
        assert len(cache) <= cache.capacity
