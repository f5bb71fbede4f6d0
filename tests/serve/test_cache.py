"""The crash-safe partition cache: LRU semantics and journal durability."""

import json

import pytest

from repro.serve.cache import PartitionCache


def _result(i: int) -> dict:
    return {"volume": i, "parts": [0, 1] * i}


def test_memory_only_cache_roundtrip():
    cache = PartitionCache(None, cap=4)
    assert cache.get("a") is None
    cache.put("a", _result(1))
    assert cache.get("a") == _result(1)
    assert "a" in cache and len(cache) == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate() == 0.5


def test_lru_eviction_and_touch_on_get():
    cache = PartitionCache(None, cap=2)
    cache.put("a", _result(1))
    cache.put("b", _result(2))
    cache.get("a")  # touch: "b" is now least-recent
    cache.put("c", _result(3))
    assert "a" in cache and "c" in cache and "b" not in cache


def test_overwrite_updates_value():
    cache = PartitionCache(None, cap=4)
    cache.put("a", _result(1))
    cache.put("a", _result(9))
    assert cache.get("a") == _result(9)
    assert len(cache) == 1


def test_cap_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="cap"):
        PartitionCache(tmp_path / "c.jsonl", cap=0)


def test_journal_persists_across_instances(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = PartitionCache(path, cap=8)
    first.put("a", _result(1))
    first.put("b", _result(2))
    first.close()

    second = PartitionCache(path, cap=8)
    assert second.get("a") == _result(1)
    assert second.get("b") == _result(2)
    second.close()


def test_torn_tail_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = PartitionCache(path, cap=8)
    cache.put("a", _result(1))
    cache.put("b", _result(2))
    cache.close()
    # Simulate a mid-write SIGKILL: a half-flushed trailing line.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "c", "result": {"vol')

    reloaded = PartitionCache(path, cap=8)
    assert reloaded.get("a") == _result(1)
    assert reloaded.get("b") == _result(2)
    assert "c" not in reloaded
    # And the reopened journal keeps working past the torn line.
    reloaded.put("d", _result(4))
    reloaded.close()
    third = PartitionCache(path, cap=8)
    assert third.get("d") == _result(4)
    third.close()


def test_corrupt_header_moves_file_aside_and_serves_cold(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("this is not a journal\n", encoding="utf-8")
    cache = PartitionCache(path, cap=8)
    assert len(cache) == 0
    cache.put("a", _result(1))
    cache.close()
    assert path.with_name(path.name + ".corrupt").exists()
    again = PartitionCache(path, cap=8)
    assert again.get("a") == _result(1)
    again.close()


def test_foreign_header_rejected(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"sweep": 1}\n', encoding="utf-8")
    cache = PartitionCache(path, cap=8)
    assert len(cache) == 0
    cache.close()


def test_reload_respects_cap_and_last_write_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = PartitionCache(path, cap=8)
    for i in range(6):
        cache.put(f"k{i}", _result(i))
    cache.put("k0", _result(99))  # overwrite: the journal has both
    cache.close()

    small = PartitionCache(path, cap=3)
    assert len(small) == 3
    assert small.get("k0") == _result(99)
    small.close()


def test_compaction_rewrites_journal_atomically(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = PartitionCache(path, cap=2)
    # Enough churn to cross the dead-line threshold (> max(64, 2*live))
    # more than once.
    for i in range(200):
        cache.put(f"k{i}", _result(i))
    cache.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"partition_cache": 2}
    # Compaction kept the journal bounded by the dead-line threshold,
    # not the full 200-entry churn.
    assert len(lines) <= 64 + cache.cap + 2
    reloaded = PartitionCache(path, cap=2)
    assert reloaded.get("k199") == _result(199)
    reloaded.close()
