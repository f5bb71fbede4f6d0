"""The shared journal: replay, torn tails, checksums and disk pressure.

Unit tests of :mod:`repro.utils.journal`, a hypothesis fuzz of it
(truncation, byte flips, injected ``ENOSPC``), and the regressions of
its two users — the sweep checkpoint and the partition cache — on torn,
flipped and garbled journals.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.eval.runner import PAPER_METHODS
from repro.eval.sweep import build_runspecs, run_sweep
from repro.serve.cache import PartitionCache
from repro.sparse.collection import build_collection
from repro.utils import faults
from repro.utils.journal import Journal, encode_line, replay

HEADER = {"journal": "test", "version": 2}


def _journal(path) -> Journal:
    return Journal(path, HEADER, fault="cache.write", error="CacheWriteError")


def _is_header(header) -> bool:
    return header == HEADER


def _write(path, entries) -> Journal:
    journal = _journal(path)
    journal.open(dict, accept=_is_header)
    for entry in entries:
        journal.append(entry)
    journal.close()
    return journal


def _reread(path):
    header, entries, valid = replay(path.read_bytes(), dict)
    assert valid == path.stat().st_size  # nothing torn after a reopen
    return header, entries


# --------------------------------------------------------------------- #
# The module
# --------------------------------------------------------------------- #
def test_checksum_guards_every_entry():
    head = json.dumps(HEADER).encode() + b"\n"
    line = encode_line({"a": [1, 2]})
    assert line[8:9] == b" " and line.endswith(b"\n")
    assert replay(head + line, dict) == (
        HEADER, [{"a": [1, 2]}], len(head + line)
    )
    # Still valid JSON, but not what was written.
    bad = line.replace(b"1", b"3")
    assert replay(head + bad, dict) == (HEADER, [], len(head))


def test_fresh_file_gets_the_header(tmp_path):
    path = tmp_path / "j.jsonl"
    _write(path, [{"i": 0}, {"i": 1}])
    assert json.loads(path.read_bytes().split(b"\n")[0]) == HEADER
    assert _reread(path) == (HEADER, [{"i": 0}, {"i": 1}])
    assert _journal(path).open(dict, accept=_is_header) == [
        {"i": 0}, {"i": 1}
    ]


def test_rejected_entry_is_the_torn_point(tmp_path):
    path = tmp_path / "j.jsonl"
    _write(path, [{"i": 0}, {"x": 1}, {"i": 2}])
    journal = _journal(path)
    assert journal.open(lambda obj: obj["i"], accept=_is_header) == [0]
    journal.append({"i": 3})
    journal.close()
    assert _reread(path) == (HEADER, [{"i": 0}, {"i": 3}])


def test_refusal_touches_nothing(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"other": 1}\n{"torn')

    def refuse(header):
        assert header == {"other": 1}
        raise RuntimeError("foreign")

    with pytest.raises(RuntimeError, match="foreign"):
        _journal(path).open(dict, accept=refuse)
    assert path.read_bytes() == b'{"other": 1}\n{"torn'


def test_torn_header_is_a_torn_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"journal": "te')  # killed during the first write
    journal = _journal(path)
    assert journal.open(dict, accept=_is_header) == []
    journal.append({"i": 0})
    journal.close()
    assert _reread(path) == (HEADER, [{"i": 0}])


def test_unaccepted_file_is_moved_aside(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"journal": "other')
    seen = []
    journal = _journal(path)
    assert journal.open(dict, accept=lambda h: seen.append(h)) == []
    assert seen == [None]
    journal.append({"i": 0})
    journal.close()
    assert path.with_name("j.jsonl.corrupt").read_bytes() == \
        b'{"journal": "other'
    assert _reread(path) == (HEADER, [{"i": 0}])


def test_compact_rewrites_header_and_entries(tmp_path):
    path = tmp_path / "j.jsonl"
    _write(path, [{"i": i} for i in range(5)])
    journal = _journal(path)
    journal.open(dict, accept=_is_header)
    journal.compact([{"i": 4}])
    journal.append({"i": 5})
    journal.close()
    assert _reread(path) == (HEADER, [{"i": 4}, {"i": 5}])
    assert not path.with_name("j.jsonl.tmp").exists()


def test_degradation_is_one_way(tmp_path, capsys):
    path = tmp_path / "j.jsonl"
    rule = faults.FaultRule(
        point="cache.write", kind="disk", hits=(2,), scope="any",
    )
    with faults.install([rule]):
        journal = _write(path, [{"i": 0}, {"i": 1}])
        journal.open(dict, accept=_is_header)  # never reopens
        journal.append({"i": 2})
    assert journal.error == "CacheWriteError[ENOSPC]"
    assert capsys.readouterr().err.count("degraded to read-only") == 1
    assert _reread(path) == (HEADER, [])


# --------------------------------------------------------------------- #
# Fuzz: whatever happens to the bytes, replay is a prefix or a refusal
# --------------------------------------------------------------------- #
_ENTRY = st.fixed_dictionaries({
    "key": st.text(max_size=12),
    "result": st.dictionaries(
        st.text(max_size=4), st.integers(-(2**40), 2**40), max_size=3
    ),
})
_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(
        st.just("flip"), st.integers(0, 2**20), st.integers(1, 255)
    ),
    st.tuples(st.just("enospc"), st.integers(1, 10)),
)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(_ENTRY, min_size=1, max_size=6), damage=_DAMAGE)
def test_fuzz_replay_is_a_prefix_or_a_refusal(entries, damage):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"
        kind = damage[0]
        if kind == "enospc":
            # Hit 1 is the header; hit n >= 2 is entry n - 2.
            rule = faults.FaultRule(
                point="cache.write", kind="disk", hits=(damage[1],),
                scope="any",
            )
            with faults.install([rule]):
                journal = _write(path, entries)
            if damage[1] <= len(entries) + 1:
                assert journal.error == "CacheWriteError[ENOSPC]"
            survivors = entries[:max(0, damage[1] - 2)]
        else:
            _write(path, entries)
            raw = path.read_bytes()
            # Entry i occupies bytes [ends[i], ends[i + 1]).
            ends = [raw.index(b"\n") + 1]
            for entry in entries:
                ends.append(ends[-1] + len(encode_line(entry)))
            at = damage[1] % (len(raw) + (kind == "truncate"))
            if kind == "truncate":
                path.write_bytes(raw[:at])
            else:
                flipped = bytearray(raw)
                flipped[at] ^= damage[2]
                path.write_bytes(bytes(flipped))
            # Entries ending at or before the damage survive it.
            survivors = entries[:sum(end <= at for end in ends[1:])]

        headers = []
        journal = _journal(path)
        replayed = journal.open(
            dict, accept=lambda h: headers.append(h) or _is_header(h)
        )
        if headers != [HEADER]:
            # Only damage to line 1 makes the header unusable: the file
            # was moved aside and the journal started empty.
            assert kind != "enospc" and at < ends[0]
            assert replayed == []
        elif kind == "flip" and at < ends[0]:
            # A flipped whitespace byte in the header can still decode
            # to the same dict; the entries are then intact.
            assert replayed == entries
        else:
            assert replayed == survivors
        # The next append lands on a clean line after the prefix.
        journal.append({"key": "next", "result": {}})
        journal.close()
        assert _reread(path) == (
            HEADER, replayed + [{"key": "next", "result": {}}]
        )


# --------------------------------------------------------------------- #
# Regressions: the sweep checkpoint on damaged journals
# --------------------------------------------------------------------- #
def _specs(nruns=3):
    table = {e.name: e for e in build_collection()}
    return build_runspecs(
        [table["sym_gd97_like"]], PAPER_METHODS[:2], nruns=nruns
    )


def _strip(records):
    return [dataclasses.replace(r, seconds=0.0) for r in records]


@pytest.fixture(scope="module")
def full_journal(tmp_path_factory):
    """A complete checkpoint journal and the records it streamed."""
    path = tmp_path_factory.mktemp("sweep") / "full.jsonl"
    records = list(run_sweep(_specs(), jobs=1, checkpoint=path))
    return path.read_bytes(), records


def _lines(raw: bytes) -> list[bytes]:
    return raw.split(b"\n")[:-1]


def test_checkpoint_resume_after_torn_tail_replays_everything(
    tmp_path, full_journal
):
    raw, records = full_journal
    lines = _lines(raw)
    path = tmp_path / "torn.jsonl"
    # Header + two records + the half-line a kill mid-write leaves.
    path.write_bytes(b"\n".join(lines[:3]) + b"\n" + lines[3][:20])
    first = list(run_sweep(_specs(), jobs=1, checkpoint=path))
    assert _strip(first) == _strip(records)
    assert first[:2] == records[:2]

    # The first resume truncated the torn tail before appending, so the
    # second replays every record: nothing recomputes, seconds included.
    second = list(run_sweep(_specs(), jobs=1, checkpoint=path))
    assert second == first
    assert len(_lines(path.read_bytes())) == 1 + len(records)


@pytest.mark.parametrize("damage", ["flip", "missing_field"])
def test_checkpoint_damaged_line_reruns_only_lost_specs(
    tmp_path, full_journal, damage
):
    raw, records = full_journal
    lines = _lines(raw)
    if damage == "flip":
        # A high-bit flip: not even valid UTF-8 any more.
        bad = bytearray(lines[3])
        bad[len(bad) // 2] ^= 0x80
        lines[3] = bytes(bad)
    else:
        # Intact checksum, but the entry has no record.
        entry = json.loads(lines[3].split(b" ", 1)[1])
        del entry["record"]
        lines[3] = encode_line(entry)[:-1]
    path = tmp_path / f"{damage}.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")

    resumed = list(run_sweep(_specs(), jobs=1, checkpoint=path))
    assert resumed[:2] == records[:2]  # replayed, not recomputed
    assert _strip(resumed) == _strip(records)
    again = list(run_sweep(_specs(), jobs=1, checkpoint=path))
    assert again == resumed


def test_checkpoint_killed_during_its_header_resumes(tmp_path, full_journal):
    raw, records = full_journal
    path = tmp_path / "torn-header.jsonl"
    path.write_bytes(_lines(raw)[0][:30])
    resumed = list(run_sweep(_specs(), jobs=1, checkpoint=path))
    assert _strip(resumed) == _strip(records)
    assert list(run_sweep(_specs(), jobs=1, checkpoint=path)) == resumed


def test_checkpoint_refuses_old_format_by_version(tmp_path, full_journal):
    raw, _ = full_journal
    header = json.loads(_lines(raw)[0])
    path = tmp_path / "v1.jsonl"
    path.write_text(json.dumps({**header, "version": 1}) + "\n")
    with pytest.raises(EvaluationError, match="format version 1"):
        list(run_sweep(_specs(), jobs=1, checkpoint=path))
    assert path.read_text() == json.dumps({**header, "version": 1}) + "\n"


# --------------------------------------------------------------------- #
# Regressions: the partition cache on damaged journals
# --------------------------------------------------------------------- #
def test_cache_edited_entry_is_dropped_never_served(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = PartitionCache(path, cap=8)
    for i, volume in enumerate((11, 13, 15)):
        cache.put(f"k{i}", {"volume": volume})
    cache.close()
    raw = path.read_bytes()
    assert raw.count(b'"volume": 13') == 1
    path.write_bytes(raw.replace(b'"volume": 13', b'"volume": 17'))

    reloaded = PartitionCache(path, cap=8)
    assert reloaded.get("k0") == {"volume": 11}
    assert reloaded.get("k1") is None  # the edited entry...
    assert reloaded.get("k2") is None  # ...and everything after it
    reloaded.close()


def test_cache_old_format_journal_is_moved_aside(tmp_path):
    path = tmp_path / "cache.jsonl"
    old = '{"partition_cache": 1}\n{"key": "a", "result": {"volume": 1}}\n'
    path.write_text(old)
    cache = PartitionCache(path, cap=8)
    assert len(cache) == 0
    cache.close()
    assert path.with_name("cache.jsonl.corrupt").read_text() == old
