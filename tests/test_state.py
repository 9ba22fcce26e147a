from __future__ import annotations

import json

import pytest

from mtpipe import cli, pipeline
from mtpipe.state import JobState, StateCorrupt, StateMismatch, run_fingerprint


def test_fingerprint_sensitive_to_parts_and_boundaries():
    assert run_fingerprint(["a", "b"]) != run_fingerprint(["ab"])
    assert run_fingerprint(["a", "b"]) != run_fingerprint(["b", "a"])
    assert run_fingerprint(["a", "b"]) == run_fingerprint(["a", "b"])


def test_record_and_reload(tmp_path):
    path = tmp_path / "job.state"
    with JobState(path, "fp1") as state:
        state.record(0, "zero")
        state.record(3, "three")
    with JobState(path, "fp1") as state:
        assert state.completed == {0: "zero", 3: "three"}


def test_fingerprint_mismatch_rejected(tmp_path):
    path = tmp_path / "job.state"
    with JobState(path, "fp1") as state:
        state.record(0, "x")
    with pytest.raises(StateMismatch):
        JobState(path, "fp2")


def test_torn_journal_tail_truncated(tmp_path):
    path = tmp_path / "job.state"
    with JobState(path, "fp") as state:
        state.record(0, "ok")
        state.record(1, "also ok")
    journal = path.with_name(path.name + ".journal")
    with open(journal, "ab") as fh:
        fh.write(b'{"i": 2, "text": "cut off in the mid')
    with JobState(path, "fp") as state:
        assert state.completed == {0: "ok", 1: "also ok"}
    # The torn bytes are gone after recovery.
    lines = journal.read_bytes().splitlines()
    assert all(json.loads(line) for line in lines)


def test_unterminated_but_complete_final_line_is_kept(tmp_path):
    path = tmp_path / "job.state"
    with JobState(path, "fp") as state:
        state.record(0, "ok")
    journal = path.with_name(path.name + ".journal")
    with open(journal, "ab") as fh:
        fh.write(b'{"i": 1, "text": "no newline"}')
    with JobState(path, "fp") as state:
        assert state.completed == {0: "ok", 1: "no newline"}


def test_entry_recorded_after_a_restored_newline_survives_the_next_resume(tmp_path):
    path = tmp_path / "job.state"
    journal = path.with_name(path.name + ".journal")
    journal.write_bytes(b'{"i": 0, "text": "a"}\n{"i": 1, "text": "b"}')
    with JobState(path, "fp") as state:
        state.record(2, "c")
    with JobState(path, "fp") as state:
        assert state.completed == {0: "a", 1: "b", 2: "c"}
    assert journal.read_bytes().count(b"\n") == 3


def test_damage_before_the_recorded_position_is_state_corrupt(tmp_path):
    path = tmp_path / "job.state"
    with JobState(path, "fp") as state:
        for i in range(4):
            state.record(i, f"item {i}")
    journal = path.with_name(path.name + ".journal")
    raw = bytearray(journal.read_bytes())
    raw[raw.index(b"item 1") - 2] = ord("#")  # the opening quote of the second entry's text
    journal.write_bytes(bytes(raw))
    meta = path.read_bytes()
    with pytest.raises(StateCorrupt, match=r"damaged before its recorded position \d+"):
        JobState(path, "fp")
    assert journal.read_bytes() == bytes(raw)
    assert path.read_bytes() == meta


@pytest.mark.parametrize("entry", [b'{"i": 0, "text": 5}', b'{"i": true, "text": "x"}',
                                   b'{"i": 1.0, "text": "x"}', b'{"i": "1", "text": "x"}'],
                         ids=["text-int", "i-bool", "i-float", "i-str"])
def test_an_ill_typed_entry_is_damage(tmp_path, entry):
    path = tmp_path / "job.state"
    journal = path.with_name(path.name + ".journal")
    with JobState(path, "fp") as state:
        state.record(0, "ok")
    with open(journal, "ab") as fh:
        fh.write(entry + b"\n")
    with JobState(path, "fp") as state:  # past the recorded position: a torn tail
        assert state.completed == {0: "ok"}
    assert journal.read_bytes() == b'{"i": 0, "text": "ok"}\n'

    journal.write_bytes(entry + b"\n" + journal.read_bytes())
    path.write_text(json.dumps({"fingerprint": "fp", "journal_pos": journal.stat().st_size}))
    with pytest.raises(StateCorrupt, match="damaged before its recorded position"):
        JobState(path, "fp")


def test_state_file_is_json_with_counts(tmp_path):
    path = tmp_path / "job.state"
    with JobState(path, "fp") as state:
        for i in range(5):
            state.record(i, str(i))
    meta = json.loads(path.read_text())
    assert meta["fingerprint"] == "fp"
    assert meta["completed"] == 5
    assert meta["journal_pos"] > 0


def test_unicode_payloads_survive(tmp_path):
    path = tmp_path / "job.state"
    text = "مرحبا \"quoted\" \n newline"
    with JobState(path, "fp") as state:
        state.record(0, text)
    with JobState(path, "fp") as state:
        assert state.completed[0] == text


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe", b"[]", b'{"fingerprint": "fp", "journal_pos": "x"}'],
    ids=["not-utf8", "json-list", "journal-pos-not-a-number"],
)
def test_unreadable_state_file_is_state_corrupt(tmp_path, caplog, content):
    path = tmp_path / "job.state"
    path.write_bytes(content)
    with pytest.raises(StateCorrupt, match="unreadable state file"):
        JobState(path, "fp")

    records = tmp_path / "records.jsonl"
    pipeline.write_records(records, [{"instruction": "a", "response": "b"}])
    out = tmp_path / "kept.jsonl"
    args = ["filter-code", "--in", str(records), "--out", str(out), "--state", str(path)]
    assert cli.main(args) == 1
    [record] = caplog.records
    assert "unreadable state file" in record.getMessage()
    assert not out.exists()
