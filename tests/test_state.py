from __future__ import annotations

import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mtpipe import cli, pipeline
from mtpipe.state import JobState, StateBusy, StateCorrupt, StateMismatch, run_fingerprint

from stubserver import StubEndpoint

ROOT = Path(__file__).resolve().parents[1]


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
    with JobState(path, "fp") as state:
        state.record(0, "a")
    with open(journal, "ab") as fh:
        fh.write(b'{"i": 1, "text": "b"}')
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


def test_a_journal_without_its_state_file_is_state_corrupt(tmp_path):
    path = tmp_path / "job.state"
    journal = path.with_name(path.name + ".journal")
    with JobState(path, "run-A") as state:
        state.record(0, "reply from run A")
    path.unlink()  # as a user clearing a StateMismatch might
    recorded = journal.read_bytes()
    with pytest.raises(StateCorrupt, match=re.escape(f"journal {journal} has no state file {path}")):
        JobState(path, "run-B")
    assert journal.read_bytes() == recorded and not path.exists()

    journal.write_bytes(b"")  # a run killed before its first checkpoint
    with JobState(path, "run-B") as state:
        assert state.completed == {}


_TEXTS = ["zero", "مرحبا", "", 'two "quoted"', "x" * 9, "نعم"]
_RECORDED = 3  # entries the state file vouches for


def _journal_past_its_checkpoint(directory: Path) -> tuple[Path, bytes, bytes, list[int]]:
    """A job whose journal holds six entries but whose state file records the
    end of the third, as a run killed between two checkpoints leaves it.
    Returns the state path, the journal and state bytes, and each entry's end."""
    path = directory / "job.state"
    with JobState(path, "fp") as state:
        for i in range(_RECORDED):
            state.record(i, _TEXTS[i])
    meta = path.read_bytes()
    with JobState(path, "fp") as state:
        for i in range(_RECORDED, len(_TEXTS)):
            state.record(i, _TEXTS[i])
    path.write_bytes(meta)
    raw = path.with_name(path.name + ".journal").read_bytes()
    ends = [n + 1 for n, byte in enumerate(raw) if byte == ord("\n")]
    assert json.loads(meta)["journal_pos"] == ends[_RECORDED - 1]
    return path, raw, meta, ends


def _resume_after_cut(directory: Path, cut: int, garbage: bytes = b"") -> None:
    path, raw, meta, ends = _journal_past_its_checkpoint(directory)
    journal = path.with_name(path.name + ".journal")
    damaged = raw[:cut] + garbage
    journal.write_bytes(damaged)
    if cut < ends[_RECORDED - 1]:
        with pytest.raises(StateCorrupt, match="damaged before its recorded position"):
            JobState(path, "fp")
        assert journal.read_bytes() == damaged and path.read_bytes() == meta
        return
    # Entries wholly inside the cut survive; without garbage, so does one that
    # lacks only its newline.
    kept = sum(end <= cut + (not garbage) for end in ends)
    with JobState(path, "fp") as state:
        assert state.completed == dict(enumerate(_TEXTS[:kept]))
    assert journal.read_bytes() == raw[: ends[kept - 1]]
    assert json.loads(path.read_bytes())["journal_pos"] == ends[kept - 1]


def test_a_journal_cut_at_any_byte_resumes_its_whole_entries_or_is_state_corrupt(tmp_path):
    _, raw, _, _ = _journal_past_its_checkpoint(tmp_path / "probe")
    for cut in range(len(raw) + 1):
        _resume_after_cut(tmp_path / str(cut), cut)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cut=st.integers(0, 200), garbage=st.binary(max_size=40))
def test_garbage_after_a_cut_is_a_torn_tail_or_state_corrupt(tmp_path_factory, cut, garbage):
    # A leading 0xff, which no UTF-8 line holds, makes the garbage damage the
    # line it lands in, whatever follows. A cut past the end keeps it all.
    _resume_after_cut(tmp_path_factory.mktemp("cut"), cut, b"\xff" + garbage)


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


def test_checkpoint_fsyncs_the_journal_before_it_replaces_the_state(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        events.append(("fsync", fd))
        fsync(fd)

    def logged_replace(src, dst):
        events.append(("replace", Path(dst).name))
        replace(src, dst)

    with JobState(tmp_path / "job.state", "fp") as state:
        state.record(0, "zero")
        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(os, "replace", logged_replace)
        state.checkpoint()
        journal_fd = state._journal.fileno()
        monkeypatch.undo()
    assert ("fsync", journal_fd) in events
    assert events.index(("fsync", journal_fd)) < events.index(("replace", "job.state"))


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
def test_unreadable_state_file_is_state_corrupt(tmp_path, capsys, content):
    path = tmp_path / "job.state"
    path.write_bytes(content)
    with pytest.raises(StateCorrupt, match="unreadable state file"):
        JobState(path, "fp")

    records = tmp_path / "records.jsonl"
    pipeline.write_records(records, [{"instruction": "a", "response": "b"}])
    out = tmp_path / "kept.jsonl"
    args = ["filter-code", "--in", str(records), "--out", str(out), "--state", str(path)]
    assert cli.main(args) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR mtpipe: ") and "unreadable state file" in line
    assert not out.exists()


def test_a_run_on_a_state_another_run_holds_is_busy_and_sends_nothing(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pipeline.write_parallel_pairs(pairs, [("نعم", "yes"), ("لا", "no")])
    state = tmp_path / "judge.state"
    accepted = tmp_path / "accepted.jsonl"
    with open(state.with_name(state.name + ".journal"), "ab") as held, \
            StubEndpoint(lambda prompt, nth: ("ok", "accept")) as stub:
        fcntl.flock(held, fcntl.LOCK_EX)  # as the run holding the state does
        code = cli.main(["judge", "--in", str(pairs), "--accepted", str(accepted),
                         "--base-url", stub.base_url, "--model", "m", "--state", str(state)])
    assert code == 1
    assert stub.requests == []
    assert capsys.readouterr().err == f"ERROR mtpipe: state {state} is in use by another run\n"
    assert not accepted.exists() and not state.exists()


_HOLDER = """
import sys
from mtpipe.state import JobState
with JobState(sys.argv[1], "fp") as state:
    state.record(0, "zero")
    print("holding", flush=True)
    sys.stdin.readline()
"""


def test_a_lock_holder_killed_by_sigkill_does_not_block_the_next_run(tmp_path):
    path = tmp_path / "job.state"
    with subprocess.Popen(
        [sys.executable, "-c", _HOLDER, str(path)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ) as holder:
        assert holder.stdout.readline() == "holding\n"
        with pytest.raises(StateBusy, match=f"state {path} is in use by another run"):
            JobState(path, "fp")
        holder.kill()
        holder.wait(timeout=30)
    with JobState(path, "fp") as state:
        assert state.completed == {0: "zero"}
