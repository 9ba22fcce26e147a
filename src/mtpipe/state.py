"""Durable run state for resumable batch jobs.

A job owns two files: a JSON state file holding the run fingerprint plus the
last known-good journal length, and an append-only journal of completed items
(one JSON line per item). State file updates are atomic
(write-new-then-rename). On resume the journal's valid prefix is replayed and
any torn tail past the recorded position is truncated, so an item recorded in
the journal is never re-sent.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable

from .errors import ToolError

_CHECKPOINT_EVERY = 64


class StateMismatch(ToolError):
    """An existing state file belongs to a different (input, config) pair."""


class StateCorrupt(ToolError):
    pass


def run_fingerprint(parts: Iterable[str]) -> str:
    """Hash a sequence of strings into a run identity."""
    digest = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8")
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


class JobState:
    """Completion record for one batch run, bound to a fingerprint."""

    def __init__(self, state_path: str | Path, fingerprint: str):
        self.state_path = Path(state_path)
        self.journal_path = self.state_path.with_name(self.state_path.name + ".journal")
        self.fingerprint = fingerprint
        self.completed: dict[int, str] = {}
        self._journal = None
        self._since_checkpoint = 0
        self._load()

    def _load(self) -> None:
        recorded_pos = 0
        if self.state_path.exists():
            try:
                meta = json.loads(self.state_path.read_text(encoding="utf-8"))
                if not isinstance(meta, dict):
                    raise ValueError("not a JSON object")
                recorded_pos = int(meta.get("journal_pos", 0))
            except (OSError, ValueError, TypeError) as exc:
                raise StateCorrupt(f"unreadable state file {self.state_path}: {exc}") from exc
            if meta.get("fingerprint") != self.fingerprint:
                raise StateMismatch(
                    f"state at {self.state_path} was created for a different run"
                )

        if self.journal_path.exists():
            raw = self.journal_path.read_bytes()
            pos = 0
            while pos < len(raw):
                newline = raw.find(b"\n", pos)
                end = len(raw) if newline == -1 else newline
                try:
                    entry = json.loads(raw[pos:end].decode("utf-8"))
                    index = int(entry["i"])
                    text = entry["text"]
                except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
                    if pos >= recorded_pos:
                        # Torn tail from an interrupted write: drop it.
                        with open(self.journal_path, "r+b") as fh:
                            fh.truncate(pos)
                        break
                    raise StateCorrupt(
                        f"journal {self.journal_path} damaged before its "
                        f"recorded position {recorded_pos}"
                    ) from exc
                self.completed[index] = text
                pos = end + 1
        else:
            self.state_path.parent.mkdir(parents=True, exist_ok=True)

        self._journal = open(self.journal_path, "ab")
        self.checkpoint()

    @property
    def journal_pos(self) -> int:
        self._journal.flush()
        return self._journal.tell()

    def record(self, index: int, text: str) -> None:
        """Append one completed item before it is reported. The journal is
        flushed, not fsynced, so a power loss can still drop the item."""
        line = json.dumps({"i": index, "text": text}, ensure_ascii=False)
        self._journal.write(line.encode("utf-8") + b"\n")
        self._journal.flush()
        self.completed[index] = text
        self._since_checkpoint += 1
        if self._since_checkpoint >= _CHECKPOINT_EVERY:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Atomically persist the state file (write-new-then-rename)."""
        meta = {
            "fingerprint": self.fingerprint,
            "journal_pos": self.journal_pos,
            "completed": len(self.completed),
        }
        tmp = self.state_path.with_name(self.state_path.name + ".tmp")
        tmp.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.state_path)
        self._since_checkpoint = 0

    def close(self) -> None:
        if self._journal is not None:
            self.checkpoint()
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "JobState":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
