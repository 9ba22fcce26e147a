"""Durable files: ``atomic_write``, the writer of every output, and job state.

A job owns two files: a JSON state file holding the run fingerprint plus the
last known-good journal length, and an append-only journal of completed items
(one JSON line per item). The journal is fsynced before each state file
update. On resume the journal is read line by line; a torn tail past the
recorded position is truncated, and a whole last entry that lost its newline
gets it back. A journal damaged or cut short before that position, or one
with entries but no state file, is ``StateCorrupt`` and left as it is. An
item recorded in the journal is never re-sent.

A job holds an exclusive ``flock`` on its journal from open to close, so a
second run on the same state stops with ``StateBusy`` before it sends a
request. The lock is advisory and may not hold across NFS; the kernel drops
it when its holder dies, even by ``kill -9``.

Hashing is here alone, and only a run that keeps job state does it. Its
SHA-256 comes from CPython's built-in module (``_sha2``, or ``_sha256`` before
3.12), not from ``hashlib``, whose ``_hashlib`` maps OpenSSL's libcrypto
(+3.5 MB of RSS) for a few hash calls per job; only a build that has neither
module falls back to ``hashlib``. The built-in hash is the same function, so
every digest, and every state file, keeps its bytes.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import ToolError

_CHECKPOINT_EVERY = 64


class StateMismatch(ToolError):
    """An existing state file belongs to a different (input, config) pair."""


class StateCorrupt(ToolError):
    pass


class StateBusy(ToolError):
    """Another run holds the state's journal lock."""


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Yield a file (UTF-8 text for "w", bytes for "wb") that becomes ``path``,
    whole and fsynced, only if the block completes; else ``path`` is left as
    it was and no temp file remains. Each writer has a temp file of its own,
    ``<path>.<pid>-<random>.tmp`` beside the target, so writers that race on
    one path each leave a whole file and the last rename wins. A symlink
    keeps its link and its target is replaced; a target that is not a
    regular file (a FIFO, a device) cannot be replaced, so it is written in
    place, as is any path under /dev or /proc: ``/dev/stdout`` names a
    descriptor, even when it resolves to the regular file that stdout is
    redirected to."""
    encoding = None if "b" in mode else "utf-8"
    if os.path.abspath(path).startswith(("/dev/", "/proc/")) or (
        os.path.exists(path) and not os.path.isfile(path)
    ):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    # 0o666 so the umask sets the mode, as for any file the program creates.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    directory = os.open(os.path.dirname(target), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _sha256():
    """A new SHA-256 object from the interpreter's built-in module."""
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10 and 3.11
        except ImportError:  # a build without either
            from hashlib import sha256
    return sha256()


def run_fingerprint(parts: Iterable[str]) -> str:
    """Hash a sequence of strings into a run identity."""
    digest = _sha256()
    for part in parts:
        blob = part.encode("utf-8")
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


def _file_digest(path: str | Path) -> str:
    digest = _sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class JobState:
    """Completion record for one batch run, bound to a fingerprint. It holds
    an exclusive lock on its journal for its life, so a second run on the
    same state is StateBusy before it sends anything."""

    def __init__(self, state_path: str | Path, fingerprint: str):
        self.state_path = Path(state_path)
        self.journal_path = self.state_path.with_name(self.state_path.name + ".journal")
        self.fingerprint = fingerprint
        self.completed: dict[int, str] = {}
        self._since_checkpoint = 0
        self.state_path.parent.mkdir(parents=True, exist_ok=True)
        self._journal = open(self.journal_path, "a+b")
        try:
            self._lock()
            self._load()
            self.checkpoint()
        except BaseException:
            self._journal.close()
            raise

    def _lock(self) -> None:
        import fcntl  # here, not at the top: only commands that keep job state load it

        try:
            fcntl.flock(self._journal, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StateBusy(f"state {self.state_path} is in use by another run") from None

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
        elif os.fstat(self._journal.fileno()).st_size:  # empty: killed before its first checkpoint
            raise StateCorrupt(f"journal {self.journal_path} has no state file "
                               f"{self.state_path}; delete both to start over")

        journal = self._journal
        journal.seek(0)
        pos, damage = 0, None
        for line in journal:
            try:
                entry = json.loads(line.decode("utf-8"))
                index, text = entry["i"], entry["text"]
                if type(index) is not int or not isinstance(text, str):
                    raise TypeError(f"entry {entry!r} is not an int index and a str text")
            except (ValueError, KeyError, TypeError) as exc:  # UnicodeDecodeError too
                damage = exc
                break
            self.completed[index] = text
            pos += len(line)
        if pos < recorded_pos:  # damaged or cut short before the last checkpoint's position
            raise StateCorrupt(f"journal {self.journal_path} damaged before its "
                               f"recorded position {recorded_pos}") from damage
        if damage is not None:
            journal.truncate(pos)  # torn tail from an interrupted write
        elif pos and not line.endswith(b"\n"):  # a whole last entry lost its newline
            journal.write(b"\n")
        journal.seek(0, os.SEEK_END)  # appends land at the end; tell() is the length

    def record(self, index: int, text: str) -> None:
        """Append one completed item before it is reported. The journal is
        flushed; it is fsynced only at each checkpoint."""
        line = json.dumps({"i": index, "text": text}, ensure_ascii=False)
        self._journal.write(line.encode("utf-8") + b"\n")
        self._journal.flush()
        self.completed[index] = text
        self._since_checkpoint += 1
        if self._since_checkpoint >= _CHECKPOINT_EVERY:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Fsync the journal, then atomic_write a state file pointing no further."""
        self._journal.flush()
        os.fsync(self._journal.fileno())
        meta = {
            "fingerprint": self.fingerprint,
            "journal_pos": self._journal.tell(),
            "completed": len(self.completed),
        }
        with atomic_write(self.state_path) as fh:
            fh.write(json.dumps(meta, sort_keys=True))
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
