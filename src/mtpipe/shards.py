"""Statistics of (hypothesis, reference) pairs gathered on every usable CPU.

``gather`` cuts the pairs into contiguous shards of about equal character
count, one per CPU in ``os.sched_getaffinity(0)``. The calling process
computes the first shard and a forked child each other one, which sends its
result back over a pipe and leaves by ``os._exit``. The pairs stay in one
shard, with no fork, on a single CPU, on a platform without ``os.fork``,
while another thread is alive and when a shard would hold fewer than
``_MIN_SHARD_CHARS`` characters. No child outlives the call.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import signal
import sys
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Sequence

# Forking one child, piping its counts back and reaping it costs about 2.3 ms
# from the 22 MB process of `report` on the benchmark's eval inputs (2-core
# VM). Scoring costs 2-3 us per character for the three metrics together
# (chrF++ 1.3-1.9, BLEU 0.6-0.7, ROUGE-L 0.12-0.2). So a shard this size
# holds 0.1 s or more of `evaluate_pairs` work against 7 ms of upkeep for its
# three children, and even ROUGE-L alone moves 6 ms of work for 2.3 ms. The
# eval corpus, about 287,000 characters, splits in two on two CPUs; a few
# short pairs stay in one process.
_MIN_SHARD_CHARS = 50_000


def _cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _may_fork() -> bool:
    """No other thread is alive: a child forked now holds no lock another
    thread owns. Python 3.12 and later also count threads the interpreter
    did not start (it warns on any fork of a multi-threaded process), so
    there the kernel's count must be 1 as well."""
    if threading.active_count() > 1:
        return False
    if sys.version_info < (3, 12):
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _bounds(hyps: Sequence[str], refs: Sequence[str]) -> list[int]:
    """Cut points of contiguous shards of about equal character count, one
    per usable CPU and each of at least _MIN_SHARD_CHARS characters; one
    shard when forking is not possible or not safe."""
    ends = list(accumulate(len(h) + len(r) for h, r in zip(hyps, refs)))
    count = min(_cpus(), len(ends), ends[-1] // _MIN_SHARD_CHARS)
    if count < 2 or not _may_fork():
        return [0, len(ends)]
    cuts = [bisect_left(ends, ends[-1] * k / count) + 1 for k in range(1, count)]
    return list(dict.fromkeys([0, *cuts, len(ends)]))


def gather(stats: Callable[..., list], hyps: Sequence[str], refs: Sequence[str],
           *args) -> list[list]:
    """``stats(hyps, refs, *args)`` of each shard, in shard order.

    This process computes shard 0 while one forked child per other shard
    computes its own and sends it back over a pipe. A shard whose child
    cannot be started or does not exit 0 is computed here, so its error is
    raised as it would be unsharded. Every child is reaped before this
    returns or raises; one still running is killed first."""
    bounds = _bounds(hyps, refs)
    shards = [(hyps[a:b], refs[a:b]) for a, b in zip(bounds, bounds[1:])]
    children: list[list] = []  # [pid, read end] per shard past 0; pid None once reaped
    try:
        for shard in shards[1:]:
            with _sigint_blocked() as mask:  # until the child is recorded
                children.append(_fork(mask, stats, *shard, *args))
        results = [stats(*shards[0], *args)]
        for shard, child in zip(shards[1:], children):
            result = _receive(child)
            results.append(stats(*shard, *args) if result is None else result)
        return results
    finally:
        for pid, fd in children:
            if fd is not None:
                os.close(fd)
            if pid is not None:  # only a call that raises gets here
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


@contextlib.contextmanager
def _sigint_blocked():
    """SIGINT held back in this thread until the block ends; yields the
    signal mask it replaced."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _fork(mask, stats: Callable[..., list], hyps: Sequence[str], refs: Sequence[str],
          *args) -> list:
    """Start a child that sets the signal ``mask``, writes ``stats(hyps,
    refs, *args)`` to a pipe and exits 0, or 1 on any error; ``[pid, read
    end]``, or ``[None, None]`` when no child could be started."""
    try:
        read, write = os.pipe()
    except OSError:
        return [None, None]
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return [None, None]
    if pid == 0:
        code = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(read)
            with open(write, "wb") as out:
                out.write(marshal.dumps(stats(hyps, refs, *args)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return [pid, read]


def _receive(child: list) -> list | None:
    """What a child sent once it has exited 0, or None when it failed or was
    never started. Marks the child reaped."""
    pid, fd = child
    if pid is None:
        return None
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    with _sigint_blocked():  # the child has closed its end and is exiting
        status = os.waitpid(pid, 0)[1]
        child[0] = None
    return marshal.loads(b"".join(chunks)) if status == 0 else None
