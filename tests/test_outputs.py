"""Every output file goes through ``state.atomic_write``: a failed write leaves
an earlier output byte-identical and no temp file, a symlinked output keeps
its link and replaces its target, a FIFO output is written through, and an
output that names its own input still works."""

from __future__ import annotations

import contextlib
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mtpipe import cli, pipeline, tensorio as tio
from mtpipe.state import atomic_write
from mtpipe.tensorio import Checkpoint, DType, tensor_from_f64

ROOT = Path(__file__).resolve().parents[1]
OLD = b'{"old":true}\n'


def _records(n: int, fail_after: int | None = None):
    for i in range(n):
        if i == fail_after:
            raise RuntimeError("the record source failed")
        code = i % 3 == 0
        yield {"id": str(i), "instruction": f"ask {i}",
               "response": "```python\nx = 1\n```" if code else f"answer {i}"}


def _names(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


def _input(tmp_path: Path, command: str) -> Path:
    """An input file for ``command``: a checkpoint, text lines or records."""
    if command == "quantize":
        src = tmp_path / "model.safetensors"
        weights = np.linspace(-3.0, 3.0, 300)
        tio.write_checkpoint(Checkpoint({"w": tensor_from_f64(weights, DType.F32, (300,))}), src)
    elif command == "tokenize":
        src = tmp_path / "lines.txt"
        src.write_text("".join(f"Line {i}, with (punctuation).\n" for i in range(40)),
                       encoding="utf-8")
    else:
        src = tmp_path / "records.jsonl"
        pipeline.write_records(src, _records(8))
    return src


def _argv(command: str, src: Path, out: Path) -> list[str]:
    if command == "mix":
        return ["mix", "--source", f"a={src}=8", "--out", str(out)]
    return [command, "--in", str(src), "--out", str(out)]


def test_a_failed_block_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    out = tmp_path / "out.bin"
    out.write_bytes(OLD)
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(out, "wb") as fh:
            fh.write(b"partial")
            raise KeyboardInterrupt
    assert out.read_bytes() == OLD
    assert _names(tmp_path) == ["out.bin"]


def test_write_records_failing_after_k_records_keeps_the_earlier_output(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_bytes(OLD)
    with pytest.raises(RuntimeError, match="record source failed"):
        pipeline.write_records(out, _records(8, fail_after=5))
    assert out.read_bytes() == OLD
    assert _names(tmp_path) == ["out.jsonl"]


# The CLI in a child process whose files cannot grow past argv[1] bytes, as
# on a full disk: a write past the limit fails with EFBIG.
_FULL_DISK = """
import resource, signal, sys
from mtpipe import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("command", ["mix", "tokenize"])
def test_a_disk_that_fills_mid_write_keeps_the_earlier_output(tmp_path, command):
    src = _input(tmp_path, command)
    out = tmp_path / "out"
    out.write_bytes(OLD)
    proc = subprocess.run(
        [sys.executable, "-c", _FULL_DISK, "256", *_argv(command, src, out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 1, proc.stderr
    assert "File too large" in proc.stderr and "Traceback" not in proc.stderr
    assert out.read_bytes() == OLD
    assert _names(tmp_path) == sorted([src.name, "out"])


@pytest.mark.parametrize("command", ["filter-code", "quantize"])
def test_a_symlinked_output_keeps_its_link_and_replaces_its_target(tmp_path, command, capsys):
    src = _input(tmp_path, command)
    plain = tmp_path / "plain"
    assert cli.main(_argv(command, src, plain)) == 0
    target = tmp_path / "real" / "out"
    target.parent.mkdir()
    target.write_bytes(OLD)
    link = tmp_path / "link"
    link.symlink_to(target)
    assert cli.main(_argv(command, src, link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()
    assert _names(target.parent) == ["out"]


@pytest.mark.parametrize("command", ["tokenize", "quantize"])
def test_a_fifo_output_is_written_through(tmp_path, command, capsys):
    src = _input(tmp_path, command)
    plain = tmp_path / "plain"
    assert cli.main(_argv(command, src, plain)) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(_argv(command, src, fifo)) == 0
    reader.join(timeout=10)
    assert not reader.is_alive(), "nothing was written through the FIFO"
    assert received == [plain.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert _names(tmp_path) == sorted(["fifo", "plain", src.name])


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_dev_stdout_output_is_written_in_place(tmp_path, capsys, stdout):
    """``--out /dev/stdout``, with stdout a pipe or redirected to a file: the
    redirect target is written through the shell's descriptor, not replaced."""
    src = _input(tmp_path, "tokenize")
    plain = tmp_path / "plain"
    assert cli.main(_argv("tokenize", src, plain)) == 0
    argv = [sys.executable, "-m", "mtpipe.cli", *_argv("tokenize", src, Path("/dev/stdout"))]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if stdout == "pipe":
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == plain.read_bytes()
        return
    log = tmp_path / "run.log"
    with open(log, "wb") as fh:
        inode = os.fstat(fh.fileno()).st_ino
        proc = subprocess.run(argv, stdout=fh, stderr=subprocess.PIPE, env=env)
    assert proc.returncode == 0, proc.stderr
    assert os.stat(log).st_ino == inode
    assert log.read_bytes() == plain.read_bytes()
    assert _names(tmp_path) == sorted(["plain", "run.log", src.name])


@pytest.mark.parametrize("command", ["filter-code", "mix"])
def test_an_output_naming_its_input_is_replaced_whole(tmp_path, command, capsys):
    src = _input(tmp_path, command)
    plain = tmp_path / "plain"
    assert cli.main(_argv(command, src, plain)) == 0
    assert cli.main(_argv(command, src, src)) == 0
    assert src.read_bytes() == plain.read_bytes()
    assert _names(tmp_path) == ["plain", src.name]


_RACING_WRITER = """
import os, sys
from mtpipe.state import atomic_write
path, tag, lines = sys.argv[1], sys.argv[2], int(sys.argv[3])
os.umask(0o027)
with atomic_write(path) as fh:
    fh.write(f"{tag} 0\\n")
    fh.flush()
    print("open", flush=True)
    sys.stdin.readline()  # the barrier: both writers have their temp file open
    fh.writelines(f"{tag} {i}\\n" for i in range(1, lines))
"""


def test_two_writers_racing_on_one_output_each_leave_a_whole_file(tmp_path):
    """Both writers exit 0, the output is one writer's bytes, with the mode the
    umask gives a new file, and no temp file is left."""
    out = tmp_path / "out"
    sizes = {"a": 5_000, "b": 20_000}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with contextlib.ExitStack() as stack:
        writers = [
            stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", _RACING_WRITER, str(out), tag, str(n)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env,
            ))
            for tag, n in sizes.items()
        ]
        for writer in writers:
            assert writer.stdout.readline() == "open\n", writer.stderr.read()
        for writer in writers:
            writer.stdin.close()
        for writer in writers:
            assert writer.wait(timeout=60) == 0, writer.stderr.read()
    whole = {"".join(f"{tag} {i}\n" for i in range(n)).encode() for tag, n in sizes.items()}
    assert out.read_bytes() in whole
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert _names(tmp_path) == ["out"]
