"""The numpy-free command chain under every other supported Python found on
this host: each output, job state files included, matches the running
interpreter's byte for byte, nothing warns under ``-W error``, and ``import
mtpipe.cli`` loads no numpy.

Other interpreters are looked for in fixed places only: the pyenv versions
directory (``$PYENV_ROOT``, by default ``~/.pyenv``) and ``python3.X`` on
``PATH``. They need no packages: the chain uses the standard library alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stubserver import StubEndpoint

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)  # pyproject.toml's requires-python

# One command per process, as the CLI runs; the child reports on stderr how
# many times it forked, so a `report` that shards shows it.
_COMMAND = """
import os, sys
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(None))
from mtpipe.cli import main
code = main(sys.argv[1:])
print(f"forks={len(forks)}", file=sys.stderr)
sys.exit(code)
"""


def _version(exe: str) -> tuple[int, int] | None:
    try:
        proc = subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None  # e.g. a pyenv shim for a version that is not selected
    major, minor = map(int, proc.stdout.split())
    return major, minor


def _other_interpreters() -> dict[tuple[int, int], str]:
    """One executable per supported version other than the running one."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    candidates = [str(p) for p in sorted(pyenv.glob("*/bin/python3"))]
    candidates += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 40)))
    found: dict[tuple[int, int], str] = {}
    for exe in candidates:
        version = _version(exe)
        if version is not None and version >= OLDEST and version != sys.version_info[:2]:
            found.setdefault(version, exe)
    return found


def _reply(prompt: str, nth: int) -> tuple[str, str]:
    if prompt.startswith("\nYou are a strict bilingual judge"):
        return ("ok", ("reject", "Accept.", "accept")[len(prompt) % 3])
    return ("ok", "ترجمة: " + prompt[-16:])


def _write_inputs(inputs: Path) -> None:
    inputs.mkdir()

    def write(name: str, rows: list[dict]) -> None:
        (inputs / name).write_text(
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
        )

    write("records.jsonl", [
        {"id": f"r{i}", "instruction": f"Explain item {i} {{briefly}}.",
         "response": "```\nx = 1\n```" if i % 5 == 0 else f"Item {i} is number {i}.",
         **({"system": "Be exact."} if i % 2 else {})}
        for i in range(24)
    ])
    write("pairs.jsonl", [{"ar": f"جملة رقم {i}", "en": f"Sentence number {i}."}
                          for i in range(20)])
    # Enough text for `report` to shard on two or more CPUs
    # (shards._MIN_SHARD_CHARS per shard).
    words = "the quick brown fox jumps over the lazy dog while".split()
    text = [" ".join(words[(i + k) % len(words)] for k in range(18)) for i in range(720)]
    write("en.jsonl", [{"subject": f"s{i % 4}", "item_id": str(i), "text": t}
                       for i, t in enumerate(text)])
    write("ar.jsonl", [{"subject": f"s{i % 4}", "item_id": str(i), "text": t[::-1]}
                       for i, t in enumerate(text) if i % 36])
    (inputs / "outputs.txt").write_text(
        "".join(f"{t[::-1][i % 7:]} {i}\n" for i, t in enumerate(text[:700])), encoding="utf-8"
    )


def _chain(exe: str, inputs: Path, work: Path, base_url: str) -> dict[str, str]:
    """Run the chain under ``exe`` in ``work``: the sha256 of every output
    and each command's standard output and fork count."""
    work.mkdir()
    endpoint = ["--base-url", base_url, "--model", "m", "--concurrency", "3"]

    def lines(name: str) -> int:
        return len((work / name).read_bytes().splitlines())

    commands = {
        "filter-code": lambda: ["--in", str(inputs / "records.jsonl"), "--out", "kept.jsonl"],
        "translate-corpus": lambda: ["--in", "kept.jsonl", "--out", "tuples.jsonl",
                                     "--template", "lightweight", "--state", "translate.state",
                                     *endpoint],
        "judge": lambda: ["--in", str(inputs / "pairs.jsonl"), "--accepted", "accepted.jsonl",
                          "--stats", "stats.json", "--state", "judge.state", *endpoint],
        "mix": lambda: ["--source", f"kept=kept.jsonl={lines('kept.jsonl')}",
                        "--source", f"tuples=tuples.jsonl={lines('tuples.jsonl')}",
                        "--source", f"accepted=accepted.jsonl={lines('accepted.jsonl')}",
                        "--shuffle", "--seed", "11", "--out", "mixed.jsonl",
                        "--manifest", "manifest.json"],
        "sample-eval": lambda: ["--en", str(inputs / "en.jsonl"), "--ar", str(inputs / "ar.jsonl"),
                                "--n", "720", "--seed", "5", "--out", "eval"],
        "report": lambda: ["--pairs", "eval/pairs.jsonl", "--outputs",
                           str(inputs / "outputs.txt"), "--name", "sys", "--out", "report.json"],
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = {}
    for command, args in commands.items():
        proc = subprocess.run([exe, "-W", "error", "-c", _COMMAND, command, *args()],
                              capture_output=True, text=True, cwd=work, env=env, timeout=300)
        assert proc.returncode == 0, f"{exe} {command}: {proc.stderr}"
        result[f"{command} stdout"] = proc.stdout
        result[f"{command} forks"] = proc.stderr.splitlines()[-1]
    for path in sorted(work.rglob("*")):
        if path.is_file() and not path.name.endswith(".journal"):
            # A journal records the completion order, which the threads decide.
            # A state file holds the run fingerprint, so its bytes pin one
            # SHA-256 across the interpreters' built-in hash modules.
            result[str(path.relative_to(work))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def test_the_command_chain_is_the_same_under_every_other_supported_python(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other Python 3.10+ found in the pyenv versions directory or as "
                    "python3.X on PATH; a skip is not a pass: nothing was checked")
    _write_inputs(tmp_path / "inputs")
    with StubEndpoint(_reply) as stub:
        expected = _chain(sys.executable, tmp_path / "inputs", tmp_path / "here", stub.base_url)
        if len(os.sched_getaffinity(0)) > 1:
            assert expected["report forks"] != "forks=0", "report did not shard"
        differ = {}
        for (major, minor), exe in sorted(others.items()):
            name = f"{major}.{minor}"
            loaded = subprocess.run(
                [exe, "-W", "error", "-c", "import sys, mtpipe.cli; print('numpy' in sys.modules)"],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            )
            assert (loaded.returncode, loaded.stdout) == (0, "False\n"), f"{name}: {loaded.stderr}"
            got = _chain(exe, tmp_path / "inputs", tmp_path / name, stub.base_url)
            differ.update({f"{name} {key}": value for key, value in got.items()
                           if expected.get(key) != value})
            differ.update({f"{name} lacks {key}": "" for key in expected.keys() - got.keys()})
    assert differ == {}
