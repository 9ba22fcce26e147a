"""Peak memory of ``mtpipe merge`` is bounded by its largest tensor, not by
the size of the checkpoints."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtpipe
from mtpipe import tensorio as tio

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
)

# VmHWM is the process's own high-water RSS since exec; ru_maxrss would also
# count the forking pytest process.
CHILD = """
import sys
from mtpipe.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""

N_TENSORS = 32
TENSOR_ELEMS = (1 << 20) // 4  # 1 MB of float32


def _write(path: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    names = [f"layer.{i:02d}" for i in range(N_TENSORS)]
    info = tio.TensorInfo(tio.DType.F32, (TENSOR_ELEMS,))
    payloads = (
        tio.Tensor(info.dtype, info.shape, rng.standard_normal(TENSOR_ELEMS).astype("<f4").tobytes())
        for _ in names
    )
    tio.write_checkpoint(tio.TensorStream({n: info for n in names}, {}, payloads), path)


def _peak_bytes(args: list[str], cwd: Path) -> int:
    env = dict(os.environ)
    src = str(Path(mtpipe.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else []))
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) * 1024


def test_merge_peak_memory_grows_by_less_than_one_input(tmp_path):
    a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    _write(a, 1)
    _write(b, 2)
    baseline = _peak_bytes([], tmp_path)
    peak = _peak_bytes(["merge", "--a", str(a), "--b", str(b), "--out", "m.safetensors"],
                       tmp_path)
    assert set(tio.read_checkpoint(tmp_path / "m.safetensors").tensors) == {
        f"layer.{i:02d}" for i in range(N_TENSORS)}
    assert peak - baseline < a.stat().st_size
