"""Peak memory of ``mtpipe merge`` and ``mtpipe quantize`` is bounded by a
chunk, not by the size of the checkpoints or of their largest tensor, and a
resumed JobState holds each reply once."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtpipe
from mtpipe import tensorio as tio
from mtpipe.state import JobState

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
)

# VmHWM is the process's own high-water RSS since exec; ru_maxrss would also
# count the forking pytest process.
PRINT_VMHWM = """
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
"""
CHILD = """
import sys
from mtpipe.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
""" + PRINT_VMHWM + "sys.exit(code)\n"
# The baseline for a one-tensor checkpoint also loads numpy and the checkpoint
# modules, which the small-tensor tests leave in their allowance.
LOADED_CHILD = "import mtpipe.merge, mtpipe.quant\n" + CHILD
# Resumes the JobState named by its argument, if any.
LOAD_CHILD = """
import sys
from mtpipe.state import JobState
if len(sys.argv) > 1:
    JobState(sys.argv[1], "fp").close()
""" + PRINT_VMHWM

N_TENSORS = 32
TENSOR_ELEMS = (1 << 20) // 4  # 1 MB of float32


def _write(path: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    names = [f"layer.{i:02d}" for i in range(N_TENSORS)]
    info = tio.TensorInfo(tio.DType.F32, (TENSOR_ELEMS,))
    produce = {n: lambda: [rng.standard_normal(TENSOR_ELEMS).astype("<f4").tobytes()]
               for n in names}
    tio.write_checkpoint(tio.TensorStream(dict.fromkeys(names, info), {}, produce), path)


def _peak_bytes(args: list[str], cwd: Path, child: str = CHILD) -> int:
    env = dict(os.environ)
    src = str(Path(mtpipe.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else []))
    proc = subprocess.run([sys.executable, "-c", child, *args], capture_output=True,
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


def test_quantize_peak_memory_grows_by_less_than_one_input(tmp_path):
    src = tmp_path / "a.safetensors"
    _write(src, 1)
    baseline = _peak_bytes([], tmp_path)
    peak = _peak_bytes(["quantize", "--in", str(src), "--out", "q.safetensors"], tmp_path)
    names = {f"layer.{i:02d}" for i in range(N_TENSORS)}
    assert set(tio.read_checkpoint(tmp_path / "q.safetensors").tensors) == names | {
        f"{name}.scale" for name in names}
    assert peak - baseline < src.stat().st_size


def test_resume_peak_memory_grows_by_less_than_one_and_a_half_journals(tmp_path):
    state_path = tmp_path / "job.state"
    with JobState(state_path, "fp") as state:
        for i in range(10_000):
            state.record(i, f"{i:08d}" + "x" * 4000)
    journal = state_path.with_name(state_path.name + ".journal")
    baseline = _peak_bytes([], tmp_path, LOAD_CHILD)
    peak = _peak_bytes([str(state_path)], tmp_path, LOAD_CHILD)
    assert peak - baseline < 1.5 * journal.stat().st_size


BIG_ELEMS = 8 << 20  # one tensor of 8M elements: 32 MB of float32, 16 MB of BF16


def _write_big(path: Path, seed: int, dtype: tio.DType) -> None:
    values = np.random.default_rng(seed).standard_normal(BIG_ELEMS).astype("<f4")
    if dtype is tio.DType.BF16:
        values = (values.view("<u4") >> 16).astype("<u2")
    tio.write_checkpoint(tio.Checkpoint(
        {"big": tio.Tensor(dtype, (BIG_ELEMS,), values.tobytes())}), path)


def _merge_and_quantize_of_one_big_tensor(tmp_path: Path, dtype: tio.DType) -> None:
    a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    _write_big(a, 1, dtype)
    _write_big(b, 2, dtype)
    baseline = _peak_bytes([], tmp_path, LOADED_CHILD)
    merge = _peak_bytes(["merge", "--a", str(a), "--b", str(b), "--out", "m.safetensors"],
                        tmp_path, LOADED_CHILD)
    quantize = _peak_bytes(["quantize", "--in", str(a), "--out", "q.safetensors"],
                           tmp_path, LOADED_CHILD)
    with tio.open_checkpoint(tmp_path / "m.safetensors") as merged:
        assert merged.tensors == {"big": tio.TensorInfo(dtype, (BIG_ELEMS,))}
    with tio.open_checkpoint(tmp_path / "q.safetensors") as quantized:
        assert set(quantized.tensors) == {"big", "big.scale"}
    quarter = a.stat().st_size / 4
    assert merge - baseline < quarter, (merge - baseline) / 2**20
    assert quantize - baseline < quarter, (quantize - baseline) / 2**20


def test_merge_and_quantize_of_one_big_tensor_grow_by_less_than_a_quarter_input(tmp_path):
    _merge_and_quantize_of_one_big_tensor(tmp_path, tio.DType.F32)


def test_merge_and_quantize_of_one_big_bf16_tensor_grow_by_less_than_a_quarter_input(tmp_path):
    # BF16 quantizes through the tables over its bit patterns.
    _merge_and_quantize_of_one_big_tensor(tmp_path, tio.DType.BF16)
