"""The benchmark's own test: every workload end to end at a tiny size, its
printed metrics against BENCHMARK.json, and each correctness check shown to
fail on a corrupted output.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._require_tree()
run._import_helpers()
from run import checks, inputs  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_all_workloads_run_end_to_end():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--size", "tiny",
         "--seed", "5", "--seconds", "0"],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr[-2000:]
    assert result["attempted"] >= 2 * (2 + 5 + 2)
    wanted = {f"{w}.{m['name']}": m["unit"] for w in run.WORKLOADS
              for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for w in run.WORKLOADS:
        assert result["metrics"][f"{w}.job_s"]["value"] > 0
        assert result["metrics"][f"{w}.setup_s"]["value"] > 0
    # Each layer shows up on the workload that exercises it.
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["ckpt.fp8.encode_array.s"] > 0 and m["ckpt.merge.slerp_vec.s"] > 0
    assert m["corpus.inference.chat_complete.calls"] > 0
    assert m["corpus.inference.attempts_per_item"] == 1.0
    assert m["eval.metrics.lcs_length.s"] > 0 and m["eval.metrics.tokenize_13a.calls"] > 0
    for line in lines[:-1]:
        if not line.startswith("#"):
            workload, name, _value, unit = line.split()
            assert wanted[f"{workload}.{name}"] == unit
    assert (run.ROOT / ".bench_out" / "spans-corpus-5.jsonl").stat().st_size > 0


def _chain(kind, tmp_path: Path):
    wl = kind(tmp_path, 9, inputs.TINY, run.Launcher())
    chain = run.run_chain(wl)
    assert chain["failed"] == 0
    errors = run.finish_round(wl, chain, []) + wl.check()
    return wl, errors


def _close(wl) -> None:
    wl.close()
    wl.launcher.close()


def test_ckpt_check_catches_one_flipped_code(tmp_path):
    wl, errors = _chain(run.Ckpt, tmp_path)
    assert errors == []
    path = tmp_path / "teacher-fp8.safetensors"
    raw = bytearray(path.read_bytes())
    tensors, _ = checks.read_raw_checkpoint(path)
    (n,) = np.frombuffer(raw[:8], "<u8")
    name = next(k for k, (dtype, _, _) in tensors.items() if dtype == "F8_E4M3")
    header = json.loads(raw[8:8 + int(n)])
    at = 8 + int(n) + header[name]["data_offsets"][0]
    raw[at] ^= 0x01
    path.write_bytes(bytes(raw))
    assert any("off the nearest grid point" in e for e in wl.check())
    _close(wl)


def test_corpus_check_catches_one_swapped_translation(tmp_path):
    wl, errors = _chain(run.Corpus, tmp_path)
    try:
        assert errors == []
        path = tmp_path / "tuples.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows[0]["instr_ar"], rows[1]["instr_ar"] = rows[1]["instr_ar"], rows[0]["instr_ar"]
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                        encoding="utf-8")
        assert any("tuples differ" in e for e in wl.check())
    finally:
        _close(wl)


def test_eval_check_catches_one_altered_score(tmp_path):
    wl, errors = _chain(run.Eval, tmp_path)
    assert errors == []
    path = tmp_path / "report.json"
    report = json.loads(path.read_text())
    report["chrf_pp"] += 1e-6
    path.write_text(json.dumps(report))
    assert any("chrf_pp" in e for e in wl.check())
    _close(wl)


def test_refuses_to_run_without_the_program(tmp_path):
    # A tree that holds the benchmark but not the program or its oracles.
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""
    assert "not found" in out.stderr
