from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mtpipe import cli, metrics, pipeline, quant, shards, tensorio as tio
from mtpipe.inference import EndpointConfig
from mtpipe.state import JobState
from mtpipe.tensorio import Checkpoint, DType, tensor_from_f64

from stubserver import StubEndpoint


def run_cli(args: list[str]) -> int:
    return cli.main(args)


def logged(capsys, level: str = "ERROR") -> list[str]:
    """The messages on stderr since the last read; every line must be
    ``LEVEL mtpipe: message``, as the CLI writes it."""
    prefix = f"{level} mtpipe: "
    *lines, rest = capsys.readouterr().err.split("\n")
    assert rest == "" and all(line.startswith(prefix) for line in lines), [*lines, rest]
    return [line[len(prefix):] for line in lines]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["merge", "--a", "x"])
    assert err.value.code == 2


def _write_checkpoint(path: Path, rng, names=("w", "v")) -> Checkpoint:
    tensors = {
        name: tensor_from_f64(rng.normal(size=16), DType.F32, (16,)) for name in names
    }
    ckpt = Checkpoint(tensors=tensors)
    tio.write_checkpoint(ckpt, path)
    return ckpt


def test_merge_command(tmp_path, rng):
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    out = tmp_path / "merged.safetensors"
    _write_checkpoint(a, rng)
    _write_checkpoint(b, rng)
    assert run_cli(["merge", "--a", str(a), "--b", str(b), "--t", "0.5", "--out", str(out)]) == 0
    merged = tio.read_checkpoint(out)
    assert set(merged.tensors) == {"w", "v"}
    assert merged.metadata["merge_t"] == "0.5"


def test_merge_missing_tensor_is_operational_error(tmp_path, rng):
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    _write_checkpoint(a, rng, names=("w",))
    _write_checkpoint(b, rng, names=("v",))
    code = run_cli(["merge", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "o")])
    assert code == 1


def test_quantize_command(tmp_path, rng, capsys):
    src = tmp_path / "model.safetensors"
    _write_checkpoint(src, rng)
    out = tmp_path / "model-fp8.safetensors"
    assert run_cli(
        ["quantize", "--in", str(src), "--out", str(out), "--skip", "v"]
    ) == 0
    printed = capsys.readouterr().out
    assert "amax=" in printed and "scale=" in printed
    quantized = tio.read_checkpoint(out)
    assert quantized.tensors["w"].dtype is DType.F8_E4M3
    assert quantized.tensors["v"].dtype is DType.F32
    assert "w.scale" in quantized.tensors


def test_quantize_logs_how_many_tensors_it_quantized(tmp_path, rng, capsys):
    src = tmp_path / "model.safetensors"
    _write_checkpoint(src, rng, names=("w", "v", "u"))
    out = tmp_path / "model-fp8.safetensors"
    assert run_cli(["quantize", "--in", str(src), "--out", str(out), "--skip", "v"]) == 0
    assert logged(capsys, "INFO") == [f"quantized 2 of 3 tensors -> {out}"]


def test_quantize_failure_in_a_late_tensor_leaves_no_output(tmp_path, rng):
    src = tmp_path / "model.safetensors"
    tensors = {
        name: tensor_from_f64(rng.normal(size=16), DType.F32, (16,)) for name in ("a", "b")
    }
    tensors["z"] = tensor_from_f64(np.array([1.0, np.inf]), DType.F32, (2,))
    tio.write_checkpoint(Checkpoint(tensors=tensors), src)
    out = tmp_path / "model-fp8.safetensors"
    assert run_cli(["quantize", "--in", str(src), "--out", str(out)]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["model.safetensors"]


def test_quantize_names_the_tensor_that_is_not_finite(tmp_path, rng, capsys):
    src = tmp_path / "model.safetensors"
    bad = rng.normal(size=16)
    bad[5] = np.nan
    tensors = {
        "layer.6.w": tensor_from_f64(rng.normal(size=16), DType.BF16, (16,)),
        "layer.7.w": tensor_from_f64(bad, DType.BF16, (16,)),
    }
    tio.write_checkpoint(Checkpoint(tensors=tensors), src)
    out = tmp_path / "model-fp8.safetensors"
    assert run_cli(["quantize", "--in", str(src), "--out", str(out)]) == 1
    [message] = logged(capsys)
    assert "'layer.7.w': scale computation requires finite values" in message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.safetensors"]


@pytest.mark.parametrize("dtype", [DType.F32, DType.BF16], ids=lambda d: d.value)
def test_merge_that_overflows_its_output_dtype_names_the_tensor_and_writes_nothing(
        tmp_path, rng, capsys, dtype):
    # Near-orthogonal vectors: at t=0.5 the first element is 0.707 * 6e38.
    a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    tio.write_checkpoint(Checkpoint(tensors={
        "ok": tensor_from_f64(rng.normal(size=4), dtype, (4,)),
        "w": tensor_from_f64(np.array([3e38, 3e38, 1.0]), dtype, (3,))}), a)
    tio.write_checkpoint(Checkpoint(tensors={
        "ok": tensor_from_f64(rng.normal(size=4), dtype, (4,)),
        "w": tensor_from_f64(np.array([3e38, -3e38, 2.0]), dtype, (3,))}), b)
    out = tmp_path / "merged.safetensors"
    assert run_cli(["merge", "--a", str(a), "--b", str(b), "--out", str(out), "--t", "0.5"]) == 1
    [message] = logged(capsys)
    assert "'w': 4.2" in message and f"is finite but overflows {dtype.value}" in message
    assert sorted(p.name for p in tmp_path.iterdir()) == [a.name, b.name]


@pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -2.0])
def test_a_scale_that_is_not_finite_and_positive_names_its_companion_and_writes_nothing(
        tmp_path, capsys, scale):
    codes = tio.Tensor(DType.F8_E4M3, (4,), bytes([0x38, 0x40, 0x30, 0x38]))
    quantized = Checkpoint(tensors={
        "w": codes, "w.scale": tio.Tensor(DType.F32, (), np.float32(scale).tobytes())})
    original = Checkpoint(tensors={"w": tensor_from_f64(np.arange(1.0, 5.0), DType.F32, (4,))})
    a, b, c = (tmp_path / f"{n}.safetensors" for n in "abc")
    tio.write_checkpoint(quantized, a)
    tio.write_checkpoint(original, b)
    tio.write_checkpoint(Checkpoint(tensors={"v": original.tensors["w"]}), c)
    out = tmp_path / "merged.safetensors"
    for other, missing in ((b, "error"), (c, "copy")):
        assert run_cli(["merge", "--a", str(a), "--b", str(other), "--on-missing", missing,
                        "--out", str(out)]) == 1
        [message] = logged(capsys)
        assert "'w.scale' holds" in message
    assert sorted(p.name for p in tmp_path.iterdir()) == [a.name, b.name, c.name]
    with pytest.raises(quant.BadScale, match="'w.scale' holds"):
        quant.validate_quantization(original, quantized, quant.QuantPolicy())


def test_merge_to_f16_saturates(tmp_path):
    a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    tio.write_checkpoint(Checkpoint(tensors={
        "w": tensor_from_f64(np.array([6e4, 6e4, 1.0]), DType.F16, (3,))}), a)
    tio.write_checkpoint(Checkpoint(tensors={
        "w": tensor_from_f64(np.array([6e4, -6e4, 2.0]), DType.F16, (3,))}), b)
    out = tmp_path / "merged.safetensors"
    assert run_cli(["merge", "--a", str(a), "--b", str(b), "--out", str(out), "--t", "0.5"]) == 0
    assert tio.tensor_as_f64(tio.read_checkpoint(out).tensors["w"])[0] == 65504.0


def test_quantize_in_place_matches_a_separate_output(tmp_path, rng, capsys):
    src = tmp_path / "model.safetensors"
    _write_checkpoint(src, rng)
    out = tmp_path / "model-fp8.safetensors"
    assert run_cli(["quantize", "--in", str(src), "--out", str(out)]) == 0
    audit = capsys.readouterr().out
    assert run_cli(["quantize", "--in", str(src), "--out", str(src)]) == 0
    assert capsys.readouterr().out == audit
    assert src.read_bytes() == out.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, src.name]


def test_a_tensor_too_small_for_a_float32_scale_quantizes_merges_and_validates(
        tmp_path, capsys):
    # amax / 448 rounds to 0 in float32 below 448 * 2**-150; the scale is then
    # the least positive float32, 2**-149, and the audit prints that scale.
    original = Checkpoint(tensors={
        "tiny": tensor_from_f64(np.array([1e-44, 0.0, -5e-45]), DType.F32, (3,))})
    src, out = tmp_path / "tiny.safetensors", tmp_path / "tiny-fp8.safetensors"
    tio.write_checkpoint(original, src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["quantize", "--in", str(src), "--out", str(out)]) == 0
        assert run_cli(["merge", "--a", str(out), "--b", str(out),
                        "--out", str(tmp_path / "merged.safetensors")]) == 0
        quantized = tio.read_checkpoint(out)
        (audit,) = quant.validate_quantization(original, quantized, quant.QuantPolicy())
    assert quant.read_scale(quantized, "tiny.scale") == audit.scale == 2.0**-149
    assert quantized.tensors["tiny"].data == bytes([0x4E, 0x00, 0xC8])  # 7.0, 0.0 and -4.0
    assert audit.max_rel_err == 0.0
    assert capsys.readouterr().out == "tiny amax=9.80909e-45 scale=1.4013e-45 max_rel_err=0.000e+00\n"


def test_requantizing_with_an_8bit_tensor_skipped_keeps_its_scale_as_is(tmp_path, rng, capsys):
    src, once, twice = (tmp_path / f"{n}.safetensors" for n in ("model", "once", "twice"))
    _write_checkpoint(src, rng)
    assert run_cli(["quantize", "--in", str(src), "--out", str(once), "--skip", "v"]) == 0
    capsys.readouterr()
    assert run_cli(["quantize", "--in", str(once), "--out", str(twice), "--skip", "w"]) == 0
    assert sorted(capsys.readouterr().out.splitlines())[1:] == ["w skipped", "w.scale skipped"]
    first, second = tio.read_checkpoint(once), tio.read_checkpoint(twice)
    assert set(second.tensors) == {"w", "w.scale", "v", "v.scale"}
    assert all(second.tensors[n] == first.tensors[n] for n in ("w", "w.scale"))
    assert second.tensors["v"].dtype is DType.F8_E4M3
    audits = quant.validate_quantization(first, second, quant.QuantPolicy(skip_patterns=("w",)))
    assert [a.skipped for a in audits] == [name != "v" for name in first.tensors]
    assert run_cli(["merge", "--a", str(twice), "--b", str(twice),
                    "--out", str(tmp_path / "merged.safetensors")]) == 0


def test_score_identical_files(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    text = "one two three four five\nsix seven eight nine ten\n"
    hyp.write_text(text, encoding="utf-8")
    ref.write_text(text, encoding="utf-8")
    report_path = tmp_path / "scores.json"
    code = run_cli(
        ["score", "--hyp", str(hyp), "--ref", str(ref), "--report", str(report_path)]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line == "BLEU 100.0 ROUGE-L 100.0 chrF++ 100.0 n=2"
    payload = json.loads(report_path.read_text())
    assert payload["bleu"] == 100.0


def test_score_all_report_is_the_metric_report_as_sorted_json(tmp_path):
    hyps = ["the cat sat on the mat", "a quick brown fox", "ein Satz hier"]
    refs = ["the cat sat on a mat", "the quick brown fox jumps", "ein anderer Satz"]
    hyp, ref, report_path = tmp_path / "hyp.txt", tmp_path / "ref.txt", tmp_path / "all.json"
    hyp.write_text("".join(f"{h}\n" for h in hyps), encoding="utf-8")
    ref.write_text("".join(f"{r}\n" for r in refs), encoding="utf-8")
    assert run_cli(["score", "--hyp", str(hyp), "--ref", str(ref), "--metric", "all",
                    "--report", str(report_path)]) == 0
    report = metrics.evaluate_pairs(zip(hyps, refs))
    want = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
    assert report_path.read_text(encoding="utf-8") == want


def test_score_single_metric(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c\n", encoding="utf-8")
    ref.write_text("a b c\n", encoding="utf-8")
    assert run_cli(["score", "--hyp", str(hyp), "--ref", str(ref), "--metric", "rouge"]) == 0
    assert capsys.readouterr().out.strip() == "ROUGE-L 100.0 n=1"


def test_score_length_mismatch_exit_one(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a\n", encoding="utf-8")
    ref.write_text("a\nb\n", encoding="utf-8")
    assert run_cli(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 1


def test_tokenize_command(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("3.5 apples, now.\n", encoding="utf-8")
    assert run_cli(["tokenize", "--in", str(src)]) == 0
    assert capsys.readouterr().out == "3.5 apples , now .\n"


@pytest.mark.parametrize("io_encoding", [None, "utf-8:strict"])
def test_tokenize_stdin_is_strict_utf8_whatever_the_locale(tmp_path, io_encoding):
    env = dict(os.environ)
    env.pop("PYTHONIOENCODING", None)
    if io_encoding:
        env["PYTHONIOENCODING"] = io_encoding
    command = [sys.executable, "-m", "mtpipe.cli", "tokenize"]
    proc = subprocess.run(command, input=b"3.5 apples, now.\n", capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"3.5 apples , now .\n"

    proc = subprocess.run(command, input=b"abc\xff", capture_output=True, env=env)
    assert proc.returncode == 1
    assert b"<stdin> line 1: not UTF-8 at byte 3" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("args, code, stderr", [
    (["quantize", "--in", "a.safetensors", "--out", "q.safetensors"], 0,
     b"INFO mtpipe: quantized 2 of 2 tensors -> q.safetensors\n"),
    (["mix", "--source", "bad", "--out", "m.jsonl"], 2,
     b"ERROR mtpipe: --source must be NAME=PATH=COUNT, got 'bad'\n"),
    (["quantize", "--in", "missing", "--out", "q.safetensors"], 1,
     b"ERROR mtpipe: cannot read missing: [Errno 2] No such file or directory: 'missing'\n")],
    ids=["quantize", "usage-error", "missing-input"])
def test_a_closed_or_full_stderr_changes_no_exit_code_or_stdout(tmp_path, rng, args, code, stderr):
    _write_checkpoint(tmp_path / "a.safetensors", rng)
    command = [sys.executable, "-m", "mtpipe.cli", *args]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    piped = subprocess.run(command, capture_output=True, cwd=tmp_path, env=env)
    assert (piped.returncode, piped.stderr) == (code, stderr)
    for redirect in ("2>&-", "2>/dev/full"):  # stderr closed, then stderr full
        proc = subprocess.run(["sh", "-c", f'"$@" {redirect}', "sh", *command],
                              stdout=subprocess.PIPE, cwd=tmp_path, env=env)
        assert (proc.returncode, proc.stdout) == (code, piped.stdout), redirect


def test_filter_code_command(tmp_path, capsys):
    src = tmp_path / "records.jsonl"
    pipeline.write_records(
        src,
        [
            {"id": "0", "instruction": "prose", "response": "more prose"},
            {"id": "1", "instruction": "code", "response": "```python\nx\n```"},
        ],
    )
    out = tmp_path / "kept.jsonl"
    assert run_cli(["filter-code", "--in", str(src), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "kept=1 dropped=1"
    assert [r["id"] for r in pipeline.read_records(out)] == ["0"]


def test_pair_command_and_idempotency(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    pipeline.write_records(
        records,
        [{"id": str(i), "instruction": f"ask {i}", "response": f"ans {i}"} for i in range(3)],
    )
    (tmp_path / "instr.txt").write_text("أ0\nأ1\nأ2\n", encoding="utf-8")
    (tmp_path / "resp.txt").write_text("ب0\nب1\nب2\n", encoding="utf-8")
    out = tmp_path / "tuples.jsonl"
    state = tmp_path / "pair.state"
    args = [
        "pair", "--records", str(records), "--instr-ar", str(tmp_path / "instr.txt"),
        "--resp-ar", str(tmp_path / "resp.txt"), "--out", str(out), "--state", str(state),
    ]
    assert run_cli(args) == 0
    first = out.read_bytes()
    rows = list(pipeline.read_records(out))
    assert rows[0]["instr_en"] == "ask 0" and rows[0]["instr_ar"] == "أ0"
    # Second invocation after success is a no-op with exit 0.
    assert run_cli(args) == 0
    assert out.read_bytes() == first


def test_mix_command(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    pipeline.write_records(a, [{"en": "x", "ar": "y"}] * 4)
    out = tmp_path / "mix.jsonl"
    manifest = tmp_path / "manifest.json"
    code = run_cli(
        ["mix", "--source", f"alpha={a}=4", "--out", str(out), "--manifest", str(manifest)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "total=4"
    assert json.loads(manifest.read_text())["total"] == 4


@pytest.mark.parametrize("rerun", ["deleted", "new-path"])
def test_mix_rerun_with_state_writes_a_manifest_that_does_not_exist(tmp_path, capsys, rerun):
    src = tmp_path / "a.jsonl"
    pipeline.write_records(src, [{"en": "x", "ar": "y"}] * 2)
    args = ["mix", "--source", f"alpha={src}=2", "--out", str(tmp_path / "m.jsonl"),
            "--state", str(tmp_path / "ms")]
    first = tmp_path / "man1.json"
    assert run_cli(args + ["--manifest", str(first)]) == 0
    written = first.read_text(encoding="utf-8")
    if rerun == "deleted":
        first.unlink()
        manifest = first
    else:
        manifest = tmp_path / "man2.json"
    capsys.readouterr()

    assert run_cli(args + ["--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out.strip() == "total=2"
    assert manifest.read_text(encoding="utf-8") == written
    # With every output in place, the run is done.
    assert run_cli(args + ["--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out == ""


def test_mix_count_mismatch_exit_one(tmp_path):
    a = tmp_path / "a.jsonl"
    pipeline.write_records(a, [{"en": "x"}] * 3)
    assert run_cli(["mix", "--source", f"alpha={a}=5", "--out", str(tmp_path / "o")]) == 1


def test_mix_source_name_that_is_not_utf8_exits_two_and_keeps_the_output(tmp_path, capsys):
    # Python decodes the argv byte 0xff to the lone surrogate U+DCFF.
    a = tmp_path / "a.jsonl"
    pipeline.write_records(a, [{"en": "x"}])
    out = tmp_path / "o.jsonl"
    out.write_text("old\n", encoding="utf-8")
    assert run_cli(["mix", "--source", f"\udcff={a}=1", "--out", str(out)]) == 2
    assert logged(capsys) == ["--source name '\\udcff' is not UTF-8"]
    assert out.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "o.jsonl"]


def test_judge_command_with_stub_and_idempotency(tmp_path, capsys):
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(
        pairs_path,
        [{"ar": f"نص {i}", "en": f"text {i}"} for i in range(6)],
    )
    accepted_path = tmp_path / "accepted.jsonl"
    stats_path = tmp_path / "stats.json"
    state = tmp_path / "judge.state"

    def behavior(prompt, nth):
        # Accept pairs with an even trailing index.
        last = prompt.rsplit("text ", 1)[1].split("\n", 1)[0]
        return ("ok", "accept" if int(last) % 2 == 0 else "reject")

    with StubEndpoint(behavior) as stub:
        args = [
            "judge", "--in", str(pairs_path), "--accepted", str(accepted_path),
            "--stats", str(stats_path), "--state", str(state),
            "--base-url", stub.base_url, "--model", "judge-model",
            "--concurrency", "2", "--max-retries", "0",
        ]
        assert run_cli(args) == 0
        out_line = capsys.readouterr().out.strip()
        assert "candidates=6 accepted=3 rejected=3 unparseable=0" in out_line
        assert "rate=50.00%" in out_line
        first_bytes = accepted_path.read_bytes()
        requests_after_first = len(stub.requests)

        # Re-invocation after success re-sends nothing and rewrites the same bytes.
        assert run_cli(args) == 0
        assert len(stub.requests) == requests_after_first
        assert accepted_path.read_bytes() == first_bytes

    stats = json.loads(stats_path.read_text())
    assert stats["accepted"] == 3 and stats["candidates"] == 6


def test_translate_corpus_command(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    pipeline.write_records(
        records,
        [{"id": str(i), "instruction": f"ask {i}", "response": f"ans {i}", "source": "unit"}
         for i in range(3)],
    )
    out = tmp_path / "tuples.jsonl"
    state = tmp_path / "tr.state"

    def behavior(prompt, nth):
        english = prompt.rsplit(": ", 1)[1]
        return ("ok", f"عربي<{english}>")

    with StubEndpoint(behavior) as stub:
        code = run_cli(
            [
                "translate-corpus", "--in", str(records), "--out", str(out),
                "--template", "teacher", "--state", str(state),
                "--base-url", stub.base_url, "--model", "m", "--concurrency", "3",
            ]
        )
        assert code == 0
    rows = list(pipeline.read_records(out))
    assert rows[1]["instr_ar"] == "عربي<ask 1>"
    assert rows[2]["resp_ar"] == "عربي<ans 2>"
    assert all(r["source"] == "unit" for r in rows)


def test_translate_corpus_empty_response_names_its_record(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    pipeline.write_records(records, [{"id": "r0", "instruction": "ask", "response": "ans"},
                                     {"id": "r1", "instruction": "ask", "response": ""}])
    state = tmp_path / "tr.state"
    code = run_cli(["translate-corpus", "--in", str(records), "--out", str(tmp_path / "t.jsonl"),
                    "--state", str(state), "--base-url", "http://127.0.0.1:1", "--model", "m"])
    assert code == 1
    [message] = logged(capsys)
    assert "record 'r1': cannot render a prompt for empty text" in message
    assert not state.exists()


def test_malformed_proxy_variable_is_one_line_error(tmp_path, monkeypatch, capsys):
    for name in ("http_proxy", "NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://proxy:port")
    records = tmp_path / "records.jsonl"
    pipeline.write_records(records, [{"instruction": "ask", "response": "ans"}])
    out = tmp_path / "tuples.jsonl"
    code = run_cli([
        "translate-corpus", "--in", str(records), "--out", str(out), "--template", "teacher",
        "--state", str(tmp_path / "tr.state"), "--base-url", "http://127.0.0.1:9", "--model", "m",
    ])
    assert code == 1
    [message] = logged(capsys)
    assert "http proxy setting 'http://proxy:port'" in message
    assert not out.exists()


def test_sample_eval_and_report(tmp_path, capsys):
    en = tmp_path / "en.jsonl"
    ar = tmp_path / "ar.jsonl"
    pipeline.write_records(
        en,
        [{"subject": "math", "item_id": str(i), "text": f"what is {i} plus {i} now"}
         for i in range(40)],
    )
    pipeline.write_records(
        ar,
        [{"subject": "math", "item_id": str(i), "text": f"كم يساوي {i} زائد {i} الآن"}
         for i in range(40)],
    )
    out_dir = tmp_path / "eval"
    assert run_cli(
        ["sample-eval", "--en", str(en), "--ar", str(ar), "--n", "10", "--seed", "7",
         "--out", str(out_dir)]
    ) == 0
    assert capsys.readouterr().out.strip() == "sampled=10 aligned=10 misses=0"

    pairs_rows = list(pipeline.read_records(out_dir / "pairs.jsonl"))
    outputs_path = tmp_path / "outputs.txt"
    outputs_path.write_text(
        "".join(row["reference"] + "\n" for row in pairs_rows), encoding="utf-8"
    )
    report_path = tmp_path / "report.json"
    assert run_cli(
        ["report", "--pairs", str(out_dir / "pairs.jsonl"), "--outputs", str(outputs_path),
         "--name", "oracle-system", "--out", str(report_path)]
    ) == 0
    assert capsys.readouterr().out.strip() == "oracle-system 100.0 100.0 100.0"
    assert json.loads(report_path.read_text())["n_pairs"] == 10


def test_sample_eval_deterministic_across_processes(tmp_path):
    en = tmp_path / "en.jsonl"
    ar = tmp_path / "ar.jsonl"
    pipeline.write_records(
        en, [{"subject": "s", "item_id": str(i), "text": f"q {i}"} for i in range(100)]
    )
    pipeline.write_records(
        ar, [{"subject": "s", "item_id": str(i), "text": f"a {i}"} for i in range(100)]
    )
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "mtpipe.cli", "sample-eval", "--en", str(en),
             "--ar", str(ar), "--n", "30", "--seed", "7", "--out", str(out_dir)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "sample.jsonl").read_bytes())
    assert outputs[0] == outputs[1]


_WORDS = ("كتاب", "قلم", "مدرسة", "بيت", "شجرة", "نهر", "the", "river", "book", "3.5", "-", ",")


def _scoring_inputs(tmp_path: Path, n_pairs: int) -> tuple[Path, Path, Path]:
    """pairs.jsonl, outputs.txt and references.txt of ``n_pairs`` generated
    pairs, about 128 characters a pair."""
    rng = np.random.default_rng(n_pairs)
    refs, outs = [], []
    for _ in range(n_pairs):
        ref = [_WORDS[i] for i in rng.integers(0, len(_WORDS), int(rng.integers(5, 30)))]
        refs.append(" ".join(ref))
        outs.append(" ".join(w for w in ref if rng.random() < 0.8) or "x")
    pairs = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs, ({"subject": "s", "item_id": str(i), "text": "q",
                                    "reference": r} for i, r in enumerate(refs)))
    outputs = tmp_path / "outputs.txt"
    outputs.write_text("".join(o + "\n" for o in outs), encoding="utf-8")
    references = tmp_path / "references.txt"
    references.write_text("".join(r + "\n" for r in refs), encoding="utf-8")
    return pairs, outputs, references


def test_sharded_scoring_writes_the_same_bytes_as_one_process(tmp_path, monkeypatch, capsys):
    pairs, outputs, references = _scoring_inputs(tmp_path, 900)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    written = {}
    for cpus in (2, 1):
        monkeypatch.setattr(shards, "_cpus", lambda: cpus)
        runs = {
            "report": ["report", "--pairs", str(pairs), "--outputs", str(outputs),
                       "--name", "sys", "--out"],
            "all": ["score", "--hyp", str(outputs), "--ref", str(references),
                    "--metric", "all", "--report"],
            "chrf": ["score", "--hyp", str(outputs), "--ref", str(references),
                     "--metric", "chrf", "--report"],
        }
        for name, args in runs.items():
            out = tmp_path / f"{name}-{cpus}.json"
            assert run_cli([*args, str(out)]) == 0
            written[name, cpus] = (out.read_bytes(), capsys.readouterr().out)
        if cpus == 2:
            assert len(forks) == 3 + 3 + 1  # one child per metric call
    assert len(forks) == 7
    for name in ("report", "all", "chrf"):
        assert written[name, 2] == written[name, 1]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="scoring forks only with two usable CPUs")
@pytest.mark.skipif(not Path(f"/proc/self/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<tid>/children to see the scoring child")
@pytest.mark.parametrize("target", ["caller", "group"])
def test_interrupted_report_leaves_no_process_behind(tmp_path, target):
    pairs, outputs, _ = _scoring_inputs(tmp_path, 6000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mtpipe.cli", "report", "--pairs", str(pairs),
         "--outputs", str(outputs), "--name", "sys"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    pgid = proc.pid
    try:
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 30
        while not children.read_text().strip():  # wait for a scoring child
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        if target == "caller":
            os.kill(proc.pid, signal.SIGINT)
        else:
            os.killpg(pgid, signal.SIGINT)
        proc.wait(timeout=5)
    finally:
        if proc.poll() is None:
            os.killpg(pgid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


def test_config_file_supplies_endpoint(tmp_path, capsys):
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs_path, [{"ar": "أ", "en": "a"}])
    with StubEndpoint(lambda p, n: ("ok", "accept")) as stub:
        config = tmp_path / "run.cfg"
        config.write_text(
            f"base_url={stub.base_url}\nmodel=cfg-model\nconcurrency=1\n# comment\n",
            encoding="utf-8",
        )
        code = run_cli(
            ["--config", str(config), "judge", "--in", str(pairs_path),
             "--accepted", str(tmp_path / "acc.jsonl"), "--state", str(tmp_path / "s")]
        )
        assert code == 0
        assert "accepted=1" in capsys.readouterr().out


def test_config_file_unknown_key_rejected(tmp_path):
    # Like an unknown flag, an unknown key or a line without "=" is a usage error.
    config = tmp_path / "run.cfg"
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs_path, [{"ar": "أ", "en": "a"}])
    for line in ("nonsense=1", "model"):
        config.write_text(line + "\n", encoding="utf-8")
        code = run_cli(
            ["--config", str(config), "judge", "--in", str(pairs_path),
             "--accepted", str(tmp_path / "a"), "--state", str(tmp_path / "s"),
             "--base-url", "http://127.0.0.1:1", "--model", "m"]
        )
        assert code == 2, line
        assert not (tmp_path / "a").exists()


def _code_records(path: Path) -> None:
    pipeline.write_records(
        path,
        [
            {"id": "0", "instruction": "prose", "response": "more prose"},
            {"id": "1", "instruction": "code", "response": "```python\nx\n```"},
        ],
    )


def _local_step_args(tmp_path: Path, command: str) -> list[str]:
    src = tmp_path / "records.jsonl"
    _code_records(src)
    out = str(tmp_path / "out.jsonl")
    if command == "filter-code":
        return ["filter-code", "--in", str(src), "--out", out]
    return ["mix", "--source", f"alpha={src}=2", "--out", out]


@pytest.mark.parametrize("command", ["filter-code", "mix"])
def test_local_step_rerun_with_state_is_a_no_op(tmp_path, capsys, command):
    state = tmp_path / "step.state"
    args = _local_step_args(tmp_path, command) + ["--state", str(state)]
    out = tmp_path / "out.jsonl"
    assert run_cli(args) == 0
    assert capsys.readouterr().out.strip()
    first = out.read_bytes()
    assert Path(str(state) + ".journal").exists()

    assert run_cli(args) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == first


@pytest.mark.parametrize("command", ["filter-code", "mix"])
def test_local_step_state_of_another_run_exits_one(tmp_path, capsys, command):
    state = tmp_path / "step.state"
    args = _local_step_args(tmp_path, command) + ["--state", str(state)]
    assert run_cli(args) == 0
    other = ["--min-code-lines", "5"] if command == "filter-code" else ["--shuffle"]
    assert run_cli(args + other) == 1
    [message] = logged(capsys)
    assert "created for a different run" in message


def test_local_step_whose_state_file_was_deleted_does_not_take_the_old_journal(tmp_path, capsys):
    state = tmp_path / "step.state"
    journal = Path(str(state) + ".journal")
    args = _local_step_args(tmp_path, "filter-code") + ["--state", str(state)]
    assert run_cli(args) == 0
    out = tmp_path / "out.jsonl"
    first, recorded = out.read_bytes(), journal.read_bytes()
    capsys.readouterr()

    state.unlink()
    pipeline.write_records(tmp_path / "records.jsonl", [{"instruction": "new", "response": "x"}])
    assert run_cli(args) == 1
    [message] = logged(capsys)
    assert str(journal) in message and str(state) in message
    assert out.read_bytes() == first and journal.read_bytes() == recorded
    assert not state.exists()


def test_local_step_upgrades_an_old_done_marker(tmp_path, capsys):
    state = tmp_path / "step.state"
    args = _local_step_args(tmp_path, "filter-code") + ["--state", str(state)]
    assert run_cli(args) == 0
    fingerprint = json.loads(state.read_text())["fingerprint"]
    capsys.readouterr()

    # The marker older releases wrote for local commands.
    state.write_text(json.dumps({"fingerprint": fingerprint, "done": True}))
    Path(str(state) + ".journal").unlink()
    assert run_cli(args) == 0
    assert capsys.readouterr().out.strip() == "kept=1 dropped=1"
    meta = json.loads(state.read_text())
    assert meta["fingerprint"] == fingerprint and "done" not in meta
    assert meta["completed"] == 1

    assert run_cli(args) == 0
    assert capsys.readouterr().out == ""


def test_local_step_fingerprint_is_sha256_of_length_framed_parts(tmp_path):
    # The golden manifest leaves state files out, so this pins their fingerprint:
    # the input's sha256 hex, then each part as an 8-byte little-endian length
    # and its UTF-8 bytes, all under one sha256.
    state = tmp_path / "step.state"
    assert run_cli(_local_step_args(tmp_path, "filter-code") + ["--state", str(state)]) == 0
    digest = hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest()
    parts = ["filter-code", digest, "3", "0.3", str(tmp_path / "out.jsonl")]
    framed = b"".join(len(b).to_bytes(8, "little") + b for b in (p.encode() for p in parts))
    assert json.loads(state.read_text())["fingerprint"] == hashlib.sha256(framed).hexdigest()


@pytest.mark.parametrize("with_state, digests", [(False, 0), (True, 1)])
def test_local_step_hashes_its_input_only_under_state(tmp_path, monkeypatch, with_state, digests):
    hashed = []
    file_digest = cli.state._file_digest
    monkeypatch.setattr(cli.state, "_file_digest",
                        lambda path: hashed.append(path) or file_digest(path))
    args = _local_step_args(tmp_path, "filter-code")
    if with_state:
        args += ["--state", str(tmp_path / "step.state")]
    assert run_cli(args) == 0
    assert len(hashed) == digests


def test_config_with_only_endpoint_address_keeps_config_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("MTPIPE_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    config = tmp_path / "run.cfg"
    config.write_text("base_url=http://127.0.0.1:1\nmodel=m\n", encoding="utf-8")
    args = cli.build_parser().parse_args(
        ["--config", str(config), "judge", "--in", "p", "--accepted", "a", "--state", "s"]
    )
    cfg, concurrency = cli._endpoint_from(args)
    assert cfg == EndpointConfig(base_url="http://127.0.0.1:1", model_name="m")
    assert concurrency == 4


def test_config_value_of_the_wrong_type_exits_two(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("base_url=http://127.0.0.1:1\nmodel=m\ntimeout=soon\n", encoding="utf-8")
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs_path, [{"ar": "أ", "en": "a"}])
    code = run_cli(
        ["--config", str(config), "judge", "--in", str(pairs_path),
         "--accepted", str(tmp_path / "a"), "--state", str(tmp_path / "s")]
    )
    assert code == 2
    [message] = logged(capsys)
    assert f"{config} line 3: timeout" in message


@pytest.mark.parametrize(
    "flags",
    [["--timeout", "0"], ["--backoff-base", "0"], ["--max-retries", "-1"],
     ["--concurrency", "0"], ["--base-url", "localhost:8000"], ["--temperature", "nan"],
     ["--base-url", "http://h:99999"], ["--base-url", "http://h:abc"], ["--timeout", "nan"],
     ["--backoff-base", "nan"], ["--timeout", "inf"], ["--timeout", "1e10"],
     ["--backoff-base", "inf"], ["--max-tokens", "0"], ["--max-tokens", "-5"],
     ["--base-url", "http://h:1/a b"], ["--base-url", "http://bücher.example:1"]],
    ids=["timeout", "backoff-base", "max-retries", "concurrency", "base-url", "temperature",
         "base-url-port-range", "base-url-port-text", "timeout-nan", "backoff-base-nan",
         "timeout-inf", "timeout-past-max", "backoff-base-inf", "max-tokens-zero",
         "max-tokens-negative", "base-url-space", "base-url-non-ascii"],
)
def test_invalid_endpoint_flag_exits_two(tmp_path, capsys, flags):
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs_path, [{"ar": "أ", "en": "a"}])
    code = run_cli(
        ["judge", "--in", str(pairs_path), "--accepted", str(tmp_path / "a"),
         "--state", str(tmp_path / "s"), "--base-url", "http://127.0.0.1:1",
         "--model", "m", *flags]
    )
    assert code == 2
    [message] = logged(capsys)
    assert flags[0].lstrip("-").replace("-", "_") in message
    assert "Traceback" not in message
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command, out", [("translate-corpus", "--out"), ("judge", "--accepted")],
                         ids=["translate-corpus", "judge"])
def test_a_bad_endpoint_flag_is_a_usage_error_before_the_input_is_read(tmp_path, capsys,
                                                                        command, out):
    code = run_cli(
        [command, "--in", str(tmp_path / "missing.jsonl"), out, str(tmp_path / "o"),
         "--state", str(tmp_path / "s"), "--base-url", "http://127.0.0.1:1", "--model", "m",
         "--timeout", "0"]
    )
    assert code == 2
    [message] = logged(capsys)
    assert "timeout" in message
    assert "No such file" not in message
    assert not (tmp_path / "s").exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("host", ["a..b", ".a", "x" * 64 + ".example"],
                         ids=["empty-label", "leading-dot", "64-byte-label"])
@pytest.mark.parametrize("command, out", [("translate-corpus", "--out"), ("judge", "--accepted")],
                         ids=["translate-corpus", "judge"])
def test_a_host_no_resolver_can_look_up_is_one_error_line(tmp_path, command, out, host):
    # The IDNA codec rejects these names with a UnicodeError; as bytes they
    # reach the resolver, whose OSError is an attempt that fails.
    pipeline.write_records(tmp_path / "in.jsonl", [{"instruction": "a", "response": "b",
                                                    "ar": "أ", "en": "a"}])
    proc = subprocess.run(
        [sys.executable, "-m", "mtpipe.cli", command, "--in", "in.jsonl", out, "o.jsonl",
         "--state", "s", "--base-url", f"http://{host}:1", "--model", "m", "--max-retries", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR mtpipe: gave up after 1 attempts: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "o.jsonl").exists()


def test_merge_invalid_eps_exits_two(tmp_path, rng, capsys):
    a = tmp_path / "a.safetensors"
    _write_checkpoint(a, rng)
    out = tmp_path / "o"
    code = run_cli(["merge", "--a", str(a), "--b", str(a), "--eps", "0", "--out", str(out)])
    assert code == 2
    [message] = logged(capsys)
    assert "parallel_eps must be positive" in message
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [(["merge", "--a", "a", "--b", "b", "--t", "1.5"], "t must lie in [0, 1], got 1.5"),
     (["merge", "--a", "a", "--b", "b", "--t", "nan"], "t must lie in [0, 1], got nan"),
     (["mix", "--source", "nonsense"], "--source must be NAME=PATH=COUNT, got 'nonsense'"),
     (["mix", "--source", "s=p.jsonl=-1"], "--source must be NAME=PATH=COUNT, got 's=p.jsonl=-1'")],
    ids=["merge-t-above-one", "merge-t-nan", "mix-source", "mix-negative-count"],
)
def test_rejected_flag_exits_two_and_writes_nothing(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli([*args, "--out", "o"]) == 2
    assert logged(capsys) == [message]
    assert list(tmp_path.iterdir()) == []


def _eval_inputs(tmp_path: Path, drop: str | None = None) -> tuple[Path, Path]:
    en, ar = tmp_path / "en.jsonl", tmp_path / "ar.jsonl"
    rows = [{"subject": "s", "item_id": str(i), "text": f"q {i}"} for i in range(5)]
    if drop == "en":
        del rows[2]["text"]
    pipeline.write_records(en, rows)
    pipeline.write_records(ar, [{**r, "text": f"a {i}"} for i, r in enumerate(rows)])
    return en, ar


def test_sample_eval_missing_field_is_malformed_line(tmp_path, capsys):
    en, ar = _eval_inputs(tmp_path, drop="en")
    code = run_cli(["sample-eval", "--en", str(en), "--ar", str(ar), "--n", "2",
                    "--seed", "1", "--out", str(tmp_path / "ev")])
    assert code == 1
    [message] = logged(capsys)
    assert f"{en} line 3: missing field 'text'" in message


def test_report_missing_field_is_malformed_line(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pipeline.write_records(
        pairs, [{"subject": "s", "item_id": "0", "reference": "r"}]
    )
    outputs = tmp_path / "outputs.txt"
    outputs.write_text("r\n", encoding="utf-8")
    code = run_cli(["report", "--pairs", str(pairs), "--outputs", str(outputs),
                    "--name", "x"])
    assert code == 1
    [message] = logged(capsys)
    assert f"{pairs} line 1: missing field 'text'" in message


def test_sample_eval_negative_n_exits_one(tmp_path, capsys):
    en, ar = _eval_inputs(tmp_path)
    code = run_cli(["sample-eval", "--en", str(en), "--ar", str(ar), "--n", "-1",
                    "--seed", "1", "--out", str(tmp_path / "ev")])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_segments_split_only_at_newline(tmp_path, capsys):
    # U+2028, U+0085, \x0b, \x0c and \x1c-\x1e are line breaks to
    # str.splitlines() but not to these files; CRLF reads like LF.
    en, ar = _eval_inputs(tmp_path)
    out_dir = tmp_path / "ev"
    assert run_cli(["sample-eval", "--en", str(en), "--ar", str(ar), "--n", "2",
                    "--seed", "1", "--out", str(out_dir)]) == 0
    outputs = tmp_path / "outputs.txt"
    outputs.write_text("مرحبا بكم\r\na\x0bb\x0cc\x1cd\x1de\x1ef\n", encoding="utf-8",
                       newline="")
    capsys.readouterr()
    assert run_cli(["report", "--pairs", str(out_dir / "pairs.jsonl"),
                    "--outputs", str(outputs), "--name", "x"]) == 0

    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_bytes("a\u0085b c\r\nd e\n".encode("utf-8"))
    ref.write_bytes(b"a b c\nd e")
    assert run_cli(["score", "--hyp", str(hyp), "--ref", str(ref), "--metric", "chrf"]) == 0
    assert capsys.readouterr().out.strip().endswith("n=2")


def test_report_non_utf8_pairs_is_malformed_line(tmp_path, capsys):
    en, ar = _eval_inputs(tmp_path)
    out_dir = tmp_path / "ev"
    assert run_cli(["sample-eval", "--en", str(en), "--ar", str(ar), "--n", "2",
                    "--seed", "1", "--out", str(out_dir)]) == 0
    pairs = out_dir / "pairs.jsonl"
    lines = pairs.read_bytes().splitlines(keepends=True)
    pairs.write_bytes(lines[0] + lines[1].replace(b'"s"', b'"\xff"'))
    outputs = tmp_path / "outputs.txt"
    outputs.write_text("a\nb\n", encoding="utf-8")
    code = run_cli(["report", "--pairs", str(pairs), "--outputs", str(outputs), "--name", "x"])
    assert code == 1
    [message] = logged(capsys)
    assert f"{pairs} line 2: not UTF-8" in message
    assert "Traceback" not in message


@pytest.mark.parametrize("command", ["score --hyp", "tokenize --in", "tokenize stdin",
                                     "pair --instr-ar", "report --outputs", "--config",
                                     "filter-code --in"])
def test_a_non_utf8_line_is_one_error_naming_its_file_and_line(
    tmp_path, monkeypatch, capsys, command
):
    # Every text and JSON-lines input is read by one rule, so each names line 2.
    bad, good, out = tmp_path / "bad.txt", tmp_path / "good.txt", tmp_path / "out"
    bad.write_bytes(b"a b\n\xff c\n")
    good.write_text("a b\nc\n", encoding="utf-8")
    label = str(bad)
    if command == "score --hyp":
        argv = ["score", "--hyp", str(bad), "--ref", str(good), "--report", str(out)]
    elif command == "tokenize --in":
        argv = ["tokenize", "--in", str(bad), "--out", str(out)]
    elif command == "tokenize stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
        argv, label = ["tokenize", "--out", str(out)], "<stdin>"
    elif command == "pair --instr-ar":
        records = tmp_path / "records.jsonl"
        pipeline.write_records(records, [{"instruction": "a", "response": "b"}] * 2)
        argv = ["pair", "--records", str(records), "--instr-ar", str(bad),
                "--resp-ar", str(good), "--out", str(out)]
    elif command == "report --outputs":
        en, ar = _eval_inputs(tmp_path)
        assert run_cli(["sample-eval", "--en", str(en), "--ar", str(ar), "--n", "2",
                        "--seed", "1", "--out", str(tmp_path / "ev")]) == 0
        argv = ["report", "--pairs", str(tmp_path / "ev" / "pairs.jsonl"),
                "--outputs", str(bad), "--name", "x", "--out", str(out)]
    elif command == "--config":
        bad.write_bytes(b"base_url=http://127.0.0.1:1\nmodel=\xff\n")
        pairs = tmp_path / "pairs.jsonl"
        pipeline.write_records(pairs, [{"ar": "أ", "en": "a"}])
        argv = ["--config", str(bad), "judge", "--in", str(pairs), "--accepted", str(out),
                "--state", str(tmp_path / "s")]
    else:
        bad.write_bytes(b'{"instruction": "a", "response": "b"}\n'
                        b'{"instruction": "\xff", "response": "b"}\n')
        argv = ["filter-code", "--in", str(bad), "--out", str(out)]
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli(argv) == 1
    [message] = logged(capsys)
    assert message.startswith(f"{label} line 2: not UTF-8 at byte ")
    assert "\n" not in message
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("metric", ["all", "bleu", "chrf", "rouge"])
def test_score_on_two_empty_files_is_one_error(tmp_path, capsys, metric):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_bytes(b"")
    ref.write_bytes(b"")
    code = run_cli(["score", "--hyp", str(hyp), "--ref", str(ref), "--metric", metric,
                    "--report", str(tmp_path / "scores.json")])
    assert code == 1
    out, err = capsys.readouterr()
    assert err.startswith("ERROR mtpipe: ") and err.endswith("\n") and err.count("\n") == 1
    assert out == ""
    assert not (tmp_path / "scores.json").exists()


def test_filter_code_null_response_names_its_line(tmp_path, capsys):
    src = tmp_path / "records.jsonl"
    pipeline.write_records(
        src, [{"instruction": "a", "response": "b"}, {"instruction": "c", "response": None}]
    )
    code = run_cli(["filter-code", "--in", str(src), "--out", str(tmp_path / "kept.jsonl")])
    assert code == 1
    [message] = logged(capsys)
    assert f"{src} line 2: field 'response' is null, not a string" in message


@pytest.mark.parametrize("command", ["filter-code", "mix", "translate-corpus"])
def test_a_lone_surrogate_escape_names_its_line_and_keeps_the_output(tmp_path, capsys, command):
    src = tmp_path / "records.jsonl"
    src.write_text('{"instruction": "a", "response": "b"}\n'
                   '{"instruction": "c \\ud800", "response": "d"}\n', encoding="utf-8")
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"old\n")
    with StubEndpoint() as stub:
        args = {
            "filter-code": ["filter-code", "--in", str(src), "--out", str(out)],
            "mix": ["mix", "--source", f"a={src}=2", "--out", str(out)],
            "translate-corpus": ["translate-corpus", "--in", str(src), "--out", str(out),
                                 "--state", str(tmp_path / "s"), "--base-url", stub.base_url,
                                 "--model", "m"],
        }[command]
        assert run_cli(args) == 1
    label = "a" if command == "mix" else str(src)
    assert logged(capsys) == [
        f"{label} line 2: not encodable as UTF-8: surrogates not allowed"
    ]
    assert stub.requests == []
    assert out.read_bytes() == b"old\n"


def test_translate_corpus_reply_that_is_not_unicode_is_malformed(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    pipeline.write_records(records, [{"id": "r0", "instruction": "ask", "response": "ans"}])
    state = tmp_path / "tr.state"

    def behavior(prompt, nth):
        return ("ok", "ok \ud800" if prompt.endswith("ans") else "fine")

    with StubEndpoint(behavior) as stub:
        code = run_cli(["translate-corpus", "--in", str(records), "--out", str(tmp_path / "t"),
                        "--state", str(state), "--base-url", stub.base_url, "--model", "m",
                        "--concurrency", "1"])
    assert code == 1
    assert stub.calls_per_prompt == {"Translate from English to Arabic: ask": 1,
                                     "Translate from English to Arabic: ans": 1}
    [message] = logged(capsys)
    assert "content is not valid Unicode" in message
    fingerprint = json.loads(state.read_text())["fingerprint"]
    with JobState(state, fingerprint) as job:
        assert job.completed == {0: "fine"}
    assert not (tmp_path / "t").exists()


def test_config_zero_concurrency_exits_two(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("base_url=http://127.0.0.1:1\nmodel=m\nconcurrency=0\n", encoding="utf-8")
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs_path, [{"ar": "أ", "en": "a"}])
    code = run_cli(["--config", str(config), "judge", "--in", str(pairs_path),
                    "--accepted", str(tmp_path / "a"), "--state", str(tmp_path / "s")])
    assert code == 2
    [message] = logged(capsys)
    assert "concurrency must be at least 1" in message
    assert not (tmp_path / "s").exists()


def test_config_non_utf8_is_one_line_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"base_url=http://127.0.0.1:1\nmodel=\xff\n")
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs_path, [{"ar": "أ", "en": "a"}])
    code = run_cli(["--config", str(config), "judge", "--in", str(pairs_path),
                    "--accepted", str(tmp_path / "a"), "--state", str(tmp_path / "s")])
    assert code == 1
    [message] = logged(capsys)
    assert message.startswith(f"{config} line 2: not UTF-8 at byte 6")
    assert "\n" not in message


def test_config_splits_only_at_newline(tmp_path):
    # A form feed or U+2028 in a value used to end the line there.
    config = tmp_path / "run.cfg"
    config.write_text("base_url=http://127.0.0.1:1\r\nmodel=a\x0cb\u2028c", encoding="utf-8",
                      newline="")
    args = cli.build_parser().parse_args(
        ["--config", str(config), "judge", "--in", "p", "--accepted", "a", "--state", "s"]
    )
    cfg, _ = cli._endpoint_from(args)
    assert cfg.base_url == "http://127.0.0.1:1"
    assert cfg.model_name == "a\x0cb\u2028c"


@pytest.mark.parametrize(
    "record, field, kind",
    [({"ar": 5, "en": "b"}, "ar", "int"), ({"ar": "a", "en": None}, "en", "null"),
     ({"ar": "a", "en": ["b"]}, "en", "list")],
    ids=["int", "null", "list"],
)
def test_judge_non_string_pair_field_names_its_line(tmp_path, capsys, record, field, kind):
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs_path, [{"ar": "أ", "en": "a"}, record])
    code = run_cli(["judge", "--in", str(pairs_path), "--accepted", str(tmp_path / "a"),
                    "--state", str(tmp_path / "s"), "--base-url", "http://127.0.0.1:1",
                    "--model", "m"])
    assert code == 1
    [message] = logged(capsys)
    assert f"{pairs_path} line 2: field {field!r} is {kind}, not a string" in message
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("field", ["ar", "en"])
def test_judge_empty_pair_side_names_its_line(tmp_path, capsys, field):
    pairs_path = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs_path, [{"ar": "أ", "en": "a"}, {"ar": "ب", "en": "b", field: ""}])
    code = run_cli(["judge", "--in", str(pairs_path), "--accepted", str(tmp_path / "a"),
                    "--state", str(tmp_path / "s"), "--base-url", "http://127.0.0.1:1",
                    "--model", "m"])
    assert code == 1
    [message] = logged(capsys)
    assert f"{pairs_path} line 2: field {field!r} is empty" in message
    assert not (tmp_path / "s").exists()


def test_sample_eval_null_text_names_its_line(tmp_path, capsys):
    en, ar = _eval_inputs(tmp_path)
    rows = list(pipeline.read_records(en))
    rows[3]["text"] = None
    pipeline.write_records(en, rows)
    out_dir = tmp_path / "ev"
    code = run_cli(["sample-eval", "--en", str(en), "--ar", str(ar), "--n", "2",
                    "--seed", "1", "--out", str(out_dir)])
    assert code == 1
    [message] = logged(capsys)
    assert f"{en} line 4: field 'text' is null, not a string" in message
    assert not out_dir.exists()


def test_report_numeric_reference_names_its_line(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pipeline.write_records(pairs, [{"subject": "s", "item_id": 0, "text": "t", "reference": 7}])
    outputs = tmp_path / "outputs.txt"
    outputs.write_text("r\n", encoding="utf-8")
    code = run_cli(["report", "--pairs", str(pairs), "--outputs", str(outputs), "--name", "x"])
    assert code == 1
    [message] = logged(capsys)
    assert f"{pairs} line 1: field 'reference' is int, not a string" in message


def test_sample_eval_keeps_numeric_subject_and_item_id(tmp_path, capsys):
    en, ar = tmp_path / "en.jsonl", tmp_path / "ar.jsonl"
    pipeline.write_records(en, [{"subject": 1, "item_id": i, "text": f"q {i}"} for i in range(3)])
    pipeline.write_records(ar, [{"subject": "1", "item_id": i, "text": f"a {i}"} for i in range(3)])
    out_dir = tmp_path / "ev"
    assert run_cli(["sample-eval", "--en", str(en), "--ar", str(ar), "--n", "3",
                    "--seed", "1", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.strip() == "sampled=3 aligned=3 misses=0"
    rows = list(pipeline.read_records(out_dir / "pairs.jsonl"))
    assert {(r["subject"], r["item_id"]) for r in rows} == {("1", "0"), ("1", "1"), ("1", "2")}
