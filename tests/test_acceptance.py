"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from mtpipe import evalset, merge, metrics, pipeline, quant
from mtpipe.inference import BatchItem, ExhaustedRetries, batch_fingerprint, run_batch
from mtpipe.state import JobState
from mtpipe.tensorio import (
    Checkpoint,
    DType,
    read_checkpoint,
    tensor_as_f64,
    tensor_from_f64,
    write_checkpoint,
)

from conftest import random_checkpoint
from oracles import (
    e4m3_exact_value,
    naive_bleu,
    naive_chrf_pp,
    naive_rouge_l_corpus,
    naive_slerp,
)
from stubserver import StubEndpoint
from test_fp8 import decode_e4m3, encode_e4m3
from test_metrics import random_corpus, random_segment

GOLDEN = Path(__file__).parent / "data" / "golden"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} FAIL  {title}")
        raise
    print(f"\nACCEPTANCE {number:2d} PASS  {title}")


def test_criterion_1_e4m3_exactness():
    with criterion(1, "all finite 8-bit codes round-trip encode(decode(c)) == c"):
        start = time.monotonic()
        finite = 0
        for code in range(256):
            if e4m3_exact_value(code) is None:
                continue
            finite += 1
            assert encode_e4m3(decode_e4m3(code)) == code
        # 254 finite codes exist (127 per sign); that covers the required 240
        # with exponent fields below 1111 plus the largest-magnitude row.
        assert finite == 254
        assert time.monotonic() - start < 1.0


def test_criterion_2_quantization_error_bound():
    with criterion(2, "10,000 random tensors respect the 2**-4 relative error bound"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        for _ in range(10_000):
            n = int(rng.integers(1, 4097))
            magnitude = 10.0 ** rng.uniform(-3, 3)
            t = tensor_from_f64(
                rng.uniform(-magnitude, magnitude, size=n), DType.F32, (n,)
            )
            q = quant.quantize_fp8(t)
            original = tensor_as_f64(t)
            restored = tensor_as_f64(quant.dequantize_fp8(q))
            mask = np.abs(original) >= q.scale * 2.0**-6
            if mask.any():
                rel = np.abs(restored[mask] - original[mask]) / np.abs(original[mask])
                assert float(rel.max()) <= 2.0**-4
        assert time.monotonic() - start < 30.0


def test_criterion_3_slerp_identities_and_merge_oracle():
    with criterion(3, "slerp identities on 1,000 pairs and merge vs flatten-then-slerp"):
        rng = np.random.default_rng(3)
        for _ in range(1_000):
            n = int(rng.integers(1, 33))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            t = float(rng.uniform(0, 1))
            assert np.abs(merge.slerp_vec(a, b, 0.0) - a).max() <= 1e-6
            assert np.abs(merge.slerp_vec(a, b, 1.0) - b).max() <= 1e-6
            assert np.abs(merge.slerp_vec(a, a, t) - a).max() <= 1e-6
            fwd = merge.slerp_vec(a, b, t)
            rev = merge.slerp_vec(b, a, 1.0 - t)
            assert np.abs(fwd - rev).max() <= 1e-6

        x = Checkpoint(
            tensors={
                f"t{i}": tensor_from_f64(
                    rng.uniform(-1, 1, size=n), DType.F32, (n,)
                )
                for i, n in enumerate(rng.integers(1, 64, size=5))
            }
        )
        y = Checkpoint(
            tensors={
                name: tensor_from_f64(rng.uniform(-1, 1, size=t.numel), DType.F32, t.shape)
                for name, t in x.tensors.items()
            }
        )
        merged = merge.merge_checkpoints(x, y, merge.MergeSpec(t=0.5))
        for name in x.tensors:
            expected = naive_slerp(
                list(tensor_as_f64(x.tensors[name])),
                list(tensor_as_f64(y.tensors[name])),
                0.5,
            )
            got = tensor_as_f64(merged.tensors[name])
            assert np.abs(got - np.array(expected)).max() <= 1e-6


def test_criterion_4_metric_oracle_equivalence():
    with criterion(4, "BLEU/chrF++/ROUGE-L match naive oracles on 1,000 corpora"):
        rng = np.random.default_rng(4)
        for _ in range(1_000):
            hyps, refs = random_corpus(rng)
            assert metrics.bleu_corpus(hyps, refs) == pytest.approx(
                naive_bleu(hyps, refs), abs=1e-9
            )
            assert metrics.chrf_pp(hyps, refs) == pytest.approx(
                naive_chrf_pp(hyps, refs), abs=1e-9
            )
            assert metrics.rouge_l_corpus(hyps, refs) == pytest.approx(
                naive_rouge_l_corpus(hyps, refs), abs=1e-9
            )
        # Perfect matches (with enough tokens for every BLEU order) hit 100.
        for _ in range(50):
            corpus = [random_segment(rng, 20) + " alpha beta gamma delta" for _ in range(3)]
            assert metrics.bleu_corpus(corpus, list(corpus)) == 100.0
            assert metrics.chrf_pp(corpus, list(corpus)) == 100.0
            assert metrics.rouge_l_corpus(corpus, list(corpus)) == 100.0
        # Hand-computed brevity-penalty case.
        assert metrics.bleu_corpus(["a b c d"], ["a b c d e"]) == pytest.approx(
            100.0 * math.exp(1 - 5 / 4), abs=0.01
        )


def test_criterion_5_report_rows_byte_exact():
    with criterion(5, "report renderer reproduces the published row layout byte-exactly"):
        base = metrics.MetricReport(bleu=16.0, rouge_l=19.3, chrf_pp=43.2, n_pairs=500)
        row = evalset.render_report_row("LiquidAI/LFM2-1.2B (base)", base)
        assert row.encode("utf-8") == (GOLDEN / "report_row_base.txt").read_bytes()
        teacher = metrics.MetricReport(bleu=53.5, rouge_l=26.0, chrf_pp=68.9, n_pairs=500)
        row = evalset.render_report_row("hammh0a/command-a-translate-FP8-Dynamic", teacher)
        assert row.encode("utf-8") == (GOLDEN / "report_row_teacher.txt").read_bytes()


def test_criterion_6_filter_bookkeeping_and_mix_totals(tmp_path):
    with criterion(6, "1M-candidate judge run books 439,592 accepts; mix totals 1,249,592"):
        accepts = 439_592
        total = 1_000_000
        seen = 0

        def scripted_judge(prompt: str) -> str:
            nonlocal seen
            verdict = "accept" if seen < accepts else "reject"
            seen += 1
            return verdict

        pairs = ((f"ar{i}", f"en{i}") for i in range(total))
        accepted, stats = pipeline.filter_parallel_corpus(pairs, scripted_judge)
        assert stats == pipeline.FilterStats(
            candidates=total, accepted=accepts, rejected=total - accepts, unparseable=0
        )
        assert stats.acceptance_rate * 100 == pytest.approx(43.9592, abs=1e-9)
        assert len(accepted) == accepts

        tuples_path = tmp_path / "tuples.jsonl"
        line = pipeline.dumps_record(
            {"instr_en": "q", "instr_ar": "س", "resp_en": "a", "resp_ar": "ج"}
        )
        with open(tuples_path, "w", encoding="utf-8") as fh:
            fh.write((line + "\n") * 810_000)
        accepted_path = tmp_path / "accepted.jsonl"
        pipeline.write_records(accepted_path, ({"ar": a, "en": e} for a, e in accepted))

        manifest = pipeline.mix_corpora(
            [
                pipeline.MixSource("tuples", tuples_path, 810_000),
                pipeline.MixSource("filtered", accepted_path, accepts),
            ],
            tmp_path / "mixed.jsonl",
        )
        assert manifest.total == 1_249_592
        assert manifest.counts == (("tuples", 810_000), ("filtered", accepts))


def test_criterion_7_orchestrator_order_bound_and_resume(tmp_path):
    with criterion(7, "100-item run: order kept, <=8 in flight, clean resume, no duplicates"):
        items = [BatchItem(i, f"task-{i:03d}") for i in range(100)]

        # Uninterrupted reference run.
        with StubEndpoint() as stub:
            from test_inference import make_cfg

            cfg = make_cfg(stub)
            with JobState(tmp_path / "ref.state", batch_fingerprint(items, cfg)) as state:
                reference = run_batch(items, cfg, 8, state)
            assert reference == [item.prompt for item in items]
            assert stub.max_in_flight <= 8

        # Interrupted run: item 40 fails permanently, then the endpoint heals.
        def broken(prompt, nth):
            return ("status", 500) if prompt == "task-040" else ("echo", None)

        with StubEndpoint(broken) as stub:
            from test_inference import make_cfg

            cfg = make_cfg(stub, max_retries=0)
            fingerprint = batch_fingerprint(items, cfg)
            with JobState(tmp_path / "job.state", fingerprint) as state:
                with pytest.raises(ExhaustedRetries):
                    run_batch(items, cfg, 8, state)
            stub.behavior = lambda prompt, nth: ("echo", None)
            with JobState(tmp_path / "job.state", fingerprint) as state:
                resumed = run_batch(items, cfg, 8, state)
            assert stub.max_in_flight <= 8
            # Zero duplicate completions across both runs.
            assert all(
                stub.successes_per_prompt[item.prompt] == 1 for item in items
            )

        ref_file = tmp_path / "reference.jsonl"
        res_file = tmp_path / "resumed.jsonl"
        pipeline.write_records(ref_file, ({"text": s} for s in reference))
        pipeline.write_records(res_file, ({"text": s} for s in resumed))
        assert ref_file.read_bytes() == res_file.read_bytes()


def test_criterion_8_prompt_fidelity():
    with criterion(8, "rendered prompts match the golden files byte-for-byte"):
        teacher = pipeline.render_translation_prompt("Hello", "teacher")
        assert teacher.encode("utf-8") == (GOLDEN / "prompt_teacher.txt").read_bytes()
        light = pipeline.render_translation_prompt("Hi", "lightweight")
        assert light.encode("utf-8") == (GOLDEN / "prompt_lightweight.txt").read_bytes()
        judge = pipeline.render_judge_prompt("مرحبا", "Hello")
        assert judge.encode("utf-8") == (GOLDEN / "prompt_judge.txt").read_bytes()


def test_criterion_9_checkpoint_round_trip_and_rejection(tmp_path):
    with criterion(9, "100 random checkpoints round-trip; malformed offsets rejected"):
        rng = np.random.default_rng(9)
        for i in range(100):
            ckpt = random_checkpoint(rng)
            path = tmp_path / f"ckpt{i}.safetensors"
            write_checkpoint(ckpt, path)
            assert read_checkpoint(path) == ckpt

        import json as _json
        import struct as _struct

        from mtpipe.tensorio import OffsetViolation

        def corpus_file(offsets_a, offsets_b, data_len):
            header = _json.dumps(
                {
                    "a": {"dtype": "F32", "shape": [2], "data_offsets": offsets_a},
                    "b": {"dtype": "F32", "shape": [2], "data_offsets": offsets_b},
                }
            ).encode()
            return _struct.pack("<Q", len(header)) + header + bytes(data_len)

        malformed = {
            "overlap": corpus_file([0, 8], [4, 12], 12),
            "gap": corpus_file([0, 8], [12, 20], 20),
            "out_of_range": corpus_file([0, 8], [8, 16], 12),
        }
        for label, blob in malformed.items():
            path = tmp_path / f"{label}.safetensors"
            path.write_bytes(blob)
            with pytest.raises(OffsetViolation):
                read_checkpoint(path)


def test_criterion_10_sampling_determinism(tmp_path):
    with criterion(10, "seeded sample-eval reproduces byte-identical files; known generator vector"):
        value, _ = evalset.prng_next(0)
        assert value == 0xE220A8397B1DCDAF

        en = tmp_path / "en.jsonl"
        ar = tmp_path / "ar.jsonl"
        pipeline.write_records(
            en,
            (
                {"subject": f"s{i % 7}", "item_id": str(i), "text": f"question number {i}"}
                for i in range(2_000)
            ),
        )
        pipeline.write_records(
            ar,
            (
                {"subject": f"s{i % 7}", "item_id": str(i), "text": f"سؤال {i}"}
                for i in range(2_000)
            ),
        )
        samples = []
        for run in ("run1", "run2"):
            out_dir = tmp_path / run
            proc = subprocess.run(
                [
                    sys.executable, "-m", "mtpipe.cli", "sample-eval",
                    "--en", str(en), "--ar", str(ar),
                    "--n", "500", "--seed", "7", "--out", str(out_dir),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            samples.append(
                (
                    (out_dir / "sample.jsonl").read_bytes(),
                    (out_dir / "pairs.jsonl").read_bytes(),
                )
            )
        assert samples[0] == samples[1]
