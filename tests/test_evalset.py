from __future__ import annotations

import math

import pytest

from mtpipe import evalset, metrics
from mtpipe.evalset import AlignedPair, QuestionItem

from oracles import naive_prng, naive_sample

from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden"


def items(n: int, subject: str = "s") -> list[QuestionItem]:
    return [QuestionItem(subject, str(i), f"question {i}") for i in range(n)]


# --------------------------------------------------------------------------
# Generator
# --------------------------------------------------------------------------


def test_prng_known_first_output():
    value, new_state = evalset.prng_next(0)
    assert value == 0xE220A8397B1DCDAF
    assert new_state == 0x9E3779B97F4A7C15


def test_prng_deterministic():
    a = evalset.prng_next(12345)
    b = evalset.prng_next(12345)
    assert a == b


def test_prng_outputs_distinct():
    state = 1
    seen = set()
    for _ in range(10_000):
        value, state = evalset.prng_next(state)
        seen.add(value)
    assert len(seen) == 10_000


def test_prng_matches_second_implementation():
    state_a = state_b = 99
    for _ in range(100):
        va, state_a = evalset.prng_next(state_a)
        vb, state_b = naive_prng(state_b)
        assert va == vb


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------


def test_sample_full_is_permutation():
    pool = items(10)
    sampled = evalset.sample_questions(pool, 10, seed=4)
    assert sorted(q.item_id for q in sampled) == sorted(q.item_id for q in pool)
    assert sampled != pool  # astronomically unlikely to be identity


def test_sample_zero():
    assert evalset.sample_questions(items(4), 0, seed=1) == []


def test_sample_too_large():
    with pytest.raises(evalset.NTooLarge):
        evalset.sample_questions(items(3), 4, seed=1)


def test_sample_negative_n_rejected():
    with pytest.raises(evalset.NTooLarge):
        evalset.sample_questions(items(5), -1, seed=1)


def test_sample_matches_second_implementation():
    pool = list("ABCDEFGHIJ")
    for seed in (42, 0, 2**63):
        for n in (0, 1, 3, 10):
            assert evalset.sample_questions(pool, n, seed) == naive_sample(pool, n, seed)


def test_sample_deterministic_in_inputs():
    pool = items(50)
    assert evalset.sample_questions(pool, 7, 123) == evalset.sample_questions(pool, 7, 123)
    assert evalset.sample_questions(pool, 7, 123) != evalset.sample_questions(pool, 7, 124)


def test_sample_uniform_at_n1():
    pool = list(range(10))
    counts = [0] * 10
    for trial in range(10_000):
        pick = evalset.sample_questions(pool, 1, seed=trial)[0]
        counts[pick] += 1
    sigma = math.sqrt(10_000 * 0.1 * 0.9)
    for count in counts:
        assert abs(count - 1000) <= 5 * sigma


# --------------------------------------------------------------------------
# Alignment
# --------------------------------------------------------------------------


def ar_items_for(en_items, text_prefix="ar"):
    return [
        QuestionItem(q.subject, q.item_id, f"{text_prefix} {q.item_id}") for q in en_items
    ]


def test_align_disjoint_keys():
    sample = items(3, subject="en")
    refs = items(3, subject="other")
    pairs, misses = evalset.align_references(sample, refs)
    assert pairs == []
    assert misses == [q.key for q in sample]


def test_align_identical_keys():
    sample = items(5)
    pairs, misses = evalset.align_references(sample, ar_items_for(sample))
    assert len(pairs) == 5 and misses == []
    assert [p.en.item_id for p in pairs] == [q.item_id for q in sample]
    assert pairs[2].ar_reference == "ar 2"


def test_align_partial_misses_reported():
    pool = items(500)
    refs = ar_items_for(pool)
    # Remove two references.
    refs = [r for r in refs if r.item_id not in ("13", "250")]
    sample = evalset.sample_questions(pool, 500, seed=7)
    pairs, misses = evalset.align_references(sample, refs)
    assert len(pairs) == 498
    assert sorted(m[1] for m in misses) == ["13", "250"]
    assert len(pairs) + len(misses) == 500


def test_align_duplicate_reference_keys():
    sample = items(1)
    dup = [QuestionItem("s", "0", "a"), QuestionItem("s", "0", "b")]
    with pytest.raises(evalset.DuplicateKey):
        evalset.align_references(sample, dup)


def test_eval_set_files_round_trip(tmp_path):
    sample = [QuestionItem("math", "7", "What is {2+2}?"), QuestionItem("لغة", "x-1", "سؤال")]
    pairs = [AlignedPair(sample[0], "كم يساوي")]
    evalset.write_eval_set(tmp_path, sample, pairs, [sample[1].key])
    assert (tmp_path / "sample.jsonl").read_bytes() == (
        '{"item_id":"7","subject":"math","text":"What is {2+2}?"}\n'
        '{"item_id":"x-1","subject":"لغة","text":"سؤال"}\n'
    ).encode("utf-8")
    assert (tmp_path / "pairs.jsonl").read_bytes() == (
        '{"item_id":"7","reference":"كم يساوي","subject":"math","text":"What is {2+2}?"}\n'
    ).encode("utf-8")
    assert (tmp_path / "misses.jsonl").read_bytes() == (
        '{"item_id":"x-1","subject":"لغة"}\n'.encode("utf-8")
    )
    assert evalset.load_question_items(tmp_path / "sample.jsonl") == sample
    assert evalset.load_aligned_pairs(tmp_path / "pairs.jsonl") == pairs


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


def test_report_identical_outputs():
    sample = items(4)
    # References need at least four tokens for identity to reach BLEU 100.
    pairs, _ = evalset.align_references(
        sample, ar_items_for(sample, text_prefix="one two three")
    )
    outputs = [p.ar_reference for p in pairs]
    report, row = evalset.build_report(pairs, outputs, "perfect")
    assert row == "perfect 100.0 100.0 100.0"
    assert report.n_pairs == 4


def test_report_row_golden_base_model():
    report = metrics.MetricReport(bleu=16.0, rouge_l=19.3, chrf_pp=43.2, n_pairs=500)
    row = evalset.render_report_row("LiquidAI/LFM2-1.2B (base)", report)
    assert row.encode("utf-8") == (GOLDEN / "report_row_base.txt").read_bytes()


def test_report_row_golden_teacher():
    report = metrics.MetricReport(bleu=53.5, rouge_l=26.0, chrf_pp=68.9, n_pairs=500)
    row = evalset.render_report_row("hammh0a/command-a-translate-FP8-Dynamic", report)
    assert row.encode("utf-8") == (GOLDEN / "report_row_teacher.txt").read_bytes()


def test_report_composition_matches_direct_metric_calls(rng):
    sample = items(20)
    pairs, _ = evalset.align_references(sample, ar_items_for(sample))
    outputs = [f"ar {i}" if i % 3 else f"other {i}" for i in range(20)]
    report, _ = evalset.build_report(pairs, outputs, "sys")
    direct = metrics.evaluate_pairs(
        [(out, p.ar_reference) for out, p in zip(outputs, pairs)]
    )
    assert report == direct


def test_report_length_mismatch():
    sample = items(2)
    pairs, _ = evalset.align_references(sample, ar_items_for(sample))
    with pytest.raises(evalset.LengthMismatch):
        evalset.build_report(pairs, ["only one"], "sys")


def test_report_json_full_precision():
    report = metrics.MetricReport(bleu=12.345678, rouge_l=1.0, chrf_pp=2.0, n_pairs=3)
    payload = evalset.report_to_json("sys", report)
    assert "12.345678" in payload
