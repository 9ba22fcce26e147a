from __future__ import annotations

import math
import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtpipe import metrics, shards

from oracles import (
    naive_bleu,
    naive_chrf_pp,
    naive_lcs,
    naive_rouge_l_corpus,
    naive_rouge_l_f1,
    naive_tokenize_13a,
)

# Alphabet on which the package tokenizers and the oracle tokenizers
# provably agree: ASCII text, digits, punctuation, and Arabic letters.
MIXED_ALPHABET = (
    "abcdefghij XYZ0123456789 .,;:!?-()\"'&<>"
    "ابتثجحسشمنوي"
)


def random_segment(rng: np.random.Generator, max_len: int = 40) -> str:
    n = int(rng.integers(0, max_len))
    return "".join(rng.choice(list(MIXED_ALPHABET), size=n))


def random_corpus(rng: np.random.Generator, max_segments: int = 4):
    n = int(rng.integers(1, max_segments + 1))
    hyps = [random_segment(rng) for _ in range(n)]
    # Bias towards overlapping content so clipped counts get exercised.
    refs = []
    for h in hyps:
        if rng.random() < 0.5 and h:
            cut = int(rng.integers(0, len(h)))
            refs.append(h[:cut] + random_segment(rng, 10))
        else:
            refs.append(random_segment(rng))
    return hyps, refs


# --------------------------------------------------------------------------
# 13a tokenization
# --------------------------------------------------------------------------


def test_tokenize_plain_words():
    assert metrics.tokenize_13a("hello world") == ["hello", "world"]


def test_tokenize_digit_guards():
    assert metrics.tokenize_13a("3.5 apples, now.") == ["3.5", "apples", ",", "now", "."]


def test_tokenize_entity_decode():
    assert metrics.tokenize_13a("a&quot;b") == ["a", '"', "b"]


def test_tokenize_skipped_spans_and_linebreaks():
    assert metrics.tokenize_13a("a<skipped>b") == ["ab"]
    assert metrics.tokenize_13a("hyphen-\njoined") == ["hyphenjoined"]
    assert metrics.tokenize_13a("two\nlines") == ["two", "lines"]


def test_tokenize_digit_dash():
    assert metrics.tokenize_13a("1-2") == ["1", "-", "2"]
    assert metrics.tokenize_13a("x-ray") == ["x-ray"]


def test_tokenize_matches_oracle_random(rng):
    for _ in range(500):
        s = random_segment(rng, 60)
        assert metrics.tokenize_13a(s) == naive_tokenize_13a(s)


def test_tokenize_second_pass_can_split_again():
    # 13a splits a period that follows a space but not one that follows
    # another period, so one pass is not always idempotent.
    assert metrics.tokenize_13a("..0") == [".", ".0"]
    assert metrics.tokenize_13a(". .0") == [".", ".", "0"]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=MIXED_ALPHABET, max_size=50))
@example("..0")
def test_tokenize_idempotent(text):
    # Re-tokenizing reaches a fixpoint after the second pass.
    once = metrics.tokenize_13a(text)
    twice = metrics.tokenize_13a(" ".join(once))
    assert metrics.tokenize_13a(" ".join(twice)) == twice
    assert all(" " not in token for token in once)


# --------------------------------------------------------------------------
# BLEU
# --------------------------------------------------------------------------


def test_bleu_perfect_match_is_100(rng):
    corpus = [random_segment(rng, 30) + " one two three four" for _ in range(4)]
    assert metrics.bleu_corpus(corpus, list(corpus)) == 100.0


def test_bleu_hand_case_brevity_penalty():
    score = metrics.bleu_corpus(["a b c d"], ["a b c d e"])
    assert score == pytest.approx(100.0 * math.exp(1 - 5 / 4), abs=1e-9)


def test_bleu_clipping_case_matches_oracle():
    hyps, refs = ["the the the"], ["the cat"]
    assert metrics.bleu_corpus(hyps, refs) == pytest.approx(naive_bleu(hyps, refs), abs=1e-9)


def test_bleu_no_smoothing_zero_on_missing_order():
    opts = metrics.BleuOptions(smoothing="none")
    assert metrics.bleu_corpus(["a b c d e"], ["a b x y z"], opts) == 0.0


def test_bleu_errors():
    with pytest.raises(metrics.LengthMismatch):
        metrics.bleu_corpus(["a"], ["a", "b"])
    with pytest.raises(metrics.EmptyCorpus):
        metrics.bleu_corpus([], [])
    with pytest.raises(ValueError):
        metrics.BleuOptions(max_order=0)


def test_bleu_matches_oracle_random(rng):
    for _ in range(300):
        hyps, refs = random_corpus(rng)
        got = metrics.bleu_corpus(hyps, refs)
        want = naive_bleu(hyps, refs)
        assert got == pytest.approx(want, abs=1e-9)
        assert 0.0 <= got <= 100.0


def test_bleu_permutation_invariant(rng):
    hyps, refs = random_corpus(rng, max_segments=6)
    order = rng.permutation(len(hyps))
    shuffled_h = [hyps[i] for i in order]
    shuffled_r = [refs[i] for i in order]
    assert metrics.bleu_corpus(hyps, refs) == pytest.approx(
        metrics.bleu_corpus(shuffled_h, shuffled_r), abs=1e-12
    )


# --------------------------------------------------------------------------
# chrF++
# --------------------------------------------------------------------------


def test_chrf_identical_is_100(rng):
    corpus = ["some words here", "مرحبا بك"]
    assert metrics.chrf_pp(corpus, list(corpus)) == 100.0


def test_chrf_empty_hypothesis_is_0():
    assert metrics.chrf_pp([""], ["abc"]) == 0.0


def test_chrf_short_pair_matches_oracle():
    hyps, refs = ["abcd"], ["abcf"]
    assert metrics.chrf_pp(hyps, refs) == pytest.approx(naive_chrf_pp(hyps, refs), abs=1e-9)


def test_chrf_matches_oracle_random(rng):
    for _ in range(300):
        hyps, refs = random_corpus(rng)
        got = metrics.chrf_pp(hyps, refs)
        want = naive_chrf_pp(hyps, refs)
        assert got == pytest.approx(want, abs=1e-9)
        assert 0.0 <= got <= 100.0


def test_chrf_errors():
    with pytest.raises(metrics.LengthMismatch):
        metrics.chrf_pp(["a"], [])
    with pytest.raises(metrics.EmptyCorpus):
        metrics.chrf_pp([], [])


# --------------------------------------------------------------------------
# ROUGE-L
# --------------------------------------------------------------------------


def test_rouge_identical_is_100():
    assert metrics.rouge_l_f1("same text", "same text") == 100.0


def test_rouge_hand_case():
    assert metrics.rouge_l_f1("a b c", "a c") == pytest.approx(80.0, abs=1e-12)


def test_rouge_empty_sides():
    assert metrics.rouge_l_f1("", "x") == 0.0
    assert metrics.rouge_l_f1("x", "") == 0.0
    assert metrics.rouge_l_f1("", "") == 0.0


def test_rouge_case_folded_and_punct_split():
    assert metrics.rouge_l_f1("Hello, World!", "hello world") == 100.0


def test_rouge_arabic_text_scores_nonzero():
    ar = "مرحبا بالعالم"
    assert metrics.rouge_l_f1(ar, ar) == 100.0
    assert metrics.rouge_l_f1(ar, ar.split()[0]) > 0.0


def test_rouge_matches_oracle_random(rng):
    for _ in range(300):
        hyp = random_segment(rng)
        ref = random_segment(rng)
        assert metrics.rouge_l_f1(hyp, ref) == pytest.approx(
            naive_rouge_l_f1(hyp, ref), abs=1e-9
        )


def test_lcs_matches_full_table_oracle(rng):
    # Lengths cross the 64-bit word boundaries of the bit-parallel kernel; an
    # alphabet of 1 token makes every position match, one of 50 few of them.
    edges = [0, 1, 63, 64, 65, 128, 129, 200]
    for _ in range(300):
        vocab = [f"t{k}" for k in range(int(rng.integers(1, 51)))]
        sizes = [
            int(rng.choice(edges)) if rng.random() < 0.3 else int(rng.integers(0, 201))
            for _ in range(2)
        ]
        a = list(rng.choice(vocab, size=sizes[0]))
        b = list(rng.choice(vocab, size=sizes[1]))
        assert metrics.lcs_length(a, b) == naive_lcs(a, b)


def test_recall_never_drops_when_appending_reference_suffix(rng):
    for _ in range(200):
        hyp = random_segment(rng)
        ref = random_segment(rng)
        ref_tokens = metrics.rouge_tokens(ref)
        if not ref_tokens:
            continue
        cut = int(rng.integers(0, len(ref_tokens)))
        suffix = ref_tokens[cut:]
        base = metrics.lcs_length(metrics.rouge_tokens(hyp), ref_tokens)
        extended = metrics.lcs_length(metrics.rouge_tokens(hyp) + suffix, ref_tokens)
        assert extended >= base


# --------------------------------------------------------------------------
# Combined report
# --------------------------------------------------------------------------


def test_evaluate_pairs_identical():
    # Segments need max_order tokens for identity to reach BLEU 100.
    report = metrics.evaluate_pairs([("w x y z", "w x y z")] * 3)
    assert (report.bleu, report.rouge_l, report.chrf_pp) == (100.0, 100.0, 100.0)
    assert report.n_pairs == 3


def test_bleu_short_perfect_match_scores_zero():
    # Fewer hypothesis tokens than max_order leaves an order with no n-grams;
    # the reference scorer yields 0 there and so does this one.
    assert metrics.bleu_corpus(["x y"], ["x y"]) == 0.0


@pytest.mark.parametrize("smoothing", ["exp", "none"])
def test_bleu_of_all_empty_hypotheses_is_zero(smoothing):
    opts = metrics.BleuOptions(smoothing=smoothing)
    assert metrics.bleu_corpus(["", " "], ["a b c d", "e"], opts) == 0.0


def test_evaluate_pairs_empty():
    with pytest.raises(metrics.EmptyCorpus):
        metrics.evaluate_pairs([])


def test_evaluate_pairs_matches_components(rng):
    pairs = [(random_segment(rng), random_segment(rng)) for _ in range(20)]
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    report = metrics.evaluate_pairs(pairs)
    assert report.bleu == metrics.bleu_corpus(hyps, refs)
    assert report.chrf_pp == metrics.chrf_pp(hyps, refs)
    assert report.rouge_l == pytest.approx(naive_rouge_l_corpus(hyps, refs), abs=1e-9)


_AR_WORDS = "كتاب قلم مدرسة بيت شجرة نهر طريق قمر"
PINNED_PAIRS = [
    ("the cat sat on the mat.", "the cat is on the mat."),
    ("مرحبا بكم في المدينة", "أهلا بكم في المدينة الكبيرة"),
    ("", "reference only"),
    ("hypothesis only", ""),
    ("", ""),
    ("tab\tseparated\xa0nbsp words\nand a line-\nbreak",
     "tab separated nbsp\xa0words\tand a linebreak"),
    ("Привет, мир! 3.5 km", "привет мир 3,5 км"),
    ("日本語のテキストです", "日本語 の テキスト"),
    (
        " ".join(f"w{i * 7 % 23}" for i in range(150)) + " " + _AR_WORDS * 3,
        " ".join(f"w{i * 5 % 23}" for i in range(140)) + " " + _AR_WORDS[::-1] * 2,
    ),
    (
        " ".join(_AR_WORDS.split()[i % 8] for i in range(130)),
        " ".join(_AR_WORDS.split()[i * 3 % 8] for i in range(120)),
    ),
]


def test_evaluate_pairs_pinned_scores():
    # Recorded with the full-table LCS and per-order n-gram counters; the
    # kernels must reproduce every bit, so the comparison is ==.
    report = metrics.evaluate_pairs(PINNED_PAIRS)
    assert report == metrics.MetricReport(
        bleu=6.006685973950535,
        rouge_l=39.07926605504587,
        chrf_pp=47.40524874709932,
        n_pairs=10,
    )


def test_report_bounds_validated():
    with pytest.raises(ValueError):
        metrics.MetricReport(bleu=101.0, rouge_l=0.0, chrf_pp=0.0, n_pairs=1)


def test_rouge_tokens_match_isalnum_runs_over_every_code_point():
    # The old tokenizer, one character at a time, is the reference.
    def isalnum_runs(text):
        tokens, run = [], []
        for ch in text:
            if ch.isalnum():
                run.append(ch)
            elif run:
                tokens.append("".join(run).lower())
                run.clear()
        if run:
            tokens.append("".join(run).lower())
        return tokens

    every = "".join(map(chr, range(0x110000)))
    apart = " ".join(every)
    assert metrics.rouge_tokens(apart) == isalnum_runs(apart)
    assert metrics.rouge_tokens(every) == isalnum_runs(every)


# --------------------------------------------------------------------------
# Shards: every score has the same bits however the corpus is cut
# --------------------------------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Shard any corpus that has a character, and record the pid of every
    child ``os.fork`` starts."""
    monkeypatch.setattr(shards, "_MIN_SHARD_CHARS", 1)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def all_scores(hyps, refs, opts=metrics.BleuOptions()):
    return (metrics.evaluate_pairs(zip(hyps, refs)), metrics.bleu_corpus(hyps, refs, opts),
            metrics.chrf_pp(hyps, refs), metrics.rouge_l_corpus(hyps, refs))


def assert_sharding_keeps_scores(monkeypatch, cpus, hyps, refs, opts=metrics.BleuOptions()):
    monkeypatch.setattr(shards, "_cpus", lambda: 1)
    want = all_scores(hyps, refs, opts)
    monkeypatch.setattr(shards, "_cpus", lambda: cpus)
    assert all_scores(hyps, refs, opts) == want


def test_sharded_scores_equal_unsharded_on_pinned_pairs(monkeypatch, forks):
    hyps, refs = map(list, zip(*PINNED_PAIRS * 7))
    assert_sharding_keeps_scores(monkeypatch, 4, hyps, refs)
    # Three children for each of the six metric calls.
    assert len(forks) == 6 * 3


def test_sharded_scores_equal_unsharded_on_random_corpora(monkeypatch, forks, rng):
    # evaluate_pairs' fields are bleu_corpus, rouge_l_corpus and chrf_pp of
    # the corpus, so one call compares all three at a third of the forks.
    for _ in range(200):
        hyps, refs = random_corpus(rng, max_segments=9)
        pairs = list(zip(hyps, refs))
        monkeypatch.setattr(shards, "_cpus", lambda: 1)
        want = metrics.evaluate_pairs(pairs)
        monkeypatch.setattr(shards, "_cpus", lambda: int(rng.integers(2, 4)))
        assert metrics.evaluate_pairs(pairs) == want
    assert forks


def test_more_cpus_than_pairs_gives_one_shard_per_pair(monkeypatch, forks):
    hyps = ["the cat sat", "a b c d e f", "x y z w"]
    refs = ["a cat sat x", "a b d e f", "y z w v"]
    assert_sharding_keeps_scores(monkeypatch, 16, hyps, refs)
    assert shards._bounds(hyps, refs) == [0, 1, 2, 3]
    assert len(forks) == 6 * 2


def test_sharded_scores_with_empty_segments_on_either_side(monkeypatch, forks):
    hyps = ["", "a b c d", "", "word", "صباح الخير يا صديقي", ""]
    refs = ["a b c", "", "", "word", "صباح الخير", "only the reference"]
    assert_sharding_keeps_scores(monkeypatch, 3, hyps, refs)
    assert_sharding_keeps_scores(monkeypatch, 3, [""] * 5, refs[:5])
    assert_sharding_keeps_scores(monkeypatch, 3, refs[:5], [""] * 5)


@pytest.mark.parametrize("max_order", [1, 4, 9])
@pytest.mark.parametrize("smoothing", ["exp", "none"])
def test_sharded_bleu_equals_unsharded_for_every_option(monkeypatch, forks, rng, max_order,
                                                        smoothing):
    opts = metrics.BleuOptions(max_order=max_order, smoothing=smoothing)
    for _ in range(10):
        hyps, refs = random_corpus(rng, max_segments=8)
        monkeypatch.setattr(shards, "_cpus", lambda: 1)
        want = metrics.bleu_corpus(hyps, refs, opts)
        monkeypatch.setattr(shards, "_cpus", lambda: 3)
        assert metrics.bleu_corpus(hyps, refs, opts) == want
    assert forks


def test_a_failed_child_has_its_shard_scored_by_the_caller(monkeypatch, forks):
    monkeypatch.setattr(shards, "_cpus", lambda: 1)
    want = metrics.evaluate_pairs(PINNED_PAIRS * 3)
    caller = os.getpid()
    for name in ("_bleu_stats", "_chrf_stats", "_rouge_stats"):
        def stats(*args, real=getattr(metrics, name)):
            if os.getpid() != caller:
                os._exit(1)
            return real(*args)
        monkeypatch.setattr(metrics, name, stats)
    monkeypatch.setattr(shards, "_cpus", lambda: 3)
    assert metrics.evaluate_pairs(PINNED_PAIRS * 3) == want
    assert len(forks) == 3 * 2


def test_no_fork_while_another_thread_is_alive(monkeypatch, forks):
    monkeypatch.setattr(shards, "_cpus", lambda: 3)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        report = metrics.evaluate_pairs(PINNED_PAIRS * 3)
    finally:
        release.set()
        other.join()
    assert forks == []
    assert metrics.evaluate_pairs(PINNED_PAIRS * 3) == report
    assert len(forks) == 3 * 2


def test_every_child_is_reaped(monkeypatch, forks):
    monkeypatch.setattr(shards, "_cpus", lambda: 3)
    metrics.evaluate_pairs(PINNED_PAIRS * 3)
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not Path(f"/proc/self/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<tid>/children to see a stray child")
def test_an_interrupt_as_a_child_is_forked_leaves_no_child(monkeypatch, forks):
    # SIGINT reaches the caller as soon as os.fork returns there, before the
    # child can have been recorded for the kill and reap.
    fork = os.fork

    def interrupted_fork():
        pid = fork()
        if pid:
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", interrupted_fork)
    monkeypatch.setattr(shards, "_cpus", lambda: 2)
    hyps, refs = map(list, zip(*PINNED_PAIRS * 3))
    with pytest.raises(KeyboardInterrupt):
        metrics.chrf_pp(hyps, refs)
    children = Path(f"/proc/{os.getpid()}/task/{threading.get_native_id()}/children")
    left = [int(pid) for pid in children.read_text().split()]
    for pid in left:  # so that no later test inherits a stray child
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert len(forks) == 1
    assert left == []
