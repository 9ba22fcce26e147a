"""Corpus-level translation metrics computed from scratch.

BLEU uses the classic language-independent punctuation-splitting tokenizer
(the "13a" scheme) and corpus-summed clipped n-gram counts. chrF++ mixes
character n-grams of order 1..6 with word n-grams of order 1..2 at beta=2.
ROUGE-L is an LCS F1 over Unicode-aware word tokens, averaged per pair.
All scores are on a 0..100 scale and a perfect match is exactly 100.

Each metric runs in two steps: gather statistics over the pairs, shard by
shard on every usable CPU (see ``shards``), then score their sum. The
statistics are integer n-gram counts and lengths for BLEU and chrF++, and
per-pair F1 floats for ROUGE-L. Counts add exactly and the F1 floats are
summed in pair order in one ``sum``, so a score has the same bits however
the pairs were cut.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import LengthMismatch, ToolError
from .shards import gather


class EmptyCorpus(ToolError):
    pass


def _check_corpus(hyps: Sequence[str], refs: Sequence[str], metric: str) -> None:
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus(f"{metric} needs at least one segment pair")


def _summed(parts: list[list[int]]) -> list[int]:
    return [sum(column) for column in zip(*parts)]


# --------------------------------------------------------------------------
# 13a tokenization
# --------------------------------------------------------------------------

_PUNCT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_PERIOD_AFTER_NONDIGIT = re.compile(r"([^0-9])([\.,])")
_PERIOD_BEFORE_NONDIGIT = re.compile(r"([\.,])([^0-9])")
_DASH_AFTER_DIGIT = re.compile(r"([0-9])(-)")


def tokenize_13a(text: str) -> list[str]:
    """Tokenize a segment: normalize entities and linebreaks, then surround
    punctuation with spaces (periods and commas only next to non-digits, a
    hyphen only after a digit) and split on whitespace."""
    norm = text.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")

    norm = f" {norm} "
    norm = _PUNCT.sub(lambda m: f" {m[1]} ", norm)
    norm = _PERIOD_AFTER_NONDIGIT.sub(lambda m: f"{m[1]} {m[2]} ", norm)
    norm = _PERIOD_BEFORE_NONDIGIT.sub(lambda m: f" {m[1]} {m[2]}", norm)
    norm = _DASH_AFTER_DIGIT.sub(lambda m: f"{m[1]} {m[2]} ", norm)
    return norm.split()


# --------------------------------------------------------------------------
# BLEU
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BleuOptions:
    max_order: int = 4
    smoothing: str = "exp"  # "exp" or "none"

    def __post_init__(self) -> None:
        if not 1 <= self.max_order <= 9:
            raise ValueError(f"max_order must be in 1..9, got {self.max_order}")
        if self.smoothing not in ("exp", "none"):
            raise ValueError(f"unknown smoothing {self.smoothing!r}")


def _ngram_counts(tokens: Sequence[str], max_order: int) -> Counter:
    """Counts of every n-gram of orders 1..max_order in one Counter. Each key
    is a tuple of n tokens, so its length is its order."""
    counts: Counter = Counter()
    for n in range(1, max_order + 1):
        counts.update(zip(*[tokens[k:] for k in range(n)]))
    return counts


def _add_totals(totals: list[int], length: int, max_order: int, offset: int = 0) -> None:
    """Add the number of n-grams of each order 1..max_order in a sequence of
    ``length`` items to ``totals[offset + order - 1]``."""
    for n in range(1, min(length, max_order) + 1):
        totals[offset + n - 1] += length - n + 1


def _add_clipped(hyp: Counter, ref: Counter, matched: list[int], offset: int = 0) -> None:
    """Add each shared n-gram's clipped count, min(hyp, ref), to
    ``matched[offset + order - 1]``, looping over the smaller side's keys."""
    small, large = (hyp, ref) if len(hyp) <= len(ref) else (ref, hyp)
    get = large.get
    for gram, count in small.items():
        other = get(gram)
        if other:
            matched[offset + len(gram) - 1] += count if count < other else other


def _bleu_stats(hyps: Sequence[str], refs: Sequence[str], max_order: int) -> list[int]:
    """BLEU's counts over some pairs: clipped matches of each order
    1..max_order, then hypothesis n-grams of each order, then the hypothesis
    and reference token counts."""
    correct = [0] * max_order
    total = [0] * max_order
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_tokens = tokenize_13a(hyp)
        ref_tokens = tokenize_13a(ref)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        _add_totals(total, len(hyp_tokens), max_order)
        _add_clipped(
            _ngram_counts(hyp_tokens, max_order),
            _ngram_counts(ref_tokens, max_order),
            correct,
        )
    return correct + total + [hyp_len, ref_len]


def bleu_corpus(
    hyps: Sequence[str], refs: Sequence[str], opts: BleuOptions = BleuOptions()
) -> float:
    """Corpus BLEU x100 with 13a tokenization.

    Modified precisions come from clipped counts summed over segments. The
    brevity penalty is exp(1 - ref_len / hyp_len) when the hypothesis corpus
    is not longer than the reference corpus, else 1. With exp smoothing the
    k-th zero-numerator order uses 1 / (2**k * denominator); an order with no
    hypothesis n-grams at all makes the score 0.
    """
    _check_corpus(hyps, refs, "BLEU")
    m = opts.max_order
    counts = _summed(gather(_bleu_stats, hyps, refs, m))
    correct, total, (hyp_len, ref_len) = counts[:m], counts[m : 2 * m], counts[2 * m :]

    log_sum = 0.0
    smooth = 1.0
    for n in range(1, m + 1):
        if total[n - 1] == 0:
            return 0.0
        if correct[n - 1] == 0:
            if opts.smoothing == "none":
                return 0.0
            smooth *= 2.0
            precision = 1.0 / (smooth * total[n - 1])
        else:
            precision = correct[n - 1] / total[n - 1]
        log_sum += math.log(precision)

    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / m)


# --------------------------------------------------------------------------
# chrF++
# --------------------------------------------------------------------------

CHRF_CHAR_ORDER = 6
CHRF_WORD_ORDER = 2
CHRF_BETA = 2.0

_WHITESPACE = re.compile(r"\s+")


def _char_ngram_counts(text: str) -> Counter:
    """Counts of every character n-gram of orders 1..CHRF_CHAR_ORDER in one
    Counter. Each key is a substring, so its length is its order."""
    counts = Counter(text)
    for n in range(2, CHRF_CHAR_ORDER + 1):
        counts.update([text[i : i + n] for i in range(len(text) - n + 1)])
    return counts


def _chrf_stats(hyps: Sequence[str], refs: Sequence[str]) -> list[int]:
    """chrF++'s counts over some pairs: clipped matches, hypothesis n-grams
    and reference n-grams, each for the 6 character orders then the 2 word
    orders."""
    n_orders = CHRF_CHAR_ORDER + CHRF_WORD_ORDER
    matched = [0] * n_orders
    hyp_total = [0] * n_orders
    ref_total = [0] * n_orders
    for hyp, ref in zip(hyps, refs):
        hyp_chars = _WHITESPACE.sub("", hyp)
        ref_chars = _WHITESPACE.sub("", ref)
        hyp_words = hyp.split()
        ref_words = ref.split()
        _add_totals(hyp_total, len(hyp_chars), CHRF_CHAR_ORDER)
        _add_totals(ref_total, len(ref_chars), CHRF_CHAR_ORDER)
        _add_totals(hyp_total, len(hyp_words), CHRF_WORD_ORDER, CHRF_CHAR_ORDER)
        _add_totals(ref_total, len(ref_words), CHRF_WORD_ORDER, CHRF_CHAR_ORDER)
        _add_clipped(_char_ngram_counts(hyp_chars), _char_ngram_counts(ref_chars), matched)
        _add_clipped(
            _ngram_counts(hyp_words, CHRF_WORD_ORDER),
            _ngram_counts(ref_words, CHRF_WORD_ORDER),
            matched,
            CHRF_CHAR_ORDER,
        )
    return matched + hyp_total + ref_total


def chrf_pp(hyps: Sequence[str], refs: Sequence[str]) -> float:
    """chrF++ x100: mean F(beta=2) over 6 character orders (whitespace
    removed) plus 2 word orders, from corpus-summed clipped counts. Orders
    with no n-grams on either side are skipped; orders empty on one side
    only contribute F=0."""
    _check_corpus(hyps, refs, "chrF++")
    n_orders = CHRF_CHAR_ORDER + CHRF_WORD_ORDER
    counts = _summed(gather(_chrf_stats, hyps, refs))
    matched, hyp_total, ref_total = (
        counts[i * n_orders : (i + 1) * n_orders] for i in range(3)
    )

    beta_sq = CHRF_BETA * CHRF_BETA
    f_scores = []
    for i in range(n_orders):
        if hyp_total[i] == 0 and ref_total[i] == 0:
            continue
        precision = matched[i] / hyp_total[i] if hyp_total[i] else 0.0
        recall = matched[i] / ref_total[i] if ref_total[i] else 0.0
        denom = beta_sq * precision + recall
        f_scores.append((1 + beta_sq) * precision * recall / denom if denom > 0 else 0.0)
    if not f_scores:
        return 0.0
    return 100.0 * sum(f_scores) / len(f_scores)


# --------------------------------------------------------------------------
# ROUGE-L
# --------------------------------------------------------------------------


# [^\W_] matches exactly the characters for which str.isalnum() is true.
_ALNUM_RUN = re.compile(r"[^\W_]+")


def rouge_tokens(text: str) -> list[str]:
    """Unicode-aware word tokens: maximal letter/digit runs in any script,
    lowercased where the script has case."""
    return [run.lower() for run in _ALNUM_RUN.findall(text)]


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, by the bit-parallel method of
    Allison and Dix (1986) in the form of Hyyrö (2004).

    Bit j of ``s`` stands for position j of the shorter sequence, and the
    LCS so far is the number of its 0 bits. Each token of the longer
    sequence updates the whole row with a few big-int operations on the
    token's match mask, instead of one Python step per table cell."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: dict = {}
    for j, item in enumerate(b):
        masks[item] = masks.get(item, 0) | (1 << j)
    full = (1 << len(b)) - 1
    s = full
    get = masks.get
    for item in a:
        u = s & get(item, 0)
        if u:  # u == 0 leaves s as it is
            s = ((s + u) | (s - u)) & full
    return len(b) - s.bit_count()


def rouge_l_f1(hyp: str, ref: str) -> float:
    """LCS-based F1 x100 for one pair; 0 when either side has no tokens."""
    hyp_tokens = rouge_tokens(hyp)
    ref_tokens = rouge_tokens(ref)
    if not hyp_tokens or not ref_tokens:
        return 0.0
    lcs = lcs_length(hyp_tokens, ref_tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(hyp_tokens)
    recall = lcs / len(ref_tokens)
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def _rouge_stats(hyps: Sequence[str], refs: Sequence[str]) -> list[float]:
    """ROUGE-L's figures over some pairs: each pair's F1, in pair order."""
    return [rouge_l_f1(h, r) for h, r in zip(hyps, refs)]


def rouge_l_corpus(hyps: Sequence[str], refs: Sequence[str]) -> float:
    _check_corpus(hyps, refs, "ROUGE-L")
    # One sum over every pair's F1 in pair order, as if unsharded.
    return sum(chain.from_iterable(gather(_rouge_stats, hyps, refs))) / len(hyps)


# --------------------------------------------------------------------------
# Combined report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    bleu: float
    rouge_l: float
    chrf_pp: float
    n_pairs: int

    def __post_init__(self) -> None:
        for label, score in (
            ("bleu", self.bleu),
            ("rouge_l", self.rouge_l),
            ("chrf_pp", self.chrf_pp),
        ):
            if not 0.0 <= score <= 100.0:
                raise ValueError(f"{label} out of [0, 100]: {score}")


def evaluate_pairs(pairs: Iterable[tuple[str, str]]) -> MetricReport:
    """Score (hypothesis, reference) pairs with all three corpus metrics."""
    pair_list = list(pairs)
    if not pair_list:
        raise EmptyCorpus("cannot evaluate an empty pair list")
    hyps = [h for h, _ in pair_list]
    refs = [r for _, r in pair_list]
    return MetricReport(
        bleu=bleu_corpus(hyps, refs),
        rouge_l=rouge_l_corpus(hyps, refs),
        chrf_pp=chrf_pp(hyps, refs),
        n_pairs=len(pair_list),
    )
