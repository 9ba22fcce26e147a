"""Independent naive implementations used as oracles.

Everything here is written from the operation definitions, deliberately with
different data structures and control flow than the package (full DP tables
instead of rolling rows, scan loops instead of regex passes, Fractions
instead of floats) so agreement is meaningful.
"""

from __future__ import annotations

import hashlib
import math
import struct
import unicodedata
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# 8-bit float values from first principles
# ---------------------------------------------------------------------------


def e4m3_exact_value(code: int) -> Fraction | None:
    """Exact value of a code built from its bit fields; None for NaN."""
    sign = -1 if code & 0x80 else 1
    exponent = (code >> 3) & 0xF
    mantissa = code & 0x7
    if exponent == 0xF and mantissa == 0x7:
        return None
    if exponent == 0:
        return sign * Fraction(mantissa, 512)
    return sign * Fraction(8 + mantissa, 8) * Fraction(2) ** (exponent - 7)


def naive_audit(values: np.ndarray, codes: np.ndarray, scale: float) -> tuple[float, float]:
    """amax and max relative error of a tensor's codes in two whole-array
    passes: restore every code as float32(value * scale), then compare the
    elements at or above scale * 2**-6, picked out by a boolean index."""
    amax = float(np.abs(values).max()) if values.size else 0.0
    exact = [e4m3_exact_value(c) for c in range(256)]
    decoded = np.array([math.nan if v is None else float(v) for v in exact])
    restored = (decoded[codes] * scale).astype(np.float32).astype(np.float64)
    mask = np.abs(values) >= scale * 2.0**-6
    if not mask.any():
        return amax, 0.0
    rel = np.abs(restored[mask] - values[mask]) / np.abs(values[mask])
    return amax, float(rel.max())


# ---------------------------------------------------------------------------
# 13a tokenization as explicit scan passes
# ---------------------------------------------------------------------------

_PUNCT_CHARS = set()
for lo, hi in ((0x7B, 0x7E), (0x5B, 0x60), (0x20, 0x26), (0x28, 0x2B), (0x3A, 0x40)):
    _PUNCT_CHARS.update(chr(c) for c in range(lo, hi + 1))
_PUNCT_CHARS.add("/")


def _pass_punct(text: str) -> str:
    out = []
    for ch in text:
        if ch in _PUNCT_CHARS:
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return "".join(out)


def _pass_two_char(text: str, match, replace) -> str:
    """Left-to-right non-overlapping two-character rewrite, resuming after
    each match, mirroring re.sub semantics."""
    out = []
    i = 0
    while i < len(text):
        if i + 1 < len(text) and match(text[i], text[i + 1]):
            out.append(replace(text[i], text[i + 1]))
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _ascii_digit(ch: str) -> bool:
    # str.isdigit would also accept non-ASCII digits; the digit guards in the
    # tokenization rules are ASCII-only.
    return "0" <= ch <= "9"


def naive_tokenize_13a(text: str) -> list[str]:
    norm = text.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    for entity, plain in (("&quot;", '"'), ("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">")):
        norm = norm.replace(entity, plain)
    norm = f" {norm} "
    norm = _pass_punct(norm)
    norm = _pass_two_char(
        norm, lambda a, b: not _ascii_digit(a) and b in ".,", lambda a, b: f"{a} {b} "
    )
    norm = _pass_two_char(
        norm, lambda a, b: a in ".," and not _ascii_digit(b), lambda a, b: f" {a} {b}"
    )
    norm = _pass_two_char(
        norm, lambda a, b: _ascii_digit(a) and b == "-", lambda a, b: f"{a} {b} "
    )
    return norm.split()


# ---------------------------------------------------------------------------
# BLEU from joined-string n-gram dictionaries
# ---------------------------------------------------------------------------


def _gram_dict(tokens: list[str], n: int) -> dict[str, int]:
    grams: dict[str, int] = {}
    for i in range(len(tokens) - n + 1):
        key = "\x1f".join(tokens[i : i + n])
        grams[key] = grams.get(key, 0) + 1
    return grams


def naive_bleu(hyps, refs, max_order: int = 4, smoothing: str = "exp") -> float:
    hyp_tokens = [naive_tokenize_13a(h) for h in hyps]
    ref_tokens = [naive_tokenize_13a(r) for r in refs]
    hyp_len = sum(len(t) for t in hyp_tokens)
    ref_len = sum(len(t) for t in ref_tokens)

    precisions = []
    zero_orders_seen = 0
    for n in range(1, max_order + 1):
        num = 0
        den = 0
        for ht, rt in zip(hyp_tokens, ref_tokens):
            hgrams = _gram_dict(ht, n)
            rgrams = _gram_dict(rt, n)
            for gram, count in hgrams.items():
                den += count
                num += min(count, rgrams.get(gram, 0))
        if den == 0:
            return 0.0
        if num == 0:
            if smoothing != "exp":
                return 0.0
            zero_orders_seen += 1
            precisions.append(1.0 / (2.0**zero_orders_seen * den))
        else:
            precisions.append(num / den)

    if hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    geo_mean = math.prod(precisions) ** (1.0 / max_order)
    return 100.0 * bp * geo_mean


# ---------------------------------------------------------------------------
# chrF++ with per-order dictionaries
# ---------------------------------------------------------------------------


def naive_chrf_pp(hyps, refs) -> float:
    def char_grams(text: str, n: int) -> dict[str, int]:
        squeezed = "".join(ch for ch in text if not ch.isspace())
        grams: dict[str, int] = {}
        for i in range(len(squeezed) - n + 1):
            g = squeezed[i : i + n]
            grams[g] = grams.get(g, 0) + 1
        return grams

    def word_grams(text: str, n: int) -> dict[str, int]:
        words = text.split()
        grams: dict[str, int] = {}
        for i in range(len(words) - n + 1):
            g = "\x1f".join(words[i : i + n])
            grams[g] = grams.get(g, 0) + 1
        return grams

    extractors = [(char_grams, n) for n in range(1, 7)] + [(word_grams, n) for n in (1, 2)]
    f_sum = 0.0
    orders_counted = 0
    for extract, n in extractors:
        hyp_total = ref_total = match = 0
        for h, r in zip(hyps, refs):
            hg = extract(h, n)
            rg = extract(r, n)
            hyp_total += sum(hg.values())
            ref_total += sum(rg.values())
            for gram, count in hg.items():
                match += min(count, rg.get(gram, 0))
        if hyp_total == 0 and ref_total == 0:
            continue
        orders_counted += 1
        precision = match / hyp_total if hyp_total else 0.0
        recall = match / ref_total if ref_total else 0.0
        if precision + recall > 0:
            f_sum += 5.0 * precision * recall / (4.0 * precision + recall)
    if orders_counted == 0:
        return 0.0
    return 100.0 * f_sum / orders_counted


# ---------------------------------------------------------------------------
# ROUGE-L with a full DP table and category-based tokens
# ---------------------------------------------------------------------------


def naive_rouge_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    current = ""
    for ch in text:
        if unicodedata.category(ch)[0] in ("L", "N"):
            current += ch
        else:
            if current:
                tokens.append(current.lower())
            current = ""
    if current:
        tokens.append(current.lower())
    return tokens


def naive_lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def naive_rouge_l_f1(hyp: str, ref: str) -> float:
    ht = naive_rouge_tokens(hyp)
    rt = naive_rouge_tokens(ref)
    if not ht or not rt:
        return 0.0
    lcs = naive_lcs(ht, rt)
    if lcs == 0:
        return 0.0
    p = lcs / len(ht)
    r = lcs / len(rt)
    return 100.0 * 2 * p * r / (p + r)


def naive_rouge_l_corpus(hyps, refs) -> float:
    return sum(naive_rouge_l_f1(h, r) for h, r in zip(hyps, refs)) / len(hyps)


# ---------------------------------------------------------------------------
# Scalar slerp
# ---------------------------------------------------------------------------


def naive_slerp(a: list[float], b: list[float], t: float, eps: float = 1e-8) -> list[float]:
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(x * x for x in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return [(1 - t) * x + t * y for x, y in zip(a, b)]
    dot = sum(x * y for x, y in zip(a, b))
    cos_omega = max(-1.0, min(1.0, dot / (norm_a * norm_b)))
    omega = math.acos(cos_omega)
    if math.sin(omega) < eps:
        return [(1 - t) * x + t * y for x, y in zip(a, b)]
    c_a = math.sin((1 - t) * omega) / math.sin(omega)
    c_b = math.sin(t * omega) / math.sin(omega)
    return [c_a * x + c_b * y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# Second implementation of the seeded partial shuffle
# ---------------------------------------------------------------------------

_M64 = 2**64


def naive_prng(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) % _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _M64
    return (z ^ (z >> 31)), state


def naive_sample(items, n: int, seed: int) -> list:
    out = list(items)
    state = seed % _M64
    for position in range(n):
        span = len(out) - position
        limit = (_M64 // span) * span
        while True:
            draw, state = naive_prng(state)
            if draw < limit:
                break
        pick = position + draw % span
        out[position], out[pick] = out[pick], out[position]
    return out[:n]


# ---------------------------------------------------------------------------
# Code-sample heuristic, regex-free
# ---------------------------------------------------------------------------


def naive_looks_like_code(text: str, min_code_lines: int = 3, symbol_ratio: float = 0.30) -> bool:
    if "```" in text:
        return True
    suspicious = 0
    for line in text.splitlines():
        stripped_end = line.rstrip()
        stripped_start = line.lstrip()
        if stripped_end.endswith((";", "{", "}")):
            suspicious += 1
        elif stripped_start.startswith(("def ", "class ", "import ", "function ")):
            suspicious += 1
    if suspicious >= min_code_lines:
        return True
    if len(text) > 0:
        count = sum(text.count(sym) for sym in "{}();<>=[]")
        if count / len(text) >= symbol_ratio:
            return True
    return False


# ---------------------------------------------------------------------------
# Run fingerprint, framed in one buffer and hashed by hashlib
# ---------------------------------------------------------------------------


def naive_fingerprint(parts) -> str:
    """sha256 hex of every part as a u64 little-endian byte length followed by
    its UTF-8 bytes, the whole message built first and hashed in one call."""
    message = bytearray()
    for part in parts:
        blob = bytes(part, "utf-8")
        message += struct.pack("<Q", len(blob)) + blob
    return hashlib.sha256(bytes(message)).hexdigest()
