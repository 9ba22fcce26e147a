"""Seeded evaluation-set construction and report rendering.

Sampling must select the same items on every machine and language runtime,
so randomness comes from a fully specified 64-bit generator (a splitmix-style
stepper) driving a partial Fisher-Yates shuffle with rejection-sampled
bounded draws. No platform RNG is involved anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TypeVar

from . import metrics, pipeline
from .errors import LengthMismatch, ToolError

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


class NTooLarge(ToolError):
    pass


class DuplicateKey(ToolError):
    pass


def prng_next(state: int) -> tuple[int, int]:
    """One generator step; returns (output, new state), all mod 2**64."""
    state = (state + _GOLDEN_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)), state


def _bounded(state: int, n: int) -> tuple[int, int]:
    """Uniform draw in [0, n) by rejection: discard the partial top bucket."""
    threshold = ((1 << 64) // n) * n
    while True:
        value, state = prng_next(state)
        if value < threshold:
            return value % n, state


@dataclass(frozen=True)
class QuestionItem:
    subject: str
    item_id: str
    text: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.subject, self.item_id)


def sample_questions(items: Sequence[T], n: int, seed: int) -> list[T]:
    """Uniformly sample n items without replacement, in selection order.

    A partial Fisher-Yates shuffle: position i swaps with a bounded draw from
    the remaining suffix. Deterministic in (items order, n, seed).
    """
    if not 0 <= n <= len(items):
        raise NTooLarge(f"cannot sample {n} from {len(items)} items")
    pool = list(items)
    state = seed & _MASK64
    for i in range(n):
        offset, state = _bounded(state, len(pool) - i)
        j = i + offset
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:n]


@dataclass(frozen=True)
class AlignedPair:
    en: QuestionItem
    ar_reference: str


def align_references(
    sample: Sequence[QuestionItem], ar_items: Sequence[QuestionItem]
) -> tuple[list[AlignedPair], list[tuple[str, str]]]:
    """Pair each sampled English item with the reference sharing its
    (subject, item_id). Unmatched keys are reported, never silently dropped,
    and pairs keep the sample order."""
    by_key: dict[tuple[str, str], QuestionItem] = {}
    for item in ar_items:
        if item.key in by_key:
            raise DuplicateKey(f"duplicate reference key {item.key}")
        by_key[item.key] = item

    pairs: list[AlignedPair] = []
    misses: list[tuple[str, str]] = []
    for item in sample:
        match = by_key.get(item.key)
        if match is None:
            misses.append(item.key)
        else:
            pairs.append(AlignedPair(en=item, ar_reference=match.text))
    return pairs, misses


def render_report_row(system_name: str, report: metrics.MetricReport) -> str:
    """One table row: system name then BLEU, ROUGE-L, chrF++ at one decimal."""
    return f"{system_name} {report.bleu:.1f} {report.rouge_l:.1f} {report.chrf_pp:.1f}"


def report_to_json(system_name: str, report: metrics.MetricReport) -> str:
    """Full-precision machine-readable form of a report."""
    return json.dumps({"system": system_name, **vars(report)}, indent=2, sort_keys=True)


def build_report(
    pairs: Sequence[AlignedPair], outputs: Sequence[str], system_name: str
) -> tuple[metrics.MetricReport, str]:
    """Score system outputs against the aligned references and render the
    one-decimal table row."""
    if len(outputs) != len(pairs):
        raise LengthMismatch(f"{len(outputs)} outputs vs {len(pairs)} pairs")
    report = metrics.evaluate_pairs(
        [(output, pair.ar_reference) for output, pair in zip(outputs, pairs)]
    )
    return report, render_report_row(system_name, report)


_ITEM_FIELDS = ("subject", "item_id", "text")


def _item_from(obj: dict) -> QuestionItem:
    return QuestionItem(
        subject=str(obj["subject"]), item_id=str(obj["item_id"]), text=obj["text"]
    )


def load_question_items(path: str | Path) -> list[QuestionItem]:
    """Read {subject, item_id, text} records from a corpus-format file. The
    text must be a string; subject and item_id may also be numbers."""
    records = pipeline.read_records(path, required=_ITEM_FIELDS, text=("text",))
    return [_item_from(obj) for obj in records]


def load_aligned_pairs(path: str | Path) -> list[AlignedPair]:
    """Read the {subject, item_id, text, reference} records write_eval_set
    puts in pairs.jsonl; text and reference must be strings."""
    records = pipeline.read_records(
        path, required=_ITEM_FIELDS + ("reference",), text=("text", "reference")
    )
    return [AlignedPair(en=_item_from(obj), ar_reference=obj["reference"]) for obj in records]


def write_eval_set(
    out_dir: str | Path,
    sample: Sequence[QuestionItem],
    pairs: Sequence[AlignedPair],
    misses: Sequence[tuple[str, str]],
) -> None:
    """Write sample.jsonl (each item's fields), pairs.jsonl (its English item's
    fields and ``reference``) and misses.jsonl (the keys) into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_records(out_dir / "sample.jsonl", map(vars, sample))
    pipeline.write_records(
        out_dir / "pairs.jsonl", ({**vars(p.en), "reference": p.ar_reference} for p in pairs)
    )
    pipeline.write_records(
        out_dir / "misses.jsonl",
        ({"subject": subject, "item_id": item_id} for subject, item_id in misses),
    )
