"""Bilingual corpus construction: prompt rendering, judge filtering, pairing,
code-sample exclusion and corpus mixing.

Corpus files are UTF-8 with one flat JSON object per line. Parallel pair
records carry {ar, en}; four-way records carry {instr_en, instr_ar, resp_en,
resp_ar, source}. Record serialization is canonical (sorted keys, no ASCII
escaping) so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import inference
from .errors import LengthMismatch, ToolError
from .state import JobState

# Prompt sent to the full-size translation model.
TEACHER_TEMPLATE = "Translate from English to Arabic: {text}"

# Prompt sent to the small fine-tuned translation model. The trailing space
# on the first line and the em-dash are load-bearing: rendered prompts are
# compared byte-for-byte against golden files.
LIGHTWEIGHT_TEMPLATE = (
    "You are a professional translation engine. \n"
    "Translate English to Modern Standard Arabic.\n"
    "Reply ONLY with the Arabic translation—no quotes, notes, or explanations.\n"
    "Translate everything that follows into Arabic: {text}"
)

# Prompt sent to the accept/reject judge. Leading and trailing newlines are
# part of the template.
JUDGE_TEMPLATE = (
    "\n"
    "You are a strict bilingual judge. You will be given a translation pair.\n"
    "Arabic: {ar_text}\n"
    "English: {en_text}\n"
    "\n"
    "If the English is a correct and natural translation of the Arabic, output only:\n"
    "accept\n"
    "Otherwise, output only:\n"
    "reject\n"
)


class EmptyText(ToolError):
    pass


class EmptyField(ToolError):
    pass


class CountMismatch(ToolError):
    pass


class MalformedLine(ToolError):
    def __init__(self, source: str, line_no: int, reason: str):
        super().__init__(f"{source} line {line_no}: {reason}")
        self.source = source
        self.line_no = line_no


def _fill(template: str, placeholder: str, value: str) -> str:
    # Single-pass substitution: values containing braces or other
    # placeholders must pass through verbatim.
    head, sep, tail = template.partition(placeholder)
    if not sep:
        raise ValueError(f"template lacks {placeholder}")
    return head + value + tail


def render_translation_prompt(text: str, template: str = "teacher") -> str:
    """Render the translation prompt for one English text.

    ``template`` selects "teacher" (single-line) or "lightweight" (the
    four-line block). No normalization is applied to the text.
    """
    if not text:
        raise EmptyText("cannot render a prompt for empty text")
    if template == "teacher":
        return _fill(TEACHER_TEMPLATE, "{text}", text)
    if template == "lightweight":
        return _fill(LIGHTWEIGHT_TEMPLATE, "{text}", text)
    raise ValueError(f"unknown template {template!r}")


def render_judge_prompt(ar: str, en: str) -> str:
    """Render the accept/reject judge prompt for one translation pair."""
    if not ar or not en:
        raise EmptyText("judge prompt needs both sides of the pair")
    head, _, tail = JUDGE_TEMPLATE.partition("{ar_text}")
    mid, _, tail = tail.partition("{en_text}")
    return head + ar + mid + en + tail


class VerdictKind(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    UNPARSEABLE = "unparseable"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    raw: str = ""


def parse_verdict(raw: str) -> Verdict:
    """Normalize a judge reply: lowercase, trim, strip trailing sentence
    punctuation; only an exact "accept" or "reject" parses, anything else is
    Unparseable and retains the raw reply verbatim."""
    normalized = raw.strip().lower().rstrip(".!?").rstrip()
    if normalized == "accept":
        return Verdict(VerdictKind.ACCEPT)
    if normalized == "reject":
        return Verdict(VerdictKind.REJECT)
    return Verdict(VerdictKind.UNPARSEABLE, raw=raw)


@dataclass(frozen=True)
class FilterStats:
    candidates: int
    accepted: int
    rejected: int
    unparseable: int

    def __post_init__(self) -> None:
        if self.accepted + self.rejected + self.unparseable != self.candidates:
            raise ValueError("verdict counts do not sum to the candidate count")

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.candidates if self.candidates else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {**asdict(self), "acceptance_rate": self.acceptance_rate}, indent=2, sort_keys=True
        )


def filter_parallel_corpus(
    pairs: Iterable[tuple[str, str]],
    judge: inference.EndpointConfig | Callable[[str], str],
    *,
    state: JobState | str | Path | None = None,
    concurrency: int = 1,
) -> tuple[list[tuple[str, str]], FilterStats]:
    """Judge (ar, en) pairs once each and keep those marked accept.

    ``judge`` is either an endpoint config (judged through the batch client,
    resumable via ``state``) or a plain callable from rendered prompt to raw
    reply for offline runs. ``state`` may be a path, in which case the job
    state is opened here bound to this run's fingerprint. Unparseable replies
    are dropped from the accepted output but counted separately from rejects.
    Input order is preserved.
    """
    if callable(judge):
        # Offline path: judge pair by pair without materializing prompts.
        judged = ((pair, judge(render_judge_prompt(*pair))) for pair in pairs)
    else:
        if state is None:
            raise ValueError("endpoint judging requires a job state")
        pair_list = list(pairs)
        items = [
            inference.BatchItem(i, render_judge_prompt(ar, en))
            for i, (ar, en) in enumerate(pair_list)
        ]
        if isinstance(state, JobState):
            replies = inference.run_batch(items, judge, concurrency, state)
        else:
            with JobState(state, inference.batch_fingerprint(items, judge)) as job:
                replies = inference.run_batch(items, judge, concurrency, job)
        judged = zip(pair_list, replies)

    accepted: list[tuple[str, str]] = []
    counts = Counter()
    for pair, reply in judged:
        kind = parse_verdict(reply).kind
        counts[kind] += 1
        if kind is VerdictKind.ACCEPT:
            accepted.append(pair)
    stats = FilterStats(
        counts.total(), counts[VerdictKind.ACCEPT], counts[VerdictKind.REJECT],
        counts[VerdictKind.UNPARSEABLE],
    )
    return accepted, stats


@dataclass(frozen=True)
class InstructionRecord:
    id: str
    instruction: str
    response: str
    source: str
    system: str | None = None

    def __post_init__(self) -> None:
        if not self.instruction:
            raise EmptyField("instruction must be non-empty")


@dataclass(frozen=True)
class BilingualTuple:
    instr_en: str
    instr_ar: str
    resp_en: str
    resp_ar: str


def build_bilingual_tuples(
    records: Sequence[InstructionRecord],
    instr_ar: Sequence[str],
    resp_ar: Sequence[str],
) -> list[BilingualTuple]:
    """Pair each record's English instruction/response with its translations,
    aligned by index. All four fields of every tuple must be non-empty."""
    if not (len(records) == len(instr_ar) == len(resp_ar)):
        raise LengthMismatch(
            f"{len(records)} records vs {len(instr_ar)} instruction and "
            f"{len(resp_ar)} response translations"
        )
    tuples = []
    for record, ar_instruction, ar_response in zip(records, instr_ar, resp_ar):
        fields = (record.instruction, ar_instruction, record.response, ar_response)
        if not all(fields):
            raise EmptyField(f"record {record.id!r} has an empty tuple field")
        tuples.append(BilingualTuple(*fields))
    return tuples


# --------------------------------------------------------------------------
# Code-sample exclusion
# --------------------------------------------------------------------------

_CODE_LINE = re.compile(
    r"[;{}]\s*$"  # statement terminators / block braces at line end
    r"|^\s*(?:def |class |import |function )"
)
_CODE_SYMBOLS = frozenset("{}();<>=[]")


def looks_like_code(
    text: str, *, min_code_lines: int = 3, symbol_ratio: float = 0.30
) -> bool:
    """Heuristic used to drop samples that would not survive translation:
    a fenced block, enough code-shaped lines, or a high symbol density."""
    if "```" in text:
        return True
    code_lines = sum(1 for line in text.splitlines() if _CODE_LINE.search(line))
    if code_lines >= min_code_lines:
        return True
    if text:
        symbols = sum(1 for ch in text if ch in _CODE_SYMBOLS)
        if symbols / len(text) >= symbol_ratio:
            return True
    return False


def filter_code_samples(
    records: Iterable[InstructionRecord],
    *,
    min_code_lines: int = 3,
    symbol_ratio: float = 0.30,
) -> tuple[list[InstructionRecord], int]:
    """Drop records whose instruction or response looks like code; the order
    of kept records is preserved and kept + dropped equals the input count."""
    kept: list[InstructionRecord] = []
    dropped = 0
    for record in records:
        if looks_like_code(
            record.instruction, min_code_lines=min_code_lines, symbol_ratio=symbol_ratio
        ) or looks_like_code(
            record.response, min_code_lines=min_code_lines, symbol_ratio=symbol_ratio
        ):
            dropped += 1
        else:
            kept.append(record)
    return kept, dropped


# --------------------------------------------------------------------------
# Corpus line format and mixing
# --------------------------------------------------------------------------


def dumps_record(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_records(path: str | Path, records: Iterable[dict]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dumps_record(record))
            fh.write("\n")
            count += 1
    return count


def read_records(
    path: str | Path,
    source: str | None = None,
    required: Sequence[str] = (),
    text: Sequence[str] = (),
) -> Iterator[dict]:
    """Stream one JSON object per line; malformed lines, objects lacking a
    ``required`` field and ``text`` fields that are present but not strings
    are an error."""
    label = source if source is not None else str(path)
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise MalformedLine(
                    label, line_no, f"not UTF-8 at byte {exc.start}: {exc.reason}"
                ) from exc
            if not line:
                raise MalformedLine(label, line_no, "blank line")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(label, line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedLine(label, line_no, "line is not an object")
            for name in required:
                if name not in record:
                    raise MalformedLine(label, line_no, f"missing field {name!r}")
            for name in text:
                value = record.get(name, "")
                if not isinstance(value, str):
                    kind = "null" if value is None else type(value).__name__
                    raise MalformedLine(label, line_no, f"field {name!r} is {kind}, not a string")
            yield record


def load_parallel_pairs(path: str | Path) -> list[tuple[str, str]]:
    """Read {ar, en} pair records, both fields strings, as (ar, en) tuples."""
    fields = ("ar", "en")
    return [(obj["ar"], obj["en"]) for obj in read_records(path, required=fields, text=fields)]


def write_parallel_pairs(path: str | Path, pairs: Iterable[tuple[str, str]]) -> int:
    return write_records(path, ({"ar": ar, "en": en} for ar, en in pairs))


def load_instruction_records(path: str | Path) -> list[InstructionRecord]:
    """Read instruction records. ``instruction`` and ``response`` must be
    strings, and ``system`` too when present; a record that breaks this, or
    has an empty instruction, is a MalformedLine naming its line."""
    records = []
    required = ("instruction", "response")
    lines = read_records(path, required=required, text=required + ("system",))
    for line_no, obj in enumerate(lines, start=1):
        try:
            records.append(
                InstructionRecord(
                    id=str(obj.get("id", line_no - 1)),
                    instruction=obj["instruction"],
                    response=obj["response"],
                    source=str(obj.get("source", Path(path).stem)),
                    system=obj.get("system"),
                )
            )
        except EmptyField as exc:
            raise MalformedLine(str(path), line_no, str(exc)) from exc
    return records


def write_instruction_records(path: str | Path, records: Iterable[InstructionRecord]) -> int:
    """Write records in the form load_instruction_records reads back."""
    return write_records(
        path,
        (
            {
                "id": r.id,
                "instruction": r.instruction,
                "response": r.response,
                "source": r.source,
                **({"system": r.system} if r.system is not None else {}),
            }
            for r in records
        ),
    )


def write_bilingual_tuples(
    path: str | Path,
    records: Sequence[InstructionRecord],
    instr_ar: Sequence[str],
    resp_ar: Sequence[str],
) -> int:
    """Pair records with their translations (see build_bilingual_tuples) and
    write one four-way record per input record, tagged with its source."""
    tuples = build_bilingual_tuples(records, instr_ar, resp_ar)
    return write_records(
        path,
        (
            {
                "instr_en": t.instr_en,
                "instr_ar": t.instr_ar,
                "resp_en": t.resp_en,
                "resp_ar": t.resp_ar,
                "source": record.source,
            }
            for t, record in zip(tuples, records)
        ),
    )


@dataclass(frozen=True)
class MixSource:
    name: str
    path: Path
    expected: int


@dataclass(frozen=True)
class MixManifest:
    counts: tuple[tuple[str, int], ...]
    total: int

    def to_json(self) -> str:
        return json.dumps(
            {"sources": [{"name": n, "count": c} for n, c in self.counts], "total": self.total},
            indent=2,
            sort_keys=True,
        )


def mix_corpora(
    sources: Sequence[MixSource],
    out_path: str | Path,
    *,
    shuffle_seed: int | None = None,
) -> MixManifest:
    """Concatenate corpora in listed order into one file, tagging every line
    with its source name. Fails with CountMismatch when a source's observed
    line count differs from its declared count.

    With ``shuffle_seed`` the combined lines are shuffled by the package's
    own deterministic generator; the line multiset is unchanged.
    """
    lines: list[str] = []
    counts: list[tuple[str, int]] = []
    for source in sources:
        n = 0
        for record in read_records(source.path, source=source.name):
            record["source"] = source.name
            lines.append(dumps_record(record))
            n += 1
        if n != source.expected:
            raise CountMismatch(f"{source.name}: expected {source.expected} records, found {n}")
        counts.append((source.name, n))

    if shuffle_seed is not None:
        from .evalset import shuffled

        lines = shuffled(lines, shuffle_seed)

    with open(out_path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return MixManifest(counts=tuple(counts), total=len(lines))
