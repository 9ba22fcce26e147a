from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from mtpipe import pipeline
from mtpipe.inference import EndpointConfig, ExhaustedRetries
from mtpipe.pipeline import (
    BilingualTuple,
    EmptyText,
    FilterStats,
    InstructionRecord,
    LengthMismatch,
    MixSource,
    VerdictKind,
)

from oracles import naive_looks_like_code
from stubserver import StubEndpoint

GOLDEN = Path(__file__).parent / "data" / "golden"


# --------------------------------------------------------------------------
# Prompt rendering
# --------------------------------------------------------------------------


def test_teacher_prompt_exact():
    assert (
        pipeline.render_translation_prompt("Hello", "teacher")
        == "Translate from English to Arabic: Hello"
    )


def test_teacher_prompt_matches_golden_bytes():
    rendered = pipeline.render_translation_prompt("Hello", "teacher")
    assert rendered.encode("utf-8") == (GOLDEN / "prompt_teacher.txt").read_bytes()


def test_lightweight_prompt_matches_golden_bytes():
    rendered = pipeline.render_translation_prompt("Hi", "lightweight")
    assert rendered.encode("utf-8") == (GOLDEN / "prompt_lightweight.txt").read_bytes()
    assert rendered.endswith("Translate everything that follows into Arabic: Hi")


def test_judge_prompt_matches_golden_bytes():
    rendered = pipeline.render_judge_prompt("مرحبا", "Hello")
    assert rendered.encode("utf-8") == (GOLDEN / "prompt_judge.txt").read_bytes()
    assert "Arabic: مرحبا\n" in rendered
    assert "English: Hello\n" in rendered


def test_prompt_substitution_is_literal():
    # Values containing braces or placeholder-like text must not be
    # reinterpreted.
    rendered = pipeline.render_judge_prompt("{en_text}", "{ar_text} and {x}")
    assert "Arabic: {en_text}\n" in rendered
    assert "English: {ar_text} and {x}\n" in rendered
    teacher = pipeline.render_translation_prompt("{text} {text}", "teacher")
    assert teacher == "Translate from English to Arabic: {text} {text}"


def test_empty_text_guards():
    with pytest.raises(EmptyText):
        pipeline.render_translation_prompt("", "teacher")
    with pytest.raises(EmptyText):
        pipeline.render_judge_prompt("x", "")
    with pytest.raises(EmptyText):
        pipeline.render_judge_prompt("", "x")


# --------------------------------------------------------------------------
# Verdicts
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,kind",
    [
        ("accept", VerdictKind.ACCEPT),
        ("reject", VerdictKind.REJECT),
        ("  Reject.\n", VerdictKind.REJECT),
        ("ACCEPT!", VerdictKind.ACCEPT),
        ("accept.", VerdictKind.ACCEPT),
        ("I would accept this", VerdictKind.UNPARSEABLE),
        ("", VerdictKind.UNPARSEABLE),
        ("acceptable", VerdictKind.UNPARSEABLE),
        ("reject reject", VerdictKind.UNPARSEABLE),
    ],
)
def test_parse_verdict(raw, kind):
    assert pipeline.parse_verdict(raw).kind is kind


def test_unparseable_retains_raw():
    verdict = pipeline.parse_verdict("maybe? hard to say")
    assert verdict.kind is VerdictKind.UNPARSEABLE
    assert verdict.raw == "maybe? hard to say"


def test_filter_stats_invariant():
    with pytest.raises(ValueError):
        FilterStats(candidates=3, accepted=1, rejected=1, unparseable=0)
    stats = FilterStats(candidates=4, accepted=1, rejected=2, unparseable=1)
    assert stats.acceptance_rate == 0.25


# --------------------------------------------------------------------------
# Judge filtering
# --------------------------------------------------------------------------


def test_filter_constant_accept():
    pairs = [(f"ar{i}", f"en{i}") for i in range(5)]
    accepted, stats = pipeline.filter_parallel_corpus(pairs, lambda prompt: "accept")
    assert accepted == pairs
    assert (stats.candidates, stats.accepted, stats.rejected, stats.unparseable) == (5, 5, 0, 0)


def test_filter_alternating_verdicts_preserves_order():
    pairs = [(f"ar{i}", f"en{i}") for i in range(10)]
    cycle = itertools.cycle(["accept", "reject"])
    accepted, stats = pipeline.filter_parallel_corpus(pairs, lambda prompt: next(cycle))
    assert accepted == [pairs[i] for i in range(0, 10, 2)]
    assert stats.accepted == 5
    assert stats.rejected == 5


def test_filter_counts_unparseable_separately():
    pairs = [("a", "b")] * 3
    replies = iter(["accept", "hmm", "reject"])
    accepted, stats = pipeline.filter_parallel_corpus(pairs, lambda prompt: next(replies))
    assert len(accepted) == 1
    assert (stats.accepted, stats.rejected, stats.unparseable) == (1, 1, 1)


def test_filter_judge_sees_rendered_prompt():
    seen = []

    def judge(prompt):
        seen.append(prompt)
        return "reject"

    pipeline.filter_parallel_corpus([("AR", "EN")], judge)
    assert seen == [pipeline.render_judge_prompt("AR", "EN")]


def _scripted_verdict(prompt: str) -> str:
    """accept, reject or an unparseable reply, by the number of the pair."""
    i = int(prompt.split("English: en", 1)[1].split("\n", 1)[0])
    return ("accept", "reject", "no idea")[i % 3]


def test_endpoint_filter_resumes_after_a_failure_and_agrees_with_a_callable_judge(tmp_path):
    pairs = [(f"ar{i}", f"en{i}") for i in range(9)]
    prompts = [pipeline.render_judge_prompt(*pair) for pair in pairs]
    broken = True

    def behavior(prompt, nth):
        if broken and prompt == prompts[5]:
            return ("status", 500)
        return ("ok", _scripted_verdict(prompt))

    state = tmp_path / "judge.state"
    with StubEndpoint(behavior) as stub:
        cfg = EndpointConfig(stub.base_url, "judge", max_retries=0, backoff_base=0.01)
        with pytest.raises(ExhaustedRetries):
            pipeline.filter_parallel_corpus(pairs, cfg, state=state, concurrency=1)
        assert all(stub.calls_per_prompt[prompt] == 1 for prompt in prompts[:6])

        broken = False
        accepted, stats = pipeline.filter_parallel_corpus(pairs, cfg, state=state, concurrency=2)
        # The rerun sent only the pairs the first run had not judged: every
        # prompt went once, the failed one twice, and none was judged twice.
        assert stub.calls_per_prompt == {**dict.fromkeys(prompts, 1), prompts[5]: 2}
        assert set(stub.successes_per_prompt.values()) == {1}
    assert (accepted, stats) == pipeline.filter_parallel_corpus(pairs, _scripted_verdict)
    assert (stats.accepted, stats.rejected, stats.unparseable) == (3, 3, 3)


def test_endpoint_filter_without_state_is_a_value_error():
    cfg = EndpointConfig("http://127.0.0.1:1", "judge")
    with pytest.raises(ValueError, match="requires a job state"):
        pipeline.filter_parallel_corpus([("a", "b")], cfg)


# --------------------------------------------------------------------------
# Bilingual tuples
# --------------------------------------------------------------------------


def record(i: int, instruction="ask", response="answer") -> InstructionRecord:
    return InstructionRecord(
        id=str(i), instruction=instruction, response=response, source="unit"
    )


def test_build_tuples_single():
    tuples = pipeline.build_bilingual_tuples([record(0)], ["طلب"], ["جواب"])
    assert tuples == [BilingualTuple("ask", "طلب", "answer", "جواب")]


def test_build_tuples_length_mismatch():
    with pytest.raises(LengthMismatch):
        pipeline.build_bilingual_tuples([record(0)] * 3, ["a", "b"], ["c", "d"])


def test_build_tuples_empty_field():
    with pytest.raises(EmptyText):
        pipeline.build_bilingual_tuples([record(0)], [""], ["x"])
    with pytest.raises(EmptyText):
        pipeline.build_bilingual_tuples([record(0, response="")], ["x"], ["y"])


def test_build_tuples_count_preserved():
    n = 1000
    tuples = pipeline.build_bilingual_tuples(
        [record(i) for i in range(n)], ["أ"] * n, ["ب"] * n
    )
    assert len(tuples) == n


def test_build_tuples_405k_yields_810k_directed_pairs():
    n = 405_000
    tuples = pipeline.build_bilingual_tuples(
        [record(i) for i in range(n)], ["أ"] * n, ["ب"] * n
    )
    assert len(tuples) == n
    # Each tuple carries an instruction pair and a response pair.
    assert 2 * len(tuples) == 810_000


# --------------------------------------------------------------------------
# Code filter
# --------------------------------------------------------------------------


def test_fence_rule_drops():
    rec = record(0, response="Use this:\n```python\nprint('hi')\n```")
    kept, dropped = pipeline.filter_code_samples([rec])
    assert kept == [] and dropped == 1


def test_plain_prose_kept():
    rec = record(0, instruction="What is the capital of France?", response="Paris.")
    kept, dropped = pipeline.filter_code_samples([rec])
    assert kept == [rec] and dropped == 0


def test_code_signature_lines_drop():
    body = "import os\ndef main():\n    x = 1;\nclass Foo:"
    rec = record(0, response=body)
    assert pipeline.looks_like_code(body)
    kept, dropped = pipeline.filter_code_samples([rec])
    assert dropped == 1


def test_symbol_ratio_drop():
    rec = record(0, response="{}();<>=[]{}();<>=[]")
    kept, dropped = pipeline.filter_code_samples([rec])
    assert dropped == 1


def test_mixed_corpus_matches_oracle(rng):
    samples = [
        "Explain photosynthesis in simple terms.",
        "def f(x):\n    return x\n\nprint(f(1));\nimport sys",
        "The answer is 42.",
        "x = {1: 2}; y = [3]; z = (4);",
        "```\nls -la\n```",
        "A poem about the sea, with waves; and wind; and salt;",
        "for (int i = 0; i < n; i++) {\n  sum += i;\n}",
        "He said: \"to be or not to be\" and left.",
        "SELECT * FROM users WHERE id = 1;",
        "Water boils at 100 degrees Celsius at sea level.",
    ] * 2
    records = [record(i, instruction="i" + str(i), response=body) for i, body in enumerate(samples)]
    kept, dropped = pipeline.filter_code_samples(records)
    oracle_kept = [
        r for r in records
        if not naive_looks_like_code(r.instruction) and not naive_looks_like_code(r.response)
    ]
    assert kept == oracle_kept
    assert dropped + len(kept) == len(records)


def test_conservation_exact(rng):
    records = [record(i, response=("x;" * i if i % 3 else "prose")) for i in range(30)]
    kept, dropped = pipeline.filter_code_samples(records)
    assert len(kept) + dropped == 30
    # Kept order matches input order.
    kept_ids = [r.id for r in kept]
    assert kept_ids == sorted(kept_ids, key=int)


# --------------------------------------------------------------------------
# Corpus files and mixing
# --------------------------------------------------------------------------


def write_pairs(path: Path, n: int, prefix: str) -> None:
    pipeline.write_records(
        path, ({"ar": f"{prefix}-ar-{i}", "en": f"{prefix}-en-{i}"} for i in range(n))
    )


def test_records_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    rows = [{"ar": "سلام", "en": "peace"}, {"ar": "شكرا", "en": "thanks"}]
    pipeline.write_records(path, rows)
    assert list(pipeline.read_records(path)) == rows
    # Serialization is canonical and unescaped.
    assert "سلام" in path.read_text(encoding="utf-8")


def test_read_records_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ok": "yes"}\nnot json\n', encoding="utf-8")
    with pytest.raises(pipeline.MalformedLine) as err:
        list(pipeline.read_records(path, source="bad"))
    assert err.value.line_no == 2


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDBFF", "\\udc00", "\\uDFFF"])
def test_read_records_rejects_a_lone_surrogate_escape(tmp_path, escape):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"a": "ok"}\n{"a": "x' + escape + '"}\n', encoding="utf-8")
    with pytest.raises(pipeline.MalformedLine) as err:
        list(pipeline.read_records(path))
    assert err.value.line_no == 2


def test_read_records_reads_ascii_escaped_text_and_surrogate_pairs(tmp_path):
    rows = [{"ar": "سلام", "emoji": "\U0001F600", "slash": "\\ud800"}]
    path = tmp_path / "escaped.jsonl"
    path.write_text(json.dumps(rows[0]) + "\n", encoding="ascii")
    assert "\\u0633" in path.read_text() and "\\ud83d\\ude00" in path.read_text()
    assert list(pipeline.read_records(path)) == rows


def test_parallel_pair_missing_field_names_its_line(tmp_path):
    path = tmp_path / "pairs.jsonl"
    pipeline.write_records(path, [{"ar": "أ", "en": "a"}, {"ar": "ب"}])
    with pytest.raises(pipeline.MalformedLine) as err:
        pipeline.load_parallel_pairs(path)
    assert err.value.line_no == 2
    assert "missing field 'en'" in str(err.value)


def test_mix_counts_and_tagging(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_pairs(a, 3, "a")
    write_pairs(b, 2, "b")
    out = tmp_path / "mixed.jsonl"
    manifest = pipeline.mix_corpora(
        [MixSource("alpha", a, 3), MixSource("beta", b, 2)], out
    )
    assert manifest.total == 5
    assert manifest.counts == (("alpha", 3), ("beta", 2))
    rows = list(pipeline.read_records(out))
    assert [r["source"] for r in rows] == ["alpha"] * 3 + ["beta"] * 2
    payload = json.loads(manifest.to_json())
    assert payload["total"] == 5


def test_mix_empty_source(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    manifest = pipeline.mix_corpora([MixSource("none", empty, 0)], out)
    assert manifest.total == 0
    assert out.read_text(encoding="utf-8") == ""


def test_mix_count_mismatch(tmp_path):
    a = tmp_path / "a.jsonl"
    write_pairs(a, 3, "a")
    with pytest.raises(pipeline.CountMismatch):
        pipeline.mix_corpora([MixSource("alpha", a, 4)], tmp_path / "out.jsonl")


def test_mix_shuffle_preserves_multiset(tmp_path):
    a = tmp_path / "a.jsonl"
    write_pairs(a, 100, "x")
    plain = tmp_path / "plain.jsonl"
    shuffled = tmp_path / "shuffled.jsonl"
    pipeline.mix_corpora([MixSource("s", a, 100)], plain)
    pipeline.mix_corpora([MixSource("s", a, 100)], shuffled, shuffle_seed=9)
    plain_lines = plain.read_text(encoding="utf-8").splitlines()
    shuffled_lines = shuffled.read_text(encoding="utf-8").splitlines()
    assert plain_lines != shuffled_lines
    assert sorted(plain_lines) == sorted(shuffled_lines)


def test_mix_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    write_pairs(a, 10, "x")
    out1 = tmp_path / "m1.jsonl"
    out2 = tmp_path / "m2.jsonl"
    pipeline.mix_corpora([MixSource("s", a, 10)], out1, shuffle_seed=3)
    pipeline.mix_corpora([MixSource("s", a, 10)], out2, shuffle_seed=3)
    assert out1.read_bytes() == out2.read_bytes()


def test_instruction_records_load(tmp_path):
    path = tmp_path / "r.jsonl"
    pipeline.write_records(
        path,
        [
            {"id": "7", "instruction": "ask", "response": "ans", "source": "src"},
            {"instruction": "ask2", "response": "ans2"},
        ],
    )
    records = pipeline.load_instruction_records(path)
    assert records[0].id == "7" and records[0].source == "src"
    assert records[1].id == "1" and records[1].source == "r"

    written = [
        InstructionRecord("a-1", "ask", "ans", "web", system="Be brief."),
        InstructionRecord("b-2", "سؤال", "جواب", "books"),
        InstructionRecord("c-3", "ask {text}", "", "books", system=""),
    ]
    path = tmp_path / "w.jsonl"
    assert pipeline.write_instruction_records(path, written) == 3
    expected = (
        '{"id":"a-1","instruction":"ask","response":"ans","source":"web","system":"Be brief."}\n'
        '{"id":"b-2","instruction":"سؤال","response":"جواب","source":"books"}\n'
        '{"id":"c-3","instruction":"ask {text}","response":"","source":"books","system":""}\n'
    ).encode("utf-8")
    assert path.read_bytes() == expected
    assert pipeline.load_instruction_records(path) == written
    pipeline.write_instruction_records(path, pipeline.load_instruction_records(path))
    assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "row, reason",
    [
        ({"response": "r"}, "missing field 'instruction'"),
        ({"instruction": "i"}, "missing field 'response'"),
        ({"instruction": None, "response": "r"}, "field 'instruction' is null, not a string"),
        ({"instruction": "i", "response": 3}, "field 'response' is int, not a string"),
        ({"instruction": "i", "response": "r", "system": None},
         "field 'system' is null, not a string"),
        ({"instruction": "", "response": "r"}, "instruction must be non-empty"),
    ],
    ids=["no-instruction", "no-response", "null-instruction", "int-response", "null-system",
         "empty-instruction"],
)
def test_instruction_records_reject_bad_fields_with_line(tmp_path, row, reason):
    path = tmp_path / "r.jsonl"
    pipeline.write_records(path, [{"instruction": "ok", "response": "ok", "system": "s"}, row])
    with pytest.raises(pipeline.MalformedLine) as err:
        pipeline.load_instruction_records(path)
    assert str(err.value) == f"{path} line 2: {reason}"
