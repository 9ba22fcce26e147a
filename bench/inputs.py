"""Seeded synthetic inputs for the three workloads.

Every generator takes a ``numpy.random.Generator`` built from the run's seed
and a ``Sizes`` record, writes the files the program reads, and returns what
the checks need to know about them. The same seed and sizes give the same
bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sizes:
    # ckpt: a decoder with `layers` blocks of width `dim`, MLP width
    # `ffn`, and a `vocab` x `dim` embedding.
    layers: int
    dim: int
    ffn: int
    vocab: int
    # corpus
    records: int
    pairs: int
    # eval
    questions: int
    sample: int


FULL = Sizes(layers=4, dim=512, ffn=1408, vocab=8192, records=180, pairs=750,
             questions=4000, sample=1200)
TINY = Sizes(layers=1, dim=32, ffn=64, vocab=64, records=12, pairs=20,
             questions=40, sample=16)

# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CKPT_SKIP = ("*norm*", "*embed*")


def _bf16_bits(values: np.ndarray) -> np.ndarray:
    """float64 -> BF16 bit patterns, round to nearest even via float32."""
    bits = values.astype(np.float32).view(np.uint32)
    return ((bits + 0x7FFF + ((bits >> 16) & 1)) >> 16).astype("<u2")


def write_raw_checkpoint(path: Path, tensors: dict[str, tuple[str, tuple, bytes]],
                         metadata: dict[str, str]) -> None:
    """Write the container format by hand: u64 header length, JSON header
    with sorted names, payloads packed in that order."""
    header: dict[str, object] = {"__metadata__": metadata} if metadata else {}
    offset = 0
    for name in sorted(tensors):
        dtype, shape, data = tensors[name]
        header[name] = {"dtype": dtype, "shape": list(shape),
                        "data_offsets": [offset, offset + len(data)]}
        offset += len(data)
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in sorted(tensors):
            fh.write(tensors[name][2])


def _decoder_weights(rng: np.random.Generator, s: Sizes) -> dict[str, tuple[tuple, np.ndarray]]:
    """Float64 weights of a decoder: attention, MLP and embedding matrices
    with init-scale spreads, plus norm vectors near 1."""
    shapes: dict[str, tuple] = {"model.embed_tokens.weight": (s.vocab, s.dim),
                                "model.norm.weight": (s.dim,)}
    for i in range(s.layers):
        p = f"model.layers.{i}."
        for proj in ("q_proj", "k_proj", "v_proj", "o_proj"):
            shapes[p + f"self_attn.{proj}.weight"] = (s.dim, s.dim)
        shapes[p + "mlp.gate_proj.weight"] = (s.ffn, s.dim)
        shapes[p + "mlp.up_proj.weight"] = (s.ffn, s.dim)
        shapes[p + "mlp.down_proj.weight"] = (s.dim, s.ffn)
        shapes[p + "input_layernorm.weight"] = (s.dim,)
        shapes[p + "post_attention_layernorm.weight"] = (s.dim,)
    weights = {}
    for name, shape in shapes.items():
        if "norm" in name:
            values = 1.0 + 0.05 * rng.standard_normal(shape)
        else:
            values = rng.standard_normal(shape) / np.sqrt(shape[-1])
            # A few outliers, as trained weights have, set each tensor's amax.
            flat = values.reshape(-1)
            hot = rng.integers(0, flat.size, size=max(1, flat.size // 100_000))
            flat[hot] *= rng.uniform(4.0, 12.0, size=hot.size)
        weights[name] = (shape, values)
    return weights


def _encode(name: str, shape: tuple, values: np.ndarray) -> tuple[str, tuple, bytes]:
    if "norm" in name:
        return ("F32", shape, values.astype("<f4").tobytes())
    return ("BF16", shape, _bf16_bits(values.reshape(-1)).tobytes())


def make_ckpt(rng: np.random.Generator, s: Sizes, work: Path) -> None:
    """teacher.safetensors to quantize; base and tuned BF16 checkpoints to
    merge, the tuned one being the base plus a fine-tune-sized delta."""
    teacher = _decoder_weights(rng, s)
    write_raw_checkpoint(work / "teacher.safetensors",
                         {n: _encode(n, sh, v) for n, (sh, v) in teacher.items()},
                         {"format": "pt", "source": "bench-teacher"})
    base = _decoder_weights(rng, s)
    tuned = {n: (sh, v + 0.02 * np.abs(v).mean() * rng.standard_normal(sh))
             for n, (sh, v) in base.items()}
    # Merge inputs are all BF16, norms included, as a student checkpoint is.
    write_raw_checkpoint(work / "base.safetensors",
                         {n: ("BF16", sh, _bf16_bits(v.reshape(-1)).tobytes())
                          for n, (sh, v) in base.items()}, {"format": "pt"})
    write_raw_checkpoint(work / "tuned.safetensors",
                         {n: ("BF16", sh, _bf16_bits(v.reshape(-1)).tobytes())
                          for n, (sh, v) in tuned.items()}, {"format": "pt", "stage": "sft"})


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------

_EN_WORDS = (
    "the of and to in is that for it as with was on be by this are or from at "
    "an which have not has but all can more one will their also about than "
    "model data text translation language arabic english corpus sentence word "
    "question answer student teacher explain describe write list compare "
    "summarize history science city river market school water energy system "
    "network value result example method number table chapter reason because "
    "however therefore first second third important simple different common"
).split()
_EN_PUNCT = (",", ".", ";", ":", "?", "!", "-", "(", ")", '"', "'", "&amp;", "&quot;")
_AR_WORDS = (
    "في من على إلى عن مع هذا هذه ذلك التي الذي كان كانت يكون قد لا ما لم لن "
    "كتاب مدرسة طالب معلم بيت شمس قمر ماء نهر بحر جبل مدينة طريق سيارة عمل "
    "وقت يوم ليلة صباح مساء علم لغة ترجمة سؤال جواب فكرة قلب عين يد رأس باب "
    "نافذة شجرة زهرة حديقة سوق خبز قهوة شاي حليب تاريخ نظام شبكة قيمة نتيجة "
    "مثال طريقة رقم جدول فصل سبب لكن لذلك أول ثاني ثالث مهم بسيط مختلف شائع"
).split()
_AR_PUNCT = ("،", ".", "؟", ":", "!", "-")


def _length(rng: np.random.Generator, median: float, lo: int, hi: int) -> int:
    """Log-normal word count: most segments short, a long tail."""
    return int(np.clip(round(rng.lognormal(np.log(median), 0.6)), lo, hi))


def _sentence(rng: np.random.Generator, words, punct, n: int) -> str:
    out = []
    for k in range(n):
        r = rng.random()
        if r < 0.06:
            out.append(str(int(rng.integers(0, 2000))) + ("-" if r < 0.01 else ""))
        else:
            out.append(words[int(rng.integers(0, len(words)))])
        if rng.random() < 0.08:
            out[-1] += punct[int(rng.integers(0, len(punct)))]
    return " ".join(out)


def en_text(rng, n: int) -> str:
    return _sentence(rng, _EN_WORDS, _EN_PUNCT, n)


def ar_text(rng, n: int) -> str:
    return _sentence(rng, _AR_WORDS, _AR_PUNCT, n)


_CODE_SNIPPETS = (
    "```python\ndef add(a, b):\n    return a + b\n```",
    "int main() {\n  int x = 0;\n  x += 1;\n  return x;\n}",
    "import os\nimport sys\nimport json\nprint(sys.argv)",
    "f(x)=[a<b];g(y)=(c>d);h={k:v}",
    "function go() {\n  run();\n  stop();\n}",
)

# Share of instruction records that carry code. The code filter drops most
# of them; a short symbol-dense line after long prose can pass it.
CODE_SHARE = 0.25


def _record_text(rng: np.random.Generator, code: bool, median: float) -> str:
    text = en_text(rng, _length(rng, median, 2, 160))
    if code:
        return text + "\n" + _CODE_SNIPPETS[int(rng.integers(0, len(_CODE_SNIPPETS)))]
    return text


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def make_corpus(rng: np.random.Generator, s: Sizes, work: Path) -> dict:
    """records.jsonl (instruction records, some code-like) and pairs.jsonl
    (Arabic/English pairs for the judge). Texts are unique, so each prompt
    is sent once."""
    records, seen = [], set()
    while len(records) < s.records:
        code_in = rng.random() < CODE_SHARE
        code_in_response = code_in and rng.random() < 0.6
        instruction = _record_text(rng, code_in and not code_in_response, 14)
        response = _record_text(rng, code_in_response, 40)
        if instruction in seen or response in seen:
            continue
        seen.update((instruction, response))
        row = {"id": f"r{len(records)}", "instruction": instruction,
               "response": response, "source": ("orca", "alpaca")[len(records) % 2]}
        if rng.random() < 0.2:
            row["system"] = "You are a helpful assistant."
        records.append(row)
    _write_jsonl(work / "records.jsonl", records)

    pairs, seen = [], set()
    while len(pairs) < s.pairs:
        pair = {"ar": ar_text(rng, _length(rng, 12, 2, 60)),
                "en": en_text(rng, _length(rng, 12, 2, 60))}
        if (pair["ar"], pair["en"]) in seen:
            continue
        seen.add((pair["ar"], pair["en"]))
        pairs.append(pair)
    _write_jsonl(work / "pairs.jsonl", pairs)
    return {"records": records, "pairs": pairs}


# Share of sampled evaluation keys left without a reference.
MISS_SHARE = 0.08
_SUBJECTS = ("algebra", "anatomy", "astronomy", "biology", "chemistry", "economics",
             "geography", "history", "law", "medicine", "philosophy", "physics")


def degrade(rng: np.random.Generator, reference: str) -> str:
    """A system output: the reference with about a fifth of its words
    substituted and a tenth dropped, so scores land mid-range."""
    out = []
    for word in reference.split():
        r = rng.random()
        if r < 0.10:
            continue
        out.append(_AR_WORDS[int(rng.integers(0, len(_AR_WORDS)))] if r < 0.30 else word)
    return " ".join(out) or reference


def make_eval(rng: np.random.Generator, s: Sizes, work: Path, sample_seed: int,
              sampler) -> dict:
    """en.jsonl / ar.jsonl question sets keyed by (subject, item_id), some
    keys without an Arabic reference, and outputs.txt: one degraded output
    per aligned pair, in the order the sampler (an oracle, not the package)
    selects them."""
    en, ar, missing = [], [], set()
    for k in range(s.questions):
        subject = _SUBJECTS[k % len(_SUBJECTS)]
        item_id = f"q{k // len(_SUBJECTS):05d}"
        n = _length(rng, 22, 3, 140)
        en.append({"subject": subject, "item_id": item_id, "text": en_text(rng, n)})
        if rng.random() < MISS_SHARE:
            missing.add((subject, item_id))
        else:
            ar.append({"subject": subject, "item_id": item_id,
                       "text": ar_text(rng, _length(rng, n, 3, 160))})
    # The Arabic file lists its items in another order than the English one.
    ar = [ar[i] for i in rng.permutation(len(ar))]
    _write_jsonl(work / "en.jsonl", en)
    _write_jsonl(work / "ar.jsonl", ar)

    refs = {(q["subject"], q["item_id"]): q["text"] for q in ar}
    sample = sampler(en, s.sample, sample_seed)
    aligned = [(q, refs[(q["subject"], q["item_id"])]) for q in sample
               if (q["subject"], q["item_id"]) not in missing]
    outputs = [degrade(rng, ref) for _, ref in aligned]
    (work / "outputs.txt").write_text("".join(o + "\n" for o in outputs), encoding="utf-8")
    (work / "references.txt").write_text("".join(r + "\n" for _, r in aligned),
                                         encoding="utf-8")
    return {"sample": sample, "aligned": aligned, "outputs": outputs,
            "misses": [(q["subject"], q["item_id"]) for q in sample
                       if (q["subject"], q["item_id"]) in missing]}
