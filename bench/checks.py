"""Correctness checks on each workload's outputs.

Every expected value is computed here, apart from the package: checkpoints
are parsed with this file's own reader, 8-bit values come from
``tests/oracles.py::e4m3_exact_value``, prompts are rebuilt from the golden
files, and scores, samples and the code heuristic come from the naive
oracles. A check returns a list of failure messages; empty means correct.
"""

from __future__ import annotations

import fnmatch
import json
import math
import struct
from pathlib import Path

import numpy as np

import oracles
from endpoint import JUDGE_SPELLINGS, judge_spelling, prompt_key, reply_for

# ---------------------------------------------------------------------------
# ckpt
# ---------------------------------------------------------------------------


def read_raw_checkpoint(path: Path) -> tuple[dict[str, tuple[str, list, bytes]], dict]:
    """Parse the container format and check its offset table covers the data
    section exactly; returns ({name: (dtype, shape, payload)}, metadata)."""
    raw = Path(path).read_bytes()
    (n,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8:8 + n].decode("utf-8"))
    data = raw[8 + n:]
    metadata = header.pop("__metadata__", {})
    width = {"F32": 4, "F16": 2, "BF16": 2, "F8_E4M3": 1}
    tensors, cursor = {}, 0
    for name, meta in sorted(header.items(), key=lambda kv: kv[1]["data_offsets"][0]):
        begin, end = meta["data_offsets"]
        if begin != cursor or end - begin != math.prod(meta["shape"]) * width[meta["dtype"]]:
            raise ValueError(f"{path}: bad offsets for {name}")
        cursor = end
        tensors[name] = (meta["dtype"], meta["shape"], data[begin:end])
    if cursor != len(data):
        raise ValueError(f"{path}: offsets cover {cursor} of {len(data)} data bytes")
    return tensors, metadata


def _as_f64(dtype: str, payload: bytes) -> np.ndarray:
    if dtype == "F32":
        return np.frombuffer(payload, "<f4").astype(np.float64)
    if dtype == "BF16":
        return (np.frombuffer(payload, "<u2").astype(np.uint32) << 16).view(np.float32).astype(
            np.float64)
    raise ValueError(dtype)


# Finite non-negative 8-bit values by magnitude code 0..126, from bit fields.
_GRID = np.array([float(oracles.e4m3_exact_value(c)) for c in range(0x7F)])
_LOWER_MID = np.concatenate(([-np.inf], (_GRID[:-1] + _GRID[1:]) / 2))
_UPPER_MID = np.concatenate(((_GRID[:-1] + _GRID[1:]) / 2, [np.inf]))


def _codes_are_nearest(x: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Mask of codes that are the nearest grid point to x (ties to the even
    code, magnitudes past 448 saturating) with x's sign."""
    mag_code = codes & 0x7F
    if (mag_code == 0x7F).any():
        return np.zeros(x.shape, bool)
    mag = np.abs(x)
    lo, hi = _LOWER_MID[mag_code], _UPPER_MID[mag_code]
    even = (mag_code % 2) == 0
    saturated = (mag_code == 0x7E) & (mag >= _GRID[-1])
    inside = ((mag > lo) | ((mag == lo) & even)) & ((mag < hi) | ((mag == hi) & even))
    sign_ok = ((codes & 0x80) != 0) == np.signbit(x)
    return (inside | saturated) & sign_ok


def check_quantize(teacher: Path, out: Path, skip: tuple[str, ...]) -> list[str]:
    errors = []
    src, _ = read_raw_checkpoint(teacher)
    dst, meta = read_raw_checkpoint(out)
    expected_names = set(src) | {f"{n}.scale" for n in src
                                 if not any(fnmatch.fnmatchcase(n, p) for p in skip)}
    if set(dst) != expected_names:
        errors.append(f"quantize: output names differ by {sorted(set(dst) ^ expected_names)[:4]}")
        return errors
    if meta.get("quantization") != "fp8-e4m3-dynamic":
        errors.append(f"quantize: metadata {meta}")
    for name, (dtype, shape, payload) in src.items():
        if any(fnmatch.fnmatchcase(name, p) for p in skip):
            if dst[name] != (dtype, shape, payload):
                errors.append(f"quantize: skipped tensor {name} changed")
            continue
        values = _as_f64(dtype, payload)
        scale = np.float32(np.abs(values).max() / 448.0)
        s_dtype, s_shape, s_payload = dst[f"{name}.scale"]
        if (s_dtype, s_shape) != ("F32", []) or s_payload != scale.tobytes():
            errors.append(f"quantize: {name}.scale is not float32(amax/448) = {scale!r}")
            continue
        c_dtype, c_shape, c_payload = dst[name]
        codes = np.frombuffer(c_payload, np.uint8)
        if (c_dtype, c_shape) != ("F8_E4M3", shape):
            errors.append(f"quantize: {name} is {c_dtype} {c_shape}")
            continue
        bad = ~_codes_are_nearest(values / float(scale), codes)
        if bad.any():
            errors.append(f"quantize: {name} has {int(bad.sum())} codes off the nearest grid point")
    return errors


def _bf16_ulp(x: np.ndarray) -> np.ndarray:
    _, e = np.frexp(np.abs(x))
    return np.ldexp(1.0, np.maximum(e, -125) - 8)


def check_merge(a: Path, b: Path, out: Path, t: float) -> list[str]:
    errors = []
    ta, _ = read_raw_checkpoint(a)
    tb, _ = read_raw_checkpoint(b)
    dst, meta = read_raw_checkpoint(out)
    if meta.get("merge_t") != repr(t):
        errors.append(f"merge: metadata merge_t is {meta.get('merge_t')!r}, expected {t!r}")
    if set(dst) != set(ta):
        errors.append("merge: output tensor names differ from the inputs'")
        return errors
    for name, (dtype, shape, payload) in ta.items():
        va, vb = _as_f64(dtype, payload), _as_f64(*tb[name][::2])
        cos = float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))
        omega = math.acos(max(-1.0, min(1.0, cos)))
        if math.sin(omega) < 1e-8:
            errors.append(f"merge: {name} inputs are parallel, slerp would not run")
            continue
        ref = (math.sin((1 - t) * omega) * va + math.sin(t * omega) * vb) / math.sin(omega)
        o_dtype, o_shape, o_payload = dst[name]
        if (o_dtype, o_shape) != ("BF16", shape):
            errors.append(f"merge: {name} is {o_dtype} {o_shape}")
            continue
        off = np.abs(_as_f64(o_dtype, o_payload) - ref) > _bf16_ulp(ref)
        if off.any():
            errors.append(f"merge: {name} has {int(off.sum())} values over one BF16 ulp off")
    return errors


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _golden_split(golden: Path, sample: str) -> tuple[str, str]:
    text = golden.read_text(encoding="utf-8")
    if text.count(sample) != 1:
        raise ValueError(f"{golden}: sample text {sample!r} does not occur once")
    head, _, tail = text.partition(sample)
    return head, tail


class Prompts:
    """Prompt rendering rebuilt from the golden files."""

    def __init__(self, golden_dir: Path):
        self.tr = _golden_split(golden_dir / "prompt_lightweight.txt", "Hi")
        head, tail = _golden_split(golden_dir / "prompt_judge.txt", "مرحبا")
        mid, tail = tail.split("Hello")
        self.judge = (head, mid, tail)

    def translation(self, text: str) -> str:
        return self.tr[0] + text + self.tr[1]

    def judging(self, ar: str, en: str) -> str:
        return self.judge[0] + ar + self.judge[1] + en + self.judge[2]


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def corpus_expectations(data: dict, prompts: Prompts, mix_seed: int) -> dict:
    """Everything the corpus chain should produce, from the inputs alone."""
    kept = [r for r in data["records"]
            if not oracles.naive_looks_like_code(r["instruction"])
            and not oracles.naive_looks_like_code(r["response"])]
    tuples = []
    tr_prompts = []
    for r in kept:
        pi, pr = prompts.translation(r["instruction"]), prompts.translation(r["response"])
        tr_prompts += [pi, pr]
        tuples.append({"instr_en": r["instruction"], "instr_ar": reply_for(pi),
                       "resp_en": r["response"], "resp_ar": reply_for(pr),
                       "source": r["source"]})
    verdicts = {"accept": 0, "reject": 0, "unparseable": 0}
    accepted, judge_prompts = [], []
    for p in data["pairs"]:
        prompt = prompts.judging(p["ar"], p["en"])
        judge_prompts.append(prompt)
        verdict = JUDGE_SPELLINGS[judge_spelling(prompt)][1]
        verdicts[verdict] += 1
        if verdict == "accept":
            accepted.append({"ar": p["ar"], "en": p["en"]})
    lines = [_canonical({**row, "source": name})
             for name, rows in (("tuples", tuples), ("judged", accepted)) for row in rows]
    return {"kept": kept, "tuples": tuples,
            "accepted": accepted, "verdicts": verdicts,
            "mixed": oracles.naive_sample(lines, len(lines), mix_seed),
            "prompt_calls": {prompt_key(p): 1 for p in tr_prompts + judge_prompts},
            "requests": len(tr_prompts) + len(judge_prompts)}


def _canonical(row: dict) -> str:
    # The corpus line format: sorted keys, no ASCII escaping, no spaces.
    return json.dumps(row, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def check_corpus(work: Path, want: dict) -> list[str]:
    errors = []
    # The oracle's kept records are a subsequence of the input, so equal
    # kept lists also mean kept plus dropped is the input.
    if _jsonl(work / "kept.jsonl") != want["kept"]:
        errors.append("filter-code: kept records differ from the code oracle's")
    if _jsonl(work / "tuples.jsonl") != want["tuples"]:
        errors.append("translate-corpus: tuples differ from the endpoint's replies")
    if (work / "tuples.jsonl").read_bytes() != (work / "tuples.first.jsonl").read_bytes():
        errors.append("translate-corpus rerun: output is not byte-identical")
    if _jsonl(work / "accepted.jsonl") != want["accepted"]:
        errors.append("judge: accepted pairs differ from the reply spellings")
    stats = json.loads((work / "stats.json").read_text(encoding="utf-8"))
    v = want["verdicts"]
    expected_stats = {"candidates": sum(v.values()), "accepted": v["accept"],
                      "rejected": v["reject"], "unparseable": v["unparseable"]}
    if {k: stats.get(k) for k in expected_stats} != expected_stats:
        errors.append(f"judge: stats {stats} != {expected_stats}")
    if (work / "mixed.jsonl").read_text(encoding="utf-8").splitlines() != want["mixed"]:
        errors.append("mix: output is not the seeded shuffle of the tagged sources")
    return errors


def check_corpus_requests(endpoint_stats: dict, want: dict) -> list[str]:
    """Every prompt reached the endpoint exactly once, so the rerun sent
    nothing."""
    errors = []
    if endpoint_stats["calls"] != want["prompt_calls"]:
        extra = sum(1 for k, n in endpoint_stats["calls"].items()
                    if want["prompt_calls"].get(k) != n)
        errors.append(f"endpoint: {extra} prompts not received exactly once "
                      "(the rerun must send nothing)")
    if endpoint_stats["requests"] != want["requests"]:
        errors.append(f"endpoint: {endpoint_stats['requests']} requests, "
                      f"expected {want['requests']}")
    return errors


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def check_eval(work: Path, data: dict, self_report: Path) -> list[str]:
    errors = []
    out = work / "evalset"
    keys = [{"subject": q["subject"], "item_id": q["item_id"], "text": q["text"]}
            for q in data["sample"]]
    if _jsonl(out / "sample.jsonl") != keys:
        errors.append("sample-eval: sample differs from the oracle sampler")
    misses = [{"subject": s, "item_id": i} for s, i in data["misses"]]
    if _jsonl(out / "misses.jsonl") != misses:
        errors.append("sample-eval: misses differ from the keys left without a reference")
    pairs = [{"subject": q["subject"], "item_id": q["item_id"], "text": q["text"],
              "reference": ref} for q, ref in data["aligned"]]
    if _jsonl(out / "pairs.jsonl") != pairs:
        errors.append("sample-eval: aligned pairs differ")
    refs = [ref for _, ref in data["aligned"]]
    hyps = data["outputs"]
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    expected = {"bleu": oracles.naive_bleu(hyps, refs),
                "rouge_l": oracles.naive_rouge_l_corpus(hyps, refs),
                "chrf_pp": oracles.naive_chrf_pp(hyps, refs)}
    for key, value in expected.items():
        if not abs(report.get(key, math.nan) - value) <= 1e-9:
            errors.append(f"report: {key} {report.get(key)} != oracle {value}")
    if not 10.0 < expected["bleu"] < 90.0:
        errors.append(f"report: BLEU {expected['bleu']:.1f} is not mid-range")
    if report.get("n_pairs") != len(refs):
        errors.append("report: n_pairs differs")
    own = json.loads(self_report.read_text(encoding="utf-8"))
    for key in expected:
        if own.get(key) != 100.0:
            errors.append(f"report on the references themselves: {key} = {own.get(key)}")
    return errors
