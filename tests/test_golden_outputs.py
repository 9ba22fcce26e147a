"""Every command's output, byte for byte, against a committed manifest.

The inputs are built at two seeds from ``evalset.prng_next``, so they do not
depend on numpy's generators. Each command runs through ``cli.main``, and the
SHA-256 of each output file and of each command's standard output is checked
against ``data/golden/outputs.sha256``. Journals and state files are left
out: they are not outputs. The endpoint commands run against a stub whose
reply is a pure function of the prompt.

On a mismatch the test names every file that differs and prints the whole
recomputed manifest. A change that alters an output on purpose replaces the
manifest with that text and says so.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from mtpipe import cli, pipeline, tensorio as tio
from mtpipe.evalset import prng_next

from stubserver import StubEndpoint

MANIFEST = Path(__file__).parent / "data" / "golden" / "outputs.sha256"
SEEDS = (1, 2)
# One more row than a chunk holds: every checkpoint command crosses a chunk
# boundary.
WEIGHT_SHAPE = (tio.CHUNK_ELEMS // 256 + 1, 256)

_EN = ("the model reads a short text about water energy and the river city "
       "students write answers to each question in simple words today").split()
_AR = "في من على إلى كتاب مدرسة طالب معلم ماء نهر مدينة سؤال جواب لغة ترجمة".split()
_CODE = "```python\ndef add(a, b):\n    return a + b\n```"


class _Draws:
    """The prng_next stream from one seed."""

    def __init__(self, seed: int) -> None:
        self.state = seed

    def next(self) -> int:
        out, self.state = prng_next(self.state)
        return out

    def below(self, n: int) -> int:
        return self.next() % n

    def words(self, vocab, lo: int, hi: int) -> str:
        return " ".join(vocab[self.below(len(vocab))] for _ in range(lo + self.below(hi - lo)))


def _weights(d: _Draws, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two close vectors of values that BF16, F16 and F32 all hold exactly,
    so writing the inputs rounds nothing."""
    bits = np.array([d.next() for _ in range(n)], dtype=np.uint64)
    sign = np.where(bits & 1, -1.0, 1.0)
    exponent = ((bits >> 8) % 9).astype(np.float64) - 8.0
    mantissa = (bits >> 1) & 127
    nudge = ((bits >> 20) % 5).astype(np.int64) - 2
    nudged = np.clip(mantissa.astype(np.int64) + nudge, 0, 127)
    a = sign * (1.0 + mantissa / 128.0) * 2.0**exponent
    b = sign * (1.0 + nudged / 128.0) * 2.0**exponent
    return a, b


def _make_inputs(d: _Draws, work: Path) -> None:
    n = WEIGHT_SHAPE[0] * WEIGHT_SHAPE[1]
    weight_a, weight_b = _weights(d, n + 2 * 256)
    for name, values in (("teacher", weight_a), ("tuned", weight_b)):
        tensors = {
            "layer.0.weight": tio.tensor_from_f64(values[:n], tio.DType.BF16, WEIGHT_SHAPE),
            "layer.0.bias": tio.tensor_from_f64(values[n : n + 256], tio.DType.F16, (256,)),
            "layer.0.norm": tio.tensor_from_f64(values[n + 256 :], tio.DType.F32, (256,)),
        }
        path = work / f"{name}.safetensors"
        tio.write_checkpoint(tio.Checkpoint(tensors, {"source": name}), path)

    pipeline.write_records(work / "records.jsonl", (
        {"id": str(i), "instruction": d.words(_EN, 3, 12),
         "response": d.words(_EN, 4, 20) + ("\n" + _CODE if i % 4 == 3 else ""),
         "source": "synthetic"}
        for i in range(24)))
    pipeline.write_records(work / "pairs.jsonl", (
        {"ar": d.words(_AR, 3, 10), "en": d.words(_EN, 3, 10)} for _ in range(20)))
    pipeline.write_records(work / "en.jsonl", (
        {"subject": f"s{i % 3}", "item_id": str(i), "text": d.words(_EN, 4, 12)}
        for i in range(30)))
    pipeline.write_records(work / "ar.jsonl", (
        {"subject": f"s{i % 3}", "item_id": str(i), "text": d.words(_AR, 4, 12)}
        for i in range(30) if i % 10 != 7))


def _reply(prompt: str, nth: int) -> tuple[str, str]:
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    if "You are a strict bilingual judge" in prompt:
        return "ok", ("accept", "reject", "accept", "maybe")[int(digest[0], 16) % 4]
    return "ok", f"ترجمة {digest[:8]} {prompt[-12:]}"


def _count(path: Path) -> int:
    return len(path.read_bytes().splitlines())


def _run(seed: int, work: Path, capsys) -> dict[str, str]:
    """Run every command on the inputs of one seed; the digest of each output."""
    digests: dict[str, str] = {}

    def run(stdout_name: str, *args) -> None:
        assert cli.main([str(a) for a in args]) == 0
        text = capsys.readouterr().out
        if stdout_name:
            digests[stdout_name] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    with StubEndpoint(_reply) as stub:
        endpoint = ("--base-url", stub.base_url, "--model", "m", "--concurrency", "2",
                    "--max-retries", "0")
        run("quantize.stdout", "quantize", "--in", work / "teacher.safetensors",
            "--out", work / "teacher-fp8.safetensors", "--skip", "*norm*")
        run("", "merge", "--a", work / "teacher.safetensors", "--b", work / "tuned.safetensors",
            "--t", "0.3", "--out", work / "merged-bf16.safetensors")
        # An eps above any sine makes a lerp: each BF16 weight is then the
        # mean of two BF16 values, a tie to round to even about half the time.
        run("", "merge", "--a", work / "teacher.safetensors", "--b", work / "tuned.safetensors",
            "--eps", "2", "--out", work / "merged-lerp.safetensors")
        run("", "merge", "--a", work / "teacher-fp8.safetensors",
            "--b", work / "tuned.safetensors", "--out", work / "merged-f32.safetensors")
        run("filter-code.stdout", "filter-code", "--in", work / "records.jsonl",
            "--out", work / "filtered.jsonl")
        run("", "translate-corpus", "--in", work / "filtered.jsonl",
            "--out", work / "tuples.jsonl", "--state", work / "translate.state", *endpoint)
        run("judge.stdout", "judge", "--in", work / "pairs.jsonl",
            "--accepted", work / "accepted.jsonl", "--stats", work / "judge-stats.json",
            "--state", work / "judge.state", *endpoint)
    sources = [f"{name}={work / name}.jsonl={_count(work / f'{name}.jsonl')}"
               for name in ("filtered", "tuples", "accepted")]
    run("mix.stdout", "mix", *(a for s in sources for a in ("--source", s)), "--shuffle",
        "--seed", seed, "--out", work / "mixed.jsonl", "--manifest", work / "mix-manifest.json")
    run("sample-eval.stdout", "sample-eval", "--en", work / "en.jsonl", "--ar", work / "ar.jsonl",
        "--n", "12", "--seed", seed, "--out", work / "eval")
    # System outputs: every other word of each reference.
    references = [p["reference"] for p in pipeline.read_records(work / "eval" / "pairs.jsonl")]
    (work / "outputs.txt").write_text(
        "".join(" ".join(r.split()[::2]) + "\n" for r in references), encoding="utf-8")
    run("report.stdout", "report", "--pairs", work / "eval" / "pairs.jsonl",
        "--outputs", work / "outputs.txt", "--name", "system", "--out", work / "report.json")

    for name in ("teacher-fp8.safetensors", "merged-bf16.safetensors",
                 "merged-lerp.safetensors", "merged-f32.safetensors", "filtered.jsonl",
                 "tuples.jsonl", "accepted.jsonl", "judge-stats.json", "mixed.jsonl",
                 "mix-manifest.json", "eval/sample.jsonl", "eval/pairs.jsonl",
                 "eval/misses.jsonl", "report.json"):
        digests[name] = hashlib.sha256((work / name).read_bytes()).hexdigest()
    return digests


def test_every_command_output_matches_the_golden_manifest(tmp_path, capsys):
    got: dict[str, str] = {}
    for seed in SEEDS:
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        _make_inputs(_Draws(seed), work)
        for name, digest in _run(seed, work, capsys).items():
            got[f"seed{seed}/{name}"] = digest
    expected = dict(line.split()[::-1] for line in MANIFEST.read_text().splitlines())
    wrong = sorted(n for n in got.keys() | expected.keys() if got.get(n) != expected.get(n))
    recomputed = "".join(f"{got[n]}  {n}\n" for n in sorted(got))
    assert not wrong, (f"outputs differ from {MANIFEST.name}: {', '.join(wrong)}\n"
                       f"recomputed manifest:\n{recomputed}")
