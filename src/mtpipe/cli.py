"""Single entry point exposing every operation as a subcommand.

Exit codes: 0 on success, 1 on operational errors, 2 on usage errors. Logs go
to standard error; data goes to files or standard output only. The API key is
read from the MTPIPE_API_KEY (or OPENAI_API_KEY) environment variable, never
from a flag. A flat KEY=VALUE ``--config`` file supplies endpoint defaults;
flags override the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import evalset, merge, metrics, pipeline, quant, tensorio
from .errors import ToolError
from .inference import BatchItem, EndpointConfig, batch_fingerprint, run_batch
from .state import JobState, run_fingerprint

log = logging.getLogger("mtpipe")

_CONFIG_KEYS = {
    "base_url",
    "model",
    "timeout",
    "max_retries",
    "backoff_base",
    "temperature",
    "max_tokens",
    "concurrency",
}


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ToolError(f"{path} line {line_no}: expected KEY=VALUE")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ToolError(f"{path} line {line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _endpoint_from(args: argparse.Namespace) -> EndpointConfig:
    cfg = _load_config(args.config)

    def pick(flag_value, key: str, cast, default):
        if flag_value is not None:
            return flag_value
        if key in cfg:
            return cast(cfg[key])
        return default

    base_url = pick(args.base_url, "base_url", str, None)
    model = pick(args.model, "model", str, None)
    if not base_url or not model:
        raise ToolError("an endpoint needs --base-url and --model (or config entries)")
    return EndpointConfig(
        base_url=base_url,
        model_name=model,
        api_key=os.environ.get("MTPIPE_API_KEY") or os.environ.get("OPENAI_API_KEY"),
        timeout=pick(args.timeout, "timeout", float, 60.0),
        max_retries=pick(args.max_retries, "max_retries", int, 3),
        backoff_base=pick(args.backoff_base, "backoff_base", float, 0.5),
        temperature=pick(args.temperature, "temperature", float, 0.0),
        max_tokens=pick(args.max_tokens, "max_tokens", int, 2048),
    )


def _concurrency_from(args: argparse.Namespace) -> int:
    if args.concurrency is not None:
        value = args.concurrency
    else:
        value = int(_load_config(args.config).get("concurrency", 4))
    if value < 1:
        raise ToolError("concurrency must be at least 1")
    return value


def _file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _already_done(state_path: str | None, fingerprint: str) -> bool:
    """Completion marker for local (no-network) subcommands with --state."""
    if not state_path:
        return False
    path = Path(state_path)
    if not path.exists():
        return False
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return False
    return meta.get("fingerprint") == fingerprint and meta.get("done") is True


def _mark_done(state_path: str | None, fingerprint: str) -> None:
    if not state_path:
        return
    path = Path(state_path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"fingerprint": fingerprint, "done": True}), encoding="utf-8")
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_quantize(args: argparse.Namespace) -> int:
    policy = quant.QuantPolicy(skip_patterns=tuple(args.skip))
    with tensorio.open_checkpoint(args.in_path) as src:
        quantized, audits = quant.quantize_stream(src, policy)
        tensorio.write_checkpoint(quantized, args.out)
    for name in src.tensors:
        audit = audits[name]
        if audit.skipped:
            print(f"{audit.name} skipped")
        else:
            print(
                f"{audit.name} amax={audit.amax:.6g} scale={audit.scale:.6g} "
                f"max_rel_err={audit.max_rel_err:.3e}"
            )
    log.info("quantized %d tensors -> %s", len(src.tensors), args.out)
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    spec = merge.MergeSpec(
        t=args.t,
        parallel_eps=args.eps,
        name_policy=merge.MissingPolicy(args.on_missing),
    )
    with tensorio.open_checkpoint(args.a) as a, tensorio.open_checkpoint(args.b) as b:
        merged = merge.merge_stream(a, b, spec)
        tensorio.write_checkpoint(merged, args.out)
    log.info("merged %d tensors at t=%s -> %s", len(merged.tensors), args.t, args.out)
    return 0


def _read_lines(path: str) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def cmd_score(args: argparse.Namespace) -> int:
    hyps = _read_lines(args.hyp)
    refs = _read_lines(args.ref)
    if len(hyps) != len(refs):
        raise metrics.LengthMismatch(
            f"{args.hyp} has {len(hyps)} lines, {args.ref} has {len(refs)}"
        )
    if not hyps:
        raise metrics.EmptyCorpus("input files contain no segments")

    if args.metric == "all":
        report = metrics.evaluate_pairs(list(zip(hyps, refs)))
        print(
            f"BLEU {report.bleu:.1f} ROUGE-L {report.rouge_l:.1f} "
            f"chrF++ {report.chrf_pp:.1f} n={report.n_pairs}"
        )
        payload = {
            "bleu": report.bleu,
            "rouge_l": report.rouge_l,
            "chrf_pp": report.chrf_pp,
            "n_pairs": report.n_pairs,
        }
    else:
        if args.metric == "bleu":
            score = metrics.bleu_corpus(hyps, refs)
            label = "BLEU"
        elif args.metric == "chrf":
            score = metrics.chrf_pp(hyps, refs)
            label = "chrF++"
        else:
            score = metrics.rouge_l_corpus(hyps, refs)
            label = "ROUGE-L"
        print(f"{label} {score:.1f} n={len(hyps)}")
        payload = {args.metric: score, "n_pairs": len(hyps)}

    if args.report:
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
    return 0


def cmd_tokenize(args: argparse.Namespace) -> int:
    lines = _read_lines(args.in_path) if args.in_path else sys.stdin.read().splitlines()
    out = [" ".join(metrics.tokenize_13a(line)) for line in lines]
    if args.out:
        Path(args.out).write_text("".join(s + "\n" for s in out), encoding="utf-8")
    else:
        for s in out:
            print(s)
    return 0


def cmd_translate_corpus(args: argparse.Namespace) -> int:
    records = pipeline.load_instruction_records(args.in_path)
    prompts: list[str] = []
    for record in records:
        prompts.append(pipeline.render_translation_prompt(record.instruction, args.template))
        prompts.append(pipeline.render_translation_prompt(record.response, args.template))
    items = [BatchItem(i, prompt) for i, prompt in enumerate(prompts)]

    cfg = _endpoint_from(args)
    with JobState(args.state, batch_fingerprint(items, cfg)) as state:
        outputs = run_batch(items, cfg, _concurrency_from(args), state)

    tuples = pipeline.build_bilingual_tuples(records, outputs[0::2], outputs[1::2])
    pipeline.write_records(
        args.out,
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
    log.info("translated %d records -> %s", len(records), args.out)
    return 0


def cmd_judge(args: argparse.Namespace) -> int:
    pairs = []
    for obj in pipeline.read_records(args.in_path):
        if "ar" not in obj or "en" not in obj:
            raise ToolError(f"{args.in_path}: pair records need 'ar' and 'en' fields")
        pairs.append((obj["ar"], obj["en"]))

    cfg = _endpoint_from(args)
    accepted, stats = pipeline.filter_parallel_corpus(
        pairs, cfg, state=args.state, concurrency=_concurrency_from(args)
    )

    pipeline.write_records(args.accepted, ({"ar": ar, "en": en} for ar, en in accepted))
    print(
        f"candidates={stats.candidates} accepted={stats.accepted} "
        f"rejected={stats.rejected} unparseable={stats.unparseable} "
        f"rate={stats.acceptance_rate * 100:.2f}%"
    )
    if args.stats:
        Path(args.stats).write_text(
            json.dumps(
                {
                    "candidates": stats.candidates,
                    "accepted": stats.accepted,
                    "rejected": stats.rejected,
                    "unparseable": stats.unparseable,
                    "acceptance_rate": stats.acceptance_rate,
                },
                indent=2,
                sort_keys=True,
            ),
            encoding="utf-8",
        )
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    fingerprint = run_fingerprint(
        ["pair", _file_digest(args.records), _file_digest(args.instr_ar),
         _file_digest(args.resp_ar), str(args.out)]
    )
    if _already_done(args.state, fingerprint) and Path(args.out).exists():
        log.info("pairing already complete; nothing to do")
        return 0

    records = pipeline.load_instruction_records(args.records)
    instr_ar = _read_lines(args.instr_ar)
    resp_ar = _read_lines(args.resp_ar)
    tuples = pipeline.build_bilingual_tuples(records, instr_ar, resp_ar)
    pipeline.write_records(
        args.out,
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
    _mark_done(args.state, fingerprint)
    log.info("paired %d records -> %s", len(tuples), args.out)
    return 0


def cmd_filter_code(args: argparse.Namespace) -> int:
    fingerprint = run_fingerprint(
        ["filter-code", _file_digest(args.in_path), str(args.min_code_lines),
         repr(args.symbol_ratio), str(args.out)]
    )
    if _already_done(args.state, fingerprint) and Path(args.out).exists():
        log.info("code filter already complete; nothing to do")
        return 0

    records = pipeline.load_instruction_records(args.in_path)
    kept, dropped = pipeline.filter_code_samples(
        records, min_code_lines=args.min_code_lines, symbol_ratio=args.symbol_ratio
    )
    pipeline.write_records(
        args.out,
        (
            {
                "id": r.id,
                "instruction": r.instruction,
                "response": r.response,
                "source": r.source,
                **({"system": r.system} if r.system is not None else {}),
            }
            for r in kept
        ),
    )
    _mark_done(args.state, fingerprint)
    print(f"kept={len(kept)} dropped={dropped}")
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    sources = []
    for raw in args.source:
        try:
            name, rest = raw.split("=", 1)
            path, count = rest.rsplit("=", 1)
            sources.append(pipeline.MixSource(name, Path(path), int(count)))
        except ValueError as exc:
            raise ToolError(f"--source must be NAME=PATH=COUNT, got {raw!r}") from exc

    shuffle_seed = args.seed if args.shuffle else None
    fingerprint = run_fingerprint(
        ["mix", str(args.out), str(shuffle_seed)]
        + [f"{s.name}={_file_digest(s.path)}={s.expected}" for s in sources]
    )
    if _already_done(args.state, fingerprint) and Path(args.out).exists():
        log.info("mix already complete; nothing to do")
        return 0

    manifest = pipeline.mix_corpora(sources, args.out, shuffle_seed=shuffle_seed)
    if args.manifest:
        Path(args.manifest).write_text(manifest.to_json() + "\n", encoding="utf-8")
    _mark_done(args.state, fingerprint)
    print(f"total={manifest.total}")
    return 0


def cmd_sample_eval(args: argparse.Namespace) -> int:
    en_items = evalset.load_question_items(args.en)
    ar_items = evalset.load_question_items(args.ar)
    sample = evalset.sample_questions(en_items, args.n, args.seed)
    pairs, misses = evalset.align_references(sample, ar_items)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_records(
        out_dir / "sample.jsonl",
        ({"subject": q.subject, "item_id": q.item_id, "text": q.text} for q in sample),
    )
    pipeline.write_records(
        out_dir / "pairs.jsonl",
        (
            {
                "subject": p.en.subject,
                "item_id": p.en.item_id,
                "text": p.en.text,
                "reference": p.ar_reference,
            }
            for p in pairs
        ),
    )
    pipeline.write_records(
        out_dir / "misses.jsonl",
        ({"subject": subject, "item_id": item_id} for subject, item_id in misses),
    )
    print(f"sampled={len(sample)} aligned={len(pairs)} misses={len(misses)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    pairs = []
    for obj in pipeline.read_records(args.pairs):
        pairs.append(
            evalset.AlignedPair(
                en=evalset.QuestionItem(
                    subject=str(obj["subject"]),
                    item_id=str(obj["item_id"]),
                    text=str(obj["text"]),
                ),
                ar_reference=str(obj["reference"]),
            )
        )
    outputs = _read_lines(args.outputs)
    report, row = evalset.build_report(pairs, outputs, args.name)
    print(row)
    if args.out:
        Path(args.out).write_text(
            evalset.report_to_json(args.name, report) + "\n", encoding="utf-8"
        )
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_endpoint_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--base-url", dest="base_url", help="endpoint base URL")
    sub.add_argument("--model", help="model name sent in requests")
    sub.add_argument("--timeout", type=float, default=None)
    sub.add_argument("--max-retries", dest="max_retries", type=int, default=None)
    sub.add_argument("--backoff-base", dest="backoff_base", type=float, default=None)
    sub.add_argument("--temperature", type=float, default=None)
    sub.add_argument("--max-tokens", dest="max_tokens", type=int, default=None)
    sub.add_argument("--concurrency", type=int, default=None)
    sub.add_argument("--state", required=True, help="resumable job state file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtpipe",
        description="Checkpoint quantization/merging, corpus construction and MT scoring.",
    )
    parser.add_argument("--config", help="flat KEY=VALUE defaults file")
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("quantize", help="8-bit quantize a checkpoint")
    sub.add_argument("--in", dest="in_path", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument(
        "--skip", action="append", default=[],
        help="glob of tensor names to keep at source precision (repeatable)",
    )
    sub.set_defaults(func=cmd_quantize)

    sub = commands.add_parser("merge", help="slerp-merge two checkpoints")
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub.add_argument("--t", type=float, default=0.5)
    sub.add_argument("--eps", type=float, default=1e-8)
    sub.add_argument("--on-missing", choices=["error", "copy"], default="error")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_merge)

    sub = commands.add_parser("score", help="score hypothesis lines against references")
    sub.add_argument("--hyp", required=True)
    sub.add_argument("--ref", required=True)
    sub.add_argument("--metric", choices=["bleu", "chrf", "rouge", "all"], default="all")
    sub.add_argument("--report", help="write machine-readable scores here")
    sub.set_defaults(func=cmd_score)

    sub = commands.add_parser("tokenize", help="13a-tokenize lines")
    sub.add_argument("--in", dest="in_path")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_tokenize)

    sub = commands.add_parser("translate-corpus", help="translate instruction records")
    sub.add_argument("--in", dest="in_path", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--template", choices=["teacher", "lightweight"], default="teacher")
    _add_endpoint_flags(sub)
    sub.set_defaults(func=cmd_translate_corpus)

    sub = commands.add_parser("judge", help="filter a parallel corpus with a judge model")
    sub.add_argument("--in", dest="in_path", required=True)
    sub.add_argument("--accepted", required=True)
    sub.add_argument("--stats", help="write stats JSON here")
    _add_endpoint_flags(sub)
    sub.set_defaults(func=cmd_judge)

    sub = commands.add_parser("pair", help="pair records with aligned translations")
    sub.add_argument("--records", required=True)
    sub.add_argument("--instr-ar", dest="instr_ar", required=True)
    sub.add_argument("--resp-ar", dest="resp_ar", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--state")
    sub.set_defaults(func=cmd_pair)

    sub = commands.add_parser("filter-code", help="drop code-like records")
    sub.add_argument("--in", dest="in_path", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--min-code-lines", type=int, default=3)
    sub.add_argument("--symbol-ratio", type=float, default=0.30)
    sub.add_argument("--state")
    sub.set_defaults(func=cmd_filter_code)

    sub = commands.add_parser("mix", help="concatenate tagged corpora with count checks")
    sub.add_argument("--source", action="append", required=True, metavar="NAME=PATH=COUNT")
    sub.add_argument("--out", required=True)
    sub.add_argument("--manifest")
    sub.add_argument("--shuffle", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--state")
    sub.set_defaults(func=cmd_mix)

    sub = commands.add_parser("sample-eval", help="sample and align an evaluation set")
    sub.add_argument("--en", required=True)
    sub.add_argument("--ar", required=True)
    sub.add_argument("--n", type=int, default=500)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=cmd_sample_eval)

    sub = commands.add_parser("report", help="score outputs and render a table row")
    sub.add_argument("--pairs", required=True)
    sub.add_argument("--outputs", required=True)
    sub.add_argument("--name", required=True)
    sub.add_argument("--out", help="write machine-readable report here")
    sub.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ToolError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
