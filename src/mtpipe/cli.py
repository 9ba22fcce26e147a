"""Single entry point exposing every operation as a subcommand.

Exit codes: 0 on success, 1 on operational errors, 2 on usage errors. Logs go
to standard error; data goes to files or standard output only. The API key is
read from the MTPIPE_API_KEY (or OPENAI_API_KEY) environment variable, never
from a flag. A flat KEY=VALUE ``--config`` file supplies endpoint defaults;
flags override the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable

from . import evalset, inference, merge, metrics, pipeline, quant, tensorio
from .errors import ToolError
from .state import JobState, atomic_write, run_fingerprint

log = logging.getLogger("mtpipe")

# --config keys and the type of each value. Each key is also a flag of the
# endpoint commands (``--max-tokens`` for max_tokens), generated from this table.
_CONFIG_KEYS = {
    "base_url": str,
    "model": str,
    "timeout": float,
    "max_retries": int,
    "backoff_base": float,
    "temperature": float,
    "max_tokens": int,
    "concurrency": int,
}
_DEFAULT_CONCURRENCY = 4


class UsageError(Exception):
    """A flag or config value the program rejects; exits 2 like argparse's own
    errors."""


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    values = {}
    for line_no, line in enumerate(_read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path} line {line_no}: expected KEY=VALUE")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path} line {line_no}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path} line {line_no}: {key}: {exc}") from exc
    return values


def _endpoint_from(args: argparse.Namespace) -> tuple[inference.EndpointConfig, int]:
    """The endpoint and concurrency a command runs with. A flag wins over
    ``--config``; a setting neither gives keeps EndpointConfig's default."""
    values = _load_config(args.config)
    values.update(
        (key, getattr(args, key)) for key in _CONFIG_KEYS if getattr(args, key) is not None
    )
    concurrency = values.pop("concurrency", _DEFAULT_CONCURRENCY)
    if concurrency < 1:
        raise UsageError("concurrency must be at least 1")
    if not values.get("base_url") or not values.get("model"):
        raise ToolError("an endpoint needs --base-url and --model (or config entries)")
    try:
        cfg = inference.EndpointConfig(
            model_name=values.pop("model"),
            api_key=os.environ.get("MTPIPE_API_KEY") or os.environ.get("OPENAI_API_KEY"),
            **values,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg, concurrency


def _file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_once(
    state_path: str | None, outs: list[str | None], work: Callable[[], None],
    parts: Callable[[], list[str]],
) -> None:
    """Run a local step, or skip it when ``--state`` records this same run
    (fingerprint of ``parts()``, built only then) as done and every output it
    names in ``outs`` (None for an optional one not given) still exists."""
    if not state_path:
        work()
        return
    fingerprint_parts = parts()
    with JobState(state_path, run_fingerprint(fingerprint_parts)) as state:
        if 0 in state.completed and all(Path(out).exists() for out in outs if out):
            log.info("%s already complete; nothing to do", fingerprint_parts[0])
            return
        work()
        state.record(0, str(outs[0]))


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
    done = sum(not audit.skipped for audit in audits.values())
    log.info("quantized %d of %d tensors -> %s", done, len(audits), args.out)
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    try:
        spec = merge.MergeSpec(
            t=args.t,
            parallel_eps=args.eps,
            name_policy=merge.MissingPolicy(args.on_missing),
        )
    except (ValueError, merge.TOutOfRange) as exc:
        raise UsageError(str(exc)) from exc
    with tensorio.open_checkpoint(args.a) as a, tensorio.open_checkpoint(args.b) as b:
        merged = merge.merge_stream(a, b, spec)
        tensorio.write_checkpoint(merged, args.out)
    log.info("merged %d tensors at t=%s -> %s", len(merged.tensors), args.t, args.out)
    return 0


def _split_lines(text: str) -> list[str]:
    """One segment per line. Only "\n" ends a line, and one "\r" before it is
    dropped, so U+2028, U+0085, form feeds and the other Unicode line breaks
    stay inside a segment. A final newline adds no empty segment."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _read_lines(path: str | None) -> list[str]:
    """The lines of file ``path``, or of standard input's bytes when it is
    None, decoded as strict UTF-8 whatever the locale."""
    try:
        text = (Path(path).read_bytes() if path else sys.stdin.buffer.read()).decode("utf-8")
    except UnicodeDecodeError as exc:
        where = path or "<stdin>"
        raise ToolError(f"{where}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    return _split_lines(text)


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
        payload = dataclasses.asdict(report)
    else:
        label, corpus_score = {"bleu": ("BLEU", metrics.bleu_corpus),
                               "chrf": ("chrF++", metrics.chrf_pp),
                               "rouge": ("ROUGE-L", metrics.rouge_l_corpus)}[args.metric]
        score = corpus_score(hyps, refs)
        print(f"{label} {score:.1f} n={len(hyps)}")
        payload = {args.metric: score, "n_pairs": len(hyps)}

    if args.report:
        with atomic_write(args.report) as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_tokenize(args: argparse.Namespace) -> int:
    out = [" ".join(metrics.tokenize_13a(line)) for line in _read_lines(args.in_path)]
    if args.out:
        with atomic_write(args.out) as fh:
            fh.writelines(s + "\n" for s in out)
    else:
        for s in out:
            print(s)
    return 0


def cmd_translate_corpus(args: argparse.Namespace) -> int:
    records = pipeline.load_instruction_records(args.in_path)
    prompts: list[str] = []
    for record in records:
        try:
            prompts.append(pipeline.render_translation_prompt(record.instruction, args.template))
            prompts.append(pipeline.render_translation_prompt(record.response, args.template))
        except pipeline.EmptyText as exc:
            raise pipeline.EmptyText(f"record {record.id!r}: {exc}") from exc
    cfg, concurrency = _endpoint_from(args)
    outputs = inference.run_prompts(prompts, cfg, concurrency, args.state)

    pipeline.write_bilingual_tuples(args.out, records, outputs[0::2], outputs[1::2])
    log.info("translated %d records -> %s", len(records), args.out)
    return 0


def cmd_judge(args: argparse.Namespace) -> int:
    pairs = pipeline.load_parallel_pairs(args.in_path)
    cfg, concurrency = _endpoint_from(args)
    accepted, stats = pipeline.filter_parallel_corpus(
        pairs, cfg, state=args.state, concurrency=concurrency
    )

    pipeline.write_parallel_pairs(args.accepted, accepted)
    print(
        f"candidates={stats.candidates} accepted={stats.accepted} "
        f"rejected={stats.rejected} unparseable={stats.unparseable} "
        f"rate={stats.acceptance_rate * 100:.2f}%"
    )
    if args.stats:
        with atomic_write(args.stats) as fh:
            fh.write(stats.to_json())
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    def work() -> None:
        records = pipeline.load_instruction_records(args.records)
        n = pipeline.write_bilingual_tuples(
            args.out, records, _read_lines(args.instr_ar), _read_lines(args.resp_ar)
        )
        log.info("paired %d records -> %s", n, args.out)

    _run_once(args.state, [args.out], work, lambda: [
        "pair", _file_digest(args.records), _file_digest(args.instr_ar),
        _file_digest(args.resp_ar), str(args.out)])
    return 0


def cmd_filter_code(args: argparse.Namespace) -> int:
    def work() -> None:
        records = pipeline.load_instruction_records(args.in_path)
        kept, dropped = pipeline.filter_code_samples(
            records, min_code_lines=args.min_code_lines, symbol_ratio=args.symbol_ratio
        )
        pipeline.write_instruction_records(args.out, kept)
        print(f"kept={len(kept)} dropped={dropped}")

    _run_once(args.state, [args.out], work, lambda: [
        "filter-code", _file_digest(args.in_path), str(args.min_code_lines),
        repr(args.symbol_ratio), str(args.out)])
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    sources = []
    for raw in args.source:
        try:
            name, rest = raw.split("=", 1)
            path, count = rest.rsplit("=", 1)
            sources.append(pipeline.MixSource(name, Path(path), int(count)))
        except ValueError as exc:
            raise UsageError(f"--source must be NAME=PATH=COUNT, got {raw!r}") from exc
        try:
            name.encode("utf-8")  # argv bytes that are not UTF-8 arrive as lone surrogates
        except UnicodeEncodeError as exc:
            raise UsageError(f"--source name {name!r} is not UTF-8") from exc

    shuffle_seed = args.seed if args.shuffle else None

    def work() -> None:
        manifest = pipeline.mix_corpora(sources, args.out, shuffle_seed=shuffle_seed)
        if args.manifest:
            with atomic_write(args.manifest) as fh:
                fh.write(manifest.to_json() + "\n")
        print(f"total={manifest.total}")

    _run_once(args.state, [args.out, args.manifest], work, lambda: [
        "mix", str(args.out), str(shuffle_seed),
        *(f"{s.name}={_file_digest(s.path)}={s.expected}" for s in sources)])
    return 0


def cmd_sample_eval(args: argparse.Namespace) -> int:
    en_items = evalset.load_question_items(args.en)
    ar_items = evalset.load_question_items(args.ar)
    sample = evalset.sample_questions(en_items, args.n, args.seed)
    pairs, misses = evalset.align_references(sample, ar_items)
    evalset.write_eval_set(args.out, sample, pairs, misses)
    print(f"sampled={len(sample)} aligned={len(pairs)} misses={len(misses)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    pairs = evalset.load_aligned_pairs(args.pairs)
    outputs = _read_lines(args.outputs)
    report, row = evalset.build_report(pairs, outputs, args.name)
    print(row)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(evalset.report_to_json(args.name, report) + "\n")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_endpoint_flags(sub: argparse.ArgumentParser) -> None:
    for key, kind in _CONFIG_KEYS.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)
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
    except UsageError as exc:
        log.error("%s", exc)
        return 2
    except (ToolError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
