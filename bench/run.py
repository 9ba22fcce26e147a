"""Benchmark of the mtpipe CLI on three workloads: ckpt, corpus and eval.

    python3 bench/run.py --workload corpus --seed 3 --seconds 36 --trace 0

Run from anywhere; it works inside the repository that holds this file and
builds its inputs from ``--seed`` under ``.bench_work/``. With ``--trace 0``
it repeats the workload's command chain, each command a process of its own,
for ``--seconds`` and prints the end-to-end metrics (medians over the chains
after the first). With ``--trace 1`` each such chain is followed by three
in-process ones, the middle one under the span wrappers of ``spans.py``, and
it prints the per-layer metrics. ``--workload all`` does both for every
workload. Each output is checked (see ``checks.py``). The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. Spans and results are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ckpt", "corpus", "eval")
COMMANDS = ("quantize", "merge", "filter-code", "translate-corpus", "judge", "mix",
            "sample-eval", "report")
CLI_ENTRY = "import sys; from mtpipe.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_ENTRY = "from mtpipe.cli import build_parser; build_parser()"
SETUP_STARTS_PER_ROUND = 2
CONCURRENCY = 2
MIX_SEED = 17
MERGE_T = 0.5

END_TO_END = (("setup_s", "s", "lower"), ("job_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"))
# Per-layer metrics as (name, unit, better). Those of layers a workload does
# not use read 0 on it.
PER_LAYER = (
    (("cli.cpu_s", "s", "lower"), ("cli.self_s", "s", "lower"))
    + tuple((f"cli.{c}.s", "s", "lower") for c in COMMANDS)
    + tuple((f"cli.{c}.peak_rss_mb", "MB", "lower") for c in COMMANDS)
    + tuple(tuple(line.split()) for line in """
tensorio.read_checkpoint.s s lower
tensorio.read_checkpoint.mb_per_s MB/s higher
tensorio.read_checkpoint.rss_mb MB lower
tensorio.write_checkpoint.s s lower
tensorio.write_checkpoint.mb_per_s MB/s higher
tensorio.tensor_as_f64.s s lower
tensorio.tensor_as_f64.melem_per_s Melem/s higher
tensorio.tensor_from_f64.s s lower
fp8.encode_array.s s lower
fp8.encode_array.melem_per_s Melem/s higher
fp8.decode_array.s s lower
fp8.decode_array.melem_per_s Melem/s higher
quant.quantize_checkpoint.self_s s lower
quant.quantize_checkpoint.tensors count lower
quant.validate_quantization.self_s s lower
merge.merge_checkpoints.self_s s lower
merge.slerp_vec.s s lower
merge.slerp_vec.melem_per_s Melem/s higher
inference.run_batch.s s lower
inference.requests_per_s 1/s higher
inference.chat_complete.calls count lower
inference.chat_complete.p50_ms ms lower
inference.chat_complete.p99_ms ms lower
inference.chat_complete.overhead_ms ms lower
inference.in_flight_mean count higher
inference.run_batch.idle_s s lower
inference.requests_per_connection count higher
inference.attempts_per_item count lower
state.record.calls count lower
state.record.s s lower
state.checkpoint.calls count lower
state.checkpoint.s s lower
state.load_s s lower
state.journal_mb MB lower
pipeline.read_records.s s lower
pipeline.read_records.records_per_s 1/s higher
pipeline.write_records.s s lower
pipeline.load_instruction_records.s s lower
pipeline.filter_code_samples.s s lower
pipeline.filter_code_samples.records_per_s 1/s higher
pipeline.render_translation_prompt.s s lower
pipeline.render_judge_prompt.s s lower
pipeline.parse_verdict.s s lower
pipeline.build_bilingual_tuples.s s lower
pipeline.mix_corpora.self_s s lower
metrics.evaluate_pairs.s s lower
metrics.tokenize_13a.calls count lower
metrics.tokenize_13a.s s lower
metrics.bleu_corpus.self_s s lower
metrics.bleu_corpus.segments_per_s 1/s higher
metrics.chrf_pp.s s lower
metrics.chrf_pp.segments_per_s 1/s higher
metrics.rouge_l_corpus.self_s s lower
metrics.lcs_length.s s lower
metrics.lcs_length.mcells_per_s Mcell/s higher
evalset.load_question_items.s s lower
evalset.sample_questions.s s lower
evalset.align_references.s s lower
evalset.build_report.self_s s lower
trace.overhead_s s lower
""".strip().splitlines())
)


class Missing(Exception):
    """The tree lacks the program or the test files the benchmark uses."""


def _require_tree() -> None:
    for rel in ("src/mtpipe/cli.py", "tests/oracles.py", "tests/stubserver.py",
                "tests/data/golden/prompt_lightweight.txt", "tests/data/golden/prompt_judge.txt"):
        if not (ROOT / rel).is_file():
            raise Missing(f"{ROOT / rel} not found: run inside a checkout of the repository")
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Launcher:
    """Starts measured processes through ``launcher.py``, so that their peak
    RSS is their own and not this process's (see launcher.py)."""

    def __init__(self):
        self.env = _child_env()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path, cwd: Path) -> dict:
        """Run one process to its end: exit code, wall time, peak RSS, CPU."""
        self.proc.stdin.write(json.dumps(
            {"argv": argv, "env": self.env, "cwd": str(cwd), "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def setup_time(launcher: Launcher, work: Path) -> float:
    return launcher.run([sys.executable, "-c", SETUP_ENTRY], work / "setup.log", work)["s"]


class Endpoint:
    """The chat endpoint in a process of its own (see endpoint.py)."""

    def __init__(self, work: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "tests")
        self.log = open(work / "endpoint.log", "wb")
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name(
            "endpoint.py"))], stdout=subprocess.PIPE, stderr=self.log, env=env)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"endpoint did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# ---------------------------------------------------------------------------
# Workloads: inputs, command chain, outputs and checks
# ---------------------------------------------------------------------------


class Workload:
    outputs: tuple[str, ...] = ()
    endpoint: Endpoint | None = None

    def __init__(self, work: Path, seed: int, sizes, launcher: Launcher):
        self.work = work
        self.launcher = launcher
        self.seed = seed
        self.data = self.prepare(np.random.default_rng(seed), sizes)

    def reset(self) -> None:
        """Remove what the last chain left, so the next one starts afresh."""

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for name in self.outputs:
            digest.update((self.work / name).read_bytes())
        return digest.hexdigest()

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()


class Ckpt(Workload):
    outputs = ("teacher-fp8.safetensors", "merged.safetensors")

    def prepare(self, rng, sizes):
        inputs.make_ckpt(rng, sizes, self.work)

    def steps(self):
        skip = [a for pattern in inputs.CKPT_SKIP for a in ("--skip", pattern)]
        return [("quantize", ["quantize", "--in", "teacher.safetensors",
                              "--out", "teacher-fp8.safetensors", *skip], None),
                ("merge", ["merge", "--a", "base.safetensors", "--b", "tuned.safetensors",
                           "--t", repr(MERGE_T), "--out", "merged.safetensors"], None)]

    def check(self):
        w = self.work
        return (checks.check_quantize(w / "teacher.safetensors", w / "teacher-fp8.safetensors",
                                      inputs.CKPT_SKIP)
                + checks.check_merge(w / "base.safetensors", w / "tuned.safetensors",
                                     w / "merged.safetensors", MERGE_T))


class Corpus(Workload):
    outputs = ("kept.jsonl", "tuples.first.jsonl", "tuples.jsonl", "accepted.jsonl",
               "stats.json", "mixed.jsonl")

    def prepare(self, rng, sizes):
        data = inputs.make_corpus(rng, sizes, self.work)
        self.want = checks.corpus_expectations(
            data, checks.Prompts(ROOT / "tests/data/golden"), MIX_SEED)
        self.endpoint = Endpoint(self.work)
        return data

    def reset(self):
        for name in ("translate.state", "translate.state.journal", "judge.state",
                     "judge.state.journal", *self.outputs):
            (self.work / name).unlink(missing_ok=True)
        self.endpoint.stats()

    def steps(self):
        net = ["--base-url", self.endpoint.url, "--model", "bench-translator",
               "--concurrency", str(CONCURRENCY)]
        translate = ["translate-corpus", "--in", "kept.jsonl", "--out", "tuples.jsonl",
                     "--template", "lightweight", *net, "--state", "translate.state"]

        def keep_first():
            os.replace(self.work / "tuples.jsonl", self.work / "tuples.first.jsonl")

        n_tuples, n_accepted = len(self.want["tuples"]), len(self.want["accepted"])
        return [
            ("filter-code", ["filter-code", "--in", "records.jsonl", "--out", "kept.jsonl"], None),
            ("translate-corpus", translate, keep_first),
            ("translate-corpus", translate, None),
            ("judge", ["judge", "--in", "pairs.jsonl", "--accepted", "accepted.jsonl",
                       "--stats", "stats.json", *net, "--state", "judge.state"], None),
            ("mix", ["mix", "--source", f"tuples=tuples.jsonl={n_tuples}",
                     "--source", f"judged=accepted.jsonl={n_accepted}",
                     "--shuffle", "--seed", str(MIX_SEED), "--out", "mixed.jsonl"], None),
        ]

    def check(self):
        return checks.check_corpus(self.work, self.want)

    def journal_bytes(self) -> int:
        return sum((self.work / f"{s}.state.journal").stat().st_size
                   for s in ("translate", "judge"))


class Eval(Workload):
    outputs = ("evalset/sample.jsonl", "evalset/pairs.jsonl", "evalset/misses.jsonl",
               "report.json")

    def prepare(self, rng, sizes):
        self.sample_seed = self.seed * 7919 + 11
        return inputs.make_eval(rng, sizes, self.work, self.sample_seed, oracles.naive_sample)

    def steps(self):
        return [("sample-eval", ["sample-eval", "--en", "en.jsonl", "--ar", "ar.jsonl",
                                 "--n", str(len(self.data["sample"])),
                                 "--seed", str(self.sample_seed), "--out", "evalset"], None),
                ("report", ["report", "--pairs", "evalset/pairs.jsonl",
                            "--outputs", "outputs.txt", "--name", "bench-system",
                            "--out", "report.json"], None)]

    def check(self):
        # Scoring the references against themselves must give exactly 100.
        own = self.launcher.run([sys.executable, "-c", CLI_ENTRY, "report", "--pairs",
                           "evalset/pairs.jsonl", "--outputs", "references.txt",
                           "--name", "self", "--out", "self-report.json"],
                                self.work / "check.log", self.work)
        if own["rc"] != 0:
            return ["report on the references themselves failed"]
        return checks.check_eval(self.work, self.data, self.work / "self-report.json")


KINDS = {"ckpt": Ckpt, "corpus": Corpus, "eval": Eval}


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


def run_chain(wl: Workload) -> dict:
    """Each command as its own process, in order; stops at the first failure."""
    wl.reset()
    per_command, failed = [], 0
    steps = wl.steps()
    first_start = time.monotonic()
    for i, (name, argv, after) in enumerate(steps):
        r = wl.launcher.run([sys.executable, "-c", CLI_ENTRY, *argv], wl.work / "cli.log",
                            wl.work)
        per_command.append((name, r))
        if r["rc"] != 0:
            failed = len(steps) - i
            break
        if after:
            after()
    job_s = time.monotonic() - first_start
    return {"job_s": job_s, "commands": per_command, "attempted": len(steps), "failed": failed}


def run_chain_in_process(wl: Workload, tracer=None) -> dict:
    """The same chain through ``mtpipe.cli.main`` in this interpreter, with
    every traced function wrapped when a tracer is given."""
    import mtpipe.cli

    wl.reset()
    steps = wl.steps()
    failed = 0
    cwd = os.getcwd()
    os.chdir(wl.work)
    if tracer is not None:
        tracer.install()
    try:
        first_start = time.monotonic()
        for i, (_, argv, after) in enumerate(steps):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = mtpipe.cli.main(argv)
            if rc != 0:
                failed = len(steps) - i
                break
            if after:
                after()
        job_s = time.monotonic() - first_start
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    return {"job_s": job_s, "attempted": len(steps), "failed": failed}


def finish_round(wl: Workload, result: dict, first_fingerprint: list) -> list[str]:
    """Endpoint counts, and byte-identity of the outputs with the first chain
    of the run. The full check runs once, on the last chain, after the
    measured window."""
    errors = []
    if isinstance(wl, Corpus):
        result["endpoint"] = wl.endpoint.stats()
        result["attempted"] += result["endpoint"]["requests"]
        errors += checks.check_corpus_requests(result["endpoint"], wl.want)
    if result["failed"]:
        return errors + [f"{result['failed']} commands failed or did not run"]
    if not first_fingerprint:
        first_fingerprint.append(wl.fingerprint())
    elif wl.fingerprint() != first_fingerprint[0]:
        errors.append("outputs differ from the first chain of this run")
    return errors


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _median_dicts(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _cli_figures(chain: dict) -> dict:
    figures = {f"cli.{c}.{k}": 0.0 for c in COMMANDS for k in ("s", "peak_rss_mb")}
    for name, r in chain["commands"]:
        figures[f"cli.{name}.s"] += r["s"]
        figures[f"cli.{name}.peak_rss_mb"] = max(figures[f"cli.{name}.peak_rss_mb"],
                                                 r["rss_mb"])
    figures["cli.cpu_s"] = sum(r["cpu_s"] for _, r in chain["commands"])
    return figures


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    launcher = Launcher()
    wl = None
    errors: list[str] = []
    attempted = failed = 0
    setups, plain, layers, overheads = [], [], [], []
    first_fingerprint: list[str] = []
    try:
        wl = KINDS[workload](work, seed, sizes, launcher)
        setup_time(launcher, work)  # compiles bytecode once, as an installed package has it
        start = time.monotonic()
        last = 0.0
        while not plain or time.monotonic() - start + last <= seconds:
            t0 = time.monotonic()
            setups += [setup_time(launcher, work) for _ in range(SETUP_STARTS_PER_ROUND)]
            chain = run_chain(wl)
            errors += finish_round(wl, chain, first_fingerprint)
            plain.append(chain)
            rounds = [chain]
            if trace:
                # Wrapper cost is measured against the same chain in-process
                # without wrappers, as both skip the per-command process
                # start. The traced chain runs between two bare ones, so a
                # drift in host speed weighs on both sides alike.
                tracer = Tracer()
                bare = run_chain_in_process(wl)
                errors += finish_round(wl, bare, first_fingerprint)
                traced = run_chain_in_process(wl, tracer)
                errors += finish_round(wl, traced, first_fingerprint)
                journal = wl.journal_bytes() if isinstance(wl, Corpus) else 0
                bare_again = run_chain_in_process(wl)
                errors += finish_round(wl, bare_again, first_fingerprint)
                rounds += [bare, traced, bare_again]
                overheads.append(traced["job_s"] - (bare["job_s"] + bare_again["job_s"]) / 2)
                layers.append(layer_metrics(tracer.spans, traced.get("endpoint"), journal))
            attempted += sum(r["attempted"] for r in rounds)
            failed += sum(r["failed"] for r in rounds)
            last = time.monotonic() - t0
        if not failed:
            errors += wl.check()
        if trace:
            tracer.dump(out_dir / f"spans-{workload}-{seed}.jsonl")
    finally:
        if wl is not None:
            wl.close()
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    # The first chain of a run warms the host and the endpoint; it is slower
    # than the rest on corpus, so it stays out of the medians.
    measured = plain[1:] or plain
    if trace:
        metrics = _median_dicts([_cli_figures(c) for c in measured])
        metrics.update(_median_dicts(layers))
        metrics["trace.overhead_s"] = statistics.median(overheads)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "job_s": statistics.median(c["job_s"] for c in measured),
            "peak_rss_mb": statistics.median(
                max(r["rss_mb"] for _, r in c["commands"]) for c in measured),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    for e in errors:
        print(f"CHECK FAILED [{workload}]: {e}", file=sys.stderr)
    (out_dir / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "chain_s": [c["job_s"] for c in plain], "setup_s": setups,
                    "errors": errors}, indent=1))
    return result


def _print_table(workload: str, result: dict) -> None:
    print(f"# {workload}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own test")
    args = parser.parse_args(argv)
    try:
        _require_tree()
    except Missing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _import_helpers()
    # In-process CLI runs log nowhere; untraced ones log to cli.log.
    logging.getLogger().addHandler(logging.NullHandler())
    logging.getLogger().setLevel(logging.INFO)
    sizes = inputs.FULL if args.size == "full" else inputs.TINY

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
        _print_table(args.workload, result)
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, args.seed, args.seconds, trace, sizes)
            _print_table(workload, result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def _import_helpers() -> None:
    global checks, inputs, oracles
    import checks
    import inputs
    import oracles


if __name__ == "__main__":
    sys.exit(main())
