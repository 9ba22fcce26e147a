"""What a CLI process loads at start-up, and the traced benchmark run that
reads ``sys.modules["mtpipe.<m>"]`` for every submodule."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import mtpipe
from mtpipe import cli

from oracles import naive_fingerprint
from stubserver import StubEndpoint

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("numpy", "http.client", "ssl", "urllib.request")
# No command loads hashlib, nor _hashlib, which maps OpenSSL's libcrypto: job
# state hashes with the interpreter's built-in SHA-256.
HASHLIB = ("hashlib", "_hashlib")
# Standard modules only some paths load: dataclasses in the submodules that
# define data classes.
PATH_ONLY = ("dataclasses",)


def _load_spans():
    """bench/spans.py, loaded by path: bench/ is no package."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module


TRACED = _load_spans().TRACED
TRACED_MODULES = tuple(sorted({module for module, _ in TRACED}))


def _child(code: str, *args: str, env: dict | None = None) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env={**(os.environ if env is None else env), "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_PARSER_CHILD = f"""
import json, sys
from mtpipe.cli import build_parser
build_parser()
print(json.dumps([
    [m for m in {HEAVY + HASHLIB + PATH_ONLY + ("logging",)!r} if m in sys.modules],
    [m for m in {TRACED_MODULES!r} if "mtpipe." + m not in sys.modules],
]))
"""


def test_building_the_parser_loads_no_numpy_or_http_and_registers_every_module():
    loaded_heavy, unregistered = _child(_PARSER_CHILD)
    assert loaded_heavy == []
    assert unregistered == []


_COMMANDS_CHILD = f"""
import json, sys
from pathlib import Path
from mtpipe.cli import main

work = Path(sys.argv[1])
def write(name, rows):
    (work / name).write_text("".join(json.dumps(r) + "\\n" for r in rows), encoding="utf-8")

write("records.jsonl", [{{"instruction": f"say {{i}}", "response": f"ok {{i}}"}} for i in range(6)])
write("en.jsonl", [{{"subject": "s", "item_id": str(i), "text": f"q {{i}}"}} for i in range(8)])
write("ar.jsonl", [{{"subject": "s", "item_id": str(i), "text": f"س {{i}}"}} for i in range(8)])
(work / "outputs.txt").write_text("".join(f"o {{i}}\\n" for i in range(4)), encoding="utf-8")
runs = [
    ["filter-code", "--in", str(work / "records.jsonl"), "--out", str(work / "kept.jsonl")],
    ["mix", "--source", f"a={{work / 'kept.jsonl'}}=6", "--out", str(work / "mix.jsonl")],
    ["sample-eval", "--en", str(work / "en.jsonl"), "--ar", str(work / "ar.jsonl"),
     "--n", "4", "--seed", "1", "--out", str(work / "eval")],
    ["report", "--pairs", str(work / "eval" / "pairs.jsonl"),
     "--outputs", str(work / "outputs.txt"), "--name", "x"],
]
codes = [main(argv) for argv in runs]
state = ["--state", str(work / "step.state")]
codes += [main([*runs[0], *state]), main([*runs[0], *state])]  # the second logs at INFO
print(json.dumps([codes, [m for m in {HEAVY + HASHLIB + ("logging",)!r} if m in sys.modules]]))
"""


def test_corpus_and_eval_commands_load_no_numpy_http_or_logging(tmp_path):
    codes, loaded = _child(_COMMANDS_CHILD, str(tmp_path))
    assert codes == [0, 0, 0, 0, 0, 0]
    assert loaded == []
    # The run under --state hashed all the same: its input, then its parts.
    digest = hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest()
    parts = ["filter-code", digest, "3", "0.3", str(tmp_path / "kept.jsonl")]
    assert json.loads((tmp_path / "step.state").read_text())["fingerprint"] == \
        naive_fingerprint(parts)


_CHECKPOINT_CHILD = """
import json, struct, sys
from pathlib import Path
from mtpipe.cli import main

work = Path(sys.argv[1])
def write(name, values):
    bits = [struct.unpack("<I", struct.pack("<f", v))[0] >> 16 for v in values]
    data = struct.pack(f"<{len(bits)}H", *bits)
    header = json.dumps({"w": {"dtype": "BF16", "shape": [len(bits)],
                               "data_offsets": [0, len(data)]}}).encode()
    (work / name).write_bytes(struct.pack("<Q", len(header)) + header + data)

write("a.safetensors", [1.0, -2.0, 0.5, 3.0])
write("b.safetensors", [0.5, 2.0, -1.0, 1.5])
codes = [
    main(["quantize", "--in", str(work / "a.safetensors"), "--out", str(work / "q.safetensors")]),
    main(["merge", "--a", str(work / "q.safetensors"), "--b", str(work / "b.safetensors"),
          "--out", str(work / "m.safetensors")]),
]
print(json.dumps([codes, "_hashlib" in sys.modules, "logging" in sys.modules]))
"""


def test_quantize_and_merge_hash_and_log_nothing(tmp_path):
    codes, hashed, logging_loaded = _child(_CHECKPOINT_CHILD, str(tmp_path))
    assert codes == [0, 0]
    assert not hashed
    assert not logging_loaded


_ENDPOINT_CHILD = """
import json, sys
from pathlib import Path
from mtpipe.cli import main

work, net = Path(sys.argv[1]), ["--base-url", sys.argv[2], "--model", "m", "--concurrency", "2"]
def write(name, rows):
    (work / name).write_text("".join(json.dumps(r) + "\\n" for r in rows), encoding="utf-8")

write("records.jsonl", [{"instruction": f"say {i}", "response": f"ok {i}"} for i in range(6)])
write("pairs.jsonl", [{"en": f"e {i}", "ar": f"a {i}"} for i in range(6)])
codes = [
    main(["translate-corpus", "--in", str(work / "records.jsonl"),
          "--out", str(work / "tuples.jsonl"), "--state", str(work / "t.state"), *net]),
    main(["judge", "--in", str(work / "pairs.jsonl"), "--accepted", str(work / "accepted.jsonl"),
          "--stats", str(work / "stats.json"), "--state", str(work / "j.state"), *net]),
]
print(json.dumps([codes, [m for m in ("http.client", "ssl", "email", "urllib.request", "logging",
                                      "hashlib", "_hashlib", "encodings.idna")
                          if m in sys.modules]]))
"""


def test_an_endpoint_job_over_http_loads_no_tls_mail_urllib_request_or_logging(tmp_path):
    # The proxy lookup loads urllib.request (and with it hashlib) only when a
    # proxy is set. Either way the resolver gets the host as ASCII bytes, so
    # the IDNA codec is not loaded.
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    outputs = []
    def reply(prompt, nth):
        return ("ok", "accept" if "bilingual judge" in prompt else f"reply {len(prompt)}")

    with StubEndpoint(reply) as stub:
        for proxy in (None, stub.base_url):
            work = tmp_path / ("proxied" if proxy else "direct")
            work.mkdir()
            codes, loaded = _child(_ENDPOINT_CHILD, str(work), stub.base_url,
                                   env={**env, "HTTP_PROXY": proxy} if proxy else env)
            assert codes == [0, 0]
            if proxy:
                assert "urllib.request" in loaded and "encodings.idna" not in loaded
            else:
                assert loaded == []
            outputs.append([(work / name).read_bytes()
                            for name in ("tuples.jsonl", "accepted.jsonl", "stats.json")])
        assert len(stub.requests) == 2 * (6 * 2 + 6)
    assert outputs[0] == outputs[1]


_ROOT_LOGGER_CHILD = """
import json, logging, sys
from mtpipe.cli import main
codes = [main(["mix", "--source", "bad", "--out", sys.argv[1]]),
         main(["-v", "mix", "--source", "bad", "--out", sys.argv[1]])]
root = logging.getLogger()
print(json.dumps([codes, root.handlers == [], logging.getLevelName(root.level)]))
"""


def test_main_leaves_the_host_root_logger_as_it_was(tmp_path):
    # A host that imported logging and set up nothing: main adds no handler
    # and sets no level, with or without -v.
    codes, no_handlers, level = _child(_ROOT_LOGGER_CHILD, str(tmp_path / "o"))
    assert codes == [2, 2]
    assert no_handlers
    assert level == "WARNING"


_SAMPLING_CHILD = """
import json, sys, types
from pathlib import Path
from mtpipe.cli import main

work = Path(sys.argv[1])
def write(name, rows):
    (work / name).write_text("".join(json.dumps(r) + "\\n" for r in rows), encoding="utf-8")

write("a.jsonl", [{"en": f"e {i}", "ar": f"a {i}"} for i in range(6)])
write("en.jsonl", [{"subject": "s", "item_id": str(i), "text": f"q {i}"} for i in range(8)])
write("ar.jsonl", [{"subject": "s", "item_id": str(i), "text": f"a {i}"} for i in range(8)])
codes = [
    main(["mix", "--source", f"a={work / 'a.jsonl'}=6", "--shuffle", "--seed", "3",
          "--out", str(work / "mix.jsonl")]),
    main(["sample-eval", "--en", str(work / "en.jsonl"), "--ar", str(work / "ar.jsonl"),
          "--n", "4", "--seed", "1", "--out", str(work / "eval")]),
]
run = [m for m in ("evalset", "metrics", "shards")
       if type(sys.modules["mtpipe." + m]) is types.ModuleType]
print(json.dumps([codes, run]))
"""


def test_sampling_and_shuffling_leave_the_metrics_unloaded(tmp_path):
    # A lazy module stays of the LazyLoader's class until its code first runs.
    codes, run = _child(_SAMPLING_CHILD, str(tmp_path))
    assert codes == [0, 0]
    assert run == ["evalset"]


@pytest.mark.parametrize("workload", ["ckpt", "corpus", "eval"])
def test_a_traced_benchmark_run_of_one_workload_succeeds(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--trace", "1", "--size", "tiny", "--seconds", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_every_traced_function_resolves():
    # Tracer.install fails on a name that is gone; this finds it without a
    # benchmark run.
    missing = []
    for module, name in TRACED:
        owner = importlib.import_module(f"mtpipe.{module}")
        cls, _, attr = name.rpartition(".")
        # A method is read from its class's own dict, as Tracer.install does.
        found = vars(getattr(owner, cls, object)).get(attr) if cls else getattr(owner, attr, None)
        if not callable(found):
            missing.append((module, name))
    assert missing == []


def _annotated_callables():
    for name in mtpipe.__all__:
        obj = getattr(mtpipe, name)
        yield name, obj.__init__ if inspect.isclass(obj) else obj
    for name, fn in vars(cli).items():
        if inspect.isfunction(fn) and fn.__module__ == cli.__name__:
            yield f"cli.{name}", fn


def test_type_hints_resolve():
    unresolved = {}
    for name, fn in _annotated_callables():
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved[name] = str(exc)
    assert unresolved == {}
