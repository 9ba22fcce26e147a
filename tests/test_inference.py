from __future__ import annotations

import datetime
import gc
import json
import os
import random
import re
import signal
import socket
import socketserver
import ssl
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from mtpipe import inference
from mtpipe.inference import (
    BatchItem,
    EndpointConfig,
    ExhaustedRetries,
    MalformedResponse,
    NonRetryable,
    batch_fingerprint,
    chat_complete,
    run_batch,
)
from mtpipe.state import JobState, StateMismatch

from stubserver import StubEndpoint


def make_cfg(stub: StubEndpoint, **overrides) -> EndpointConfig:
    defaults = dict(
        base_url=stub.base_url,
        model_name="stub-model",
        timeout=10.0,
        max_retries=3,
        backoff_base=0.01,
    )
    defaults.update(overrides)
    return EndpointConfig(**defaults)


def test_echo(tmp_path):
    with StubEndpoint() as stub:
        assert chat_complete(make_cfg(stub), "hello there") == "hello there"


def test_retry_twice_then_succeed():
    def behavior(prompt, nth):
        return ("status", 503) if nth < 2 else ("echo", None)

    with StubEndpoint(behavior) as stub:
        assert chat_complete(make_cfg(stub), "p") == "p"
        assert stub.calls_per_prompt["p"] == 3


def test_429_is_retried():
    def behavior(prompt, nth):
        return ("status", 429) if nth == 0 else ("echo", None)

    with StubEndpoint(behavior) as stub:
        assert chat_complete(make_cfg(stub), "p") == "p"
        assert stub.calls_per_prompt["p"] == 2


def test_a_backoff_past_the_wait_limit_waits_the_limit(monkeypatch):
    waits = []

    class Stopped:
        def wait(self, seconds):
            waits.append(seconds)
            return True

    monkeypatch.setattr(inference, "_NEVER", Stopped())
    with StubEndpoint(lambda p, n: ("status", 503)) as stub:
        with pytest.raises(ExhaustedRetries, match="batch stopped after 1 attempts"):
            chat_complete(make_cfg(stub, backoff_base=threading.TIMEOUT_MAX), "p")
    assert waits == [threading.TIMEOUT_MAX]


def test_400_fails_after_exactly_one_attempt():
    with StubEndpoint(lambda p, n: ("status", 400)) as stub:
        with pytest.raises(NonRetryable):
            chat_complete(make_cfg(stub), "p")
        assert stub.calls_per_prompt["p"] == 1


def test_retries_exhaust_with_last_cause():
    with StubEndpoint(lambda p, n: ("status", 500)) as stub:
        with pytest.raises(ExhaustedRetries) as err:
            chat_complete(make_cfg(stub, max_retries=2), "p")
        assert stub.calls_per_prompt["p"] == 3
        assert "500" in str(err.value)


def test_malformed_response():
    with StubEndpoint(lambda p, n: ("raw", {"choices": []})) as stub:
        with pytest.raises(MalformedResponse):
            chat_complete(make_cfg(stub, max_retries=0), "p")


def test_connection_error_retried_then_exhausted(tmp_path):
    cfg = EndpointConfig(
        base_url="http://127.0.0.1:9",  # discard port: nothing listens
        model_name="m",
        timeout=0.5,
        max_retries=1,
        backoff_base=0.01,
    )
    with pytest.raises(ExhaustedRetries):
        chat_complete(cfg, "p")


def test_request_body_shape_and_auth_header():
    with StubEndpoint() as stub:
        cfg = make_cfg(stub, api_key="sk-test", temperature=0.0, max_tokens=2048)
        assert chat_complete(cfg, "the prompt") == "the prompt"
        payload = stub.payloads[0]
        assert payload == {
            "model": "stub-model",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.0,
            "max_tokens": 2048,
        }
        assert stub.auth_headers[0] == "Bearer sk-test"


def test_no_auth_header_without_key():
    with StubEndpoint() as stub:
        chat_complete(make_cfg(stub), "p")
        assert stub.auth_headers[0] is None


def test_serial_batch_preserves_order(tmp_path):
    items = [BatchItem(i, f"prompt-{i}") for i in range(10)]
    with StubEndpoint() as stub:
        cfg = make_cfg(stub)
        with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
            outputs = run_batch(items, cfg, 1, state)
    assert outputs == [f"prompt-{i}" for i in range(10)]


def test_concurrent_batch_order_and_inflight_bound(tmp_path):
    items = [BatchItem(i, f"item-{i:03d}") for i in range(100)]
    latency_rng = random.Random(7)
    with StubEndpoint(latency=lambda: latency_rng.uniform(0, 0.01)) as stub:
        cfg = make_cfg(stub)
        with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
            outputs = run_batch(items, cfg, 8, state)
        assert outputs == [item.prompt for item in items]
        assert stub.max_in_flight <= 8
        assert stub.max_in_flight >= 2  # concurrency actually happened


def test_run_prompts_returns_replies_in_prompt_order_under_their_fingerprint(tmp_path):
    prompts = [f"prompt-{i:02d}" for i in range(40)]
    latency_rng = random.Random(11)
    with StubEndpoint(latency=lambda: latency_rng.uniform(0, 0.01)) as stub:
        cfg = make_cfg(stub)
        assert inference.run_prompts(prompts, cfg, 4, tmp_path / "s") == prompts
        assert 2 <= stub.max_in_flight <= 4
    items = [BatchItem(i, prompt) for i, prompt in enumerate(prompts)]
    with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
        assert state.completed == dict(enumerate(prompts))


def test_run_prompts_closes_its_job_state_when_the_batch_fails(tmp_path):
    with StubEndpoint(lambda prompt, nth: ("status", 500)) as stub:
        cfg = make_cfg(stub, max_retries=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ExhaustedRetries):
                inference.run_prompts(["a", "b", "c"], cfg, 2, tmp_path / "s")
            gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_run_prompts_rejects_a_concurrency_below_one_before_it_creates_a_file(tmp_path):
    cfg = EndpointConfig(base_url="http://127.0.0.1:1", model_name="m")
    with pytest.raises(ValueError, match="concurrency must be at least 1"):
        inference.run_prompts(["a"], cfg, 0, tmp_path / "s")
    assert list(tmp_path.iterdir()) == []


def test_state_mismatch_detected(tmp_path):
    items = [BatchItem(0, "a")]
    with StubEndpoint() as stub:
        cfg = make_cfg(stub)
        with JobState(tmp_path / "s", "not-the-right-fingerprint") as state:
            with pytest.raises(StateMismatch):
                run_batch(items, cfg, 1, state)


def test_item_indices_validated(tmp_path):
    with StubEndpoint() as stub:
        cfg = make_cfg(stub)
        items = [BatchItem(0, "a"), BatchItem(2, "b")]
        with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
            with pytest.raises(ValueError):
                run_batch(items, cfg, 1, state)


def test_abort_persists_finished_work_then_resume_sends_only_rest(tmp_path):
    items = [BatchItem(i, f"job-{i:03d}") for i in range(100)]

    def failing_behavior(prompt, nth):
        if prompt == "job-040":
            return ("status", 500)
        return ("echo", None)

    state_path = tmp_path / "s"
    with StubEndpoint(failing_behavior) as stub:
        cfg = make_cfg(stub, max_retries=0)
        fp = batch_fingerprint(items, cfg)
        with JobState(state_path, fp) as state:
            with pytest.raises(ExhaustedRetries):
                run_batch(items, cfg, 4, state)
        with JobState(state_path, fp) as state:
            done_first = set(state.completed)
        assert 40 not in done_first
        assert len(done_first) >= 1

        # Heal the endpoint and resume against the same state.
        stub.behavior = lambda prompt, nth: ("echo", None)
        with JobState(state_path, fp) as state:
            outputs = run_batch(items, cfg, 4, state)
        assert outputs == [item.prompt for item in items]
        # Every item completed exactly once across both runs.
        assert all(stub.successes_per_prompt[item.prompt] == 1 for item in items)


def test_resume_skips_completed_items(tmp_path):
    items = [BatchItem(i, f"r-{i}") for i in range(6)]
    with StubEndpoint() as stub:
        cfg = make_cfg(stub)
        fp = batch_fingerprint(items, cfg)
        with JobState(tmp_path / "s", fp) as state:
            state.record(0, "cached-0")
            state.record(3, "cached-3")
            outputs = run_batch(items, cfg, 2, state)
        assert outputs[0] == "cached-0"
        assert outputs[3] == "cached-3"
        assert "r-0" not in stub.requests
        assert "r-3" not in stub.requests
        assert sorted(stub.requests) == ["r-1", "r-2", "r-4", "r-5"]


def test_rerun_after_success_sends_nothing(tmp_path):
    items = [BatchItem(i, f"x-{i}") for i in range(5)]
    with StubEndpoint() as stub:
        cfg = make_cfg(stub)
        fp = batch_fingerprint(items, cfg)
        with JobState(tmp_path / "s", fp) as state:
            first = run_batch(items, cfg, 2, state)
        count_after_first = len(stub.requests)
        with JobState(tmp_path / "s", fp) as state:
            second = run_batch(items, cfg, 2, state)
        assert second == first
        assert len(stub.requests) == count_after_first


def _serve_keepalive(stub: StubEndpoint, close_after_reply: bool = False) -> None:
    """Serve ``stub`` over HTTP/1.1 keep-alive and count in ``stub.connections``
    the connections it accepts. With ``close_after_reply`` the server closes
    each connection once it has replied, without a ``Connection: close``."""
    stub.connections = 0

    class Handler(stub._server.RequestHandlerClass):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            with stub.lock:
                stub.connections += 1

        def do_POST(self):
            super().do_POST()
            self.close_connection = close_after_reply

    stub._server.RequestHandlerClass = Handler


def test_a_connection_dropped_while_idle_is_reopened_without_an_attempt():
    with StubEndpoint() as stub:
        _serve_keepalive(stub, close_after_reply=True)
        cfg = make_cfg(stub, max_retries=0)
        for prompt in ("a", "b", "c"):
            assert chat_complete(cfg, prompt) == prompt
            time.sleep(0.05)  # the server's close lands before the next request
        assert stub.requests == ["a", "b", "c"]
        assert stub.connections == 3


def test_a_worker_resends_on_a_connection_the_server_dropped_while_idle(tmp_path):
    items = [BatchItem(i, f"drop-{i}") for i in range(4)]
    with StubEndpoint() as stub:
        _serve_keepalive(stub, close_after_reply=True)
        cfg = make_cfg(stub, max_retries=0)
        with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
            assert run_batch(items, cfg, 1, state) == [item.prompt for item in items]
        assert stub.requests == [item.prompt for item in items]
        assert stub.connections == len(items)


def test_a_direct_call_closes_its_connection():
    replies = []
    with StubEndpoint() as stub:
        _serve_keepalive(stub)
        cfg = make_cfg(stub)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            caller = threading.Thread(target=lambda: replies.append(chat_complete(cfg, "direct")))
            caller.start()
            caller.join()
            gc.collect()
    assert replies == ["direct"]
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_each_worker_thread_keeps_one_connection(tmp_path):
    items = [BatchItem(i, f"keep-{i:02d}") for i in range(50)]
    with StubEndpoint() as stub:
        _serve_keepalive(stub)
        cfg = make_cfg(stub)
        with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
            assert run_batch(items, cfg, 4, state) == [item.prompt for item in items]
        assert 1 <= stub.connections <= 4


def test_worker_connections_are_closed_when_the_batch_ends(tmp_path):
    items = [BatchItem(i, f"close-{i:02d}") for i in range(20)]
    with StubEndpoint() as stub:
        _serve_keepalive(stub)
        cfg = make_cfg(stub)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
                run_batch(items, cfg, 4, state)
            gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_interrupt_stops_sending_and_resume_sends_only_the_rest(tmp_path):
    items = [BatchItem(i, f"int-{i:04d}") for i in range(2000)]
    state_path = tmp_path / "s"
    with StubEndpoint() as stub:
        cfg = make_cfg(stub)
        fp = batch_fingerprint(items, cfg)
        with JobState(state_path, fp) as state:
            record = state.record

            def record_then_interrupt(index, text):
                if len(state.completed) == 50:
                    raise KeyboardInterrupt
                record(index, text)

            state.record = record_then_interrupt
            with pytest.raises(KeyboardInterrupt):
                run_batch(items, cfg, 2, state)
        assert len(stub.requests) <= 50 + 2 * 2
        sent_first = len(stub.requests)

        with JobState(state_path, fp) as state:
            journaled = {items[i].prompt for i in state.completed}
            assert run_batch(items, cfg, 2, state) == [item.prompt for item in items]
        assert len(journaled) == 50
        resent = stub.requests[sent_first:]
        assert sorted(resent) == [item.prompt for item in items if item.prompt not in journaled]


def test_a_failure_stops_the_sending(tmp_path):
    items = [BatchItem(i, f"job-{i:03d}") for i in range(100)]

    def behavior(prompt, nth):
        if prompt == "job-040":
            return ("status", 500)
        if prompt > "job-040":
            time.sleep(0.2)  # still running when job-040 fails
        return ("echo", None)

    with StubEndpoint(behavior) as stub:
        cfg = make_cfg(stub, max_retries=0)
        with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
            with pytest.raises(ExhaustedRetries):
                run_batch(items, cfg, 4, state)
    # Items leave in order, so job-000..job-040 were all sent. After the
    # failure each of the 4 workers sends at most the one item it holds; the
    # rest of the window (up to job-047) stays unsent.
    assert len(stub.requests) <= 41 + 4
    assert max(stub.requests) < f"job-{40 + 2 * 4:03d}"


def _lasting_threads() -> set:
    """Threads that keep the process alive (the stub's handlers are daemons)."""
    return {thread for thread in threading.enumerate() if not thread.daemon}


def test_no_worker_thread_outlives_the_batch(tmp_path):
    items = [BatchItem(i, f"live-{i:02d}") for i in range(40)]

    def interrupt(index, text):
        raise KeyboardInterrupt

    with StubEndpoint() as stub:
        cfg = make_cfg(stub, max_retries=0)
        fp = batch_fingerprint(items, cfg)
        before = _lasting_threads()
        with JobState(tmp_path / "done", fp) as state:
            run_batch(items, cfg, 4, state)
        assert _lasting_threads() == before

        stub.behavior = lambda prompt, nth: (
            ("status", 500) if prompt == "live-20" else ("echo", None)
        )
        with JobState(tmp_path / "failed", fp) as state:
            with pytest.raises(ExhaustedRetries):
                run_batch(items, cfg, 4, state)
        assert _lasting_threads() == before

        stub.behavior = lambda prompt, nth: ("echo", None)
        with JobState(tmp_path / "interrupted", fp) as state:
            state.record = interrupt
            with pytest.raises(KeyboardInterrupt):
                run_batch(items, cfg, 4, state)
        assert _lasting_threads() == before


def test_a_base_exception_in_a_worker_is_raised_not_waited_for(tmp_path, monkeypatch):
    class Abort(BaseException):
        pass

    def complete(cfg, prompt):
        if prompt == "base-3":
            raise Abort
        return prompt

    monkeypatch.setattr(inference, "chat_complete", complete)
    items = [BatchItem(i, f"base-{i}") for i in range(10)]
    cfg = EndpointConfig(base_url="http://127.0.0.1:9", model_name="m")
    raised = []

    def batch():
        with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
            try:
                run_batch(items, cfg, 2, state)
            except Abort as exc:
                raised.append(exc)

    runner = threading.Thread(target=batch, daemon=True)  # a hang must not hold the test run
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()
    assert len(raised) == 1


_BATCH_CHILD = """
import sys
from mtpipe.inference import BatchItem, EndpointConfig, batch_fingerprint, run_batch
from mtpipe.state import JobState

items = [BatchItem(i, f"sig-{i:04d}") for i in range(2000)]
cfg = EndpointConfig(base_url=sys.argv[1], model_name="stub-model", timeout=10.0)
with JobState(sys.argv[2], batch_fingerprint(items, cfg)) as state:
    run_batch(items, cfg, 2, state)
"""


def test_sigint_stops_a_waiting_batch_and_resume_sends_only_the_rest(tmp_path):
    items = [BatchItem(i, f"sig-{i:04d}") for i in range(2000)]
    state_path = tmp_path / "s"
    journal = tmp_path / "s.journal"
    env = {**os.environ, "PYTHONPATH": str(Path(inference.__file__).parents[1])}
    with StubEndpoint(latency=lambda: 0.005) as stub:
        child = subprocess.Popen(
            [sys.executable, "-c", _BATCH_CHILD, stub.base_url, str(state_path)],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while child.poll() is None and time.monotonic() < deadline and (
                not journal.exists() or journal.read_bytes().count(b"\n") < 20
            ):
                time.sleep(0.01)
            child.send_signal(signal.SIGINT)
            interrupted = time.monotonic()
            _, stderr = child.communicate(timeout=10)
            assert time.monotonic() - interrupted < 5
        finally:
            child.kill()
        assert "KeyboardInterrupt" in stderr
        sent_first = len(stub.requests)

        stub.latency = None
        cfg = make_cfg(stub)
        with JobState(state_path, batch_fingerprint(items, cfg)) as state:
            journaled = {items[i].prompt for i in state.completed}
            assert 20 <= len(journaled) < len(items)
            assert sent_first <= len(journaled) + 2 * 2
            assert run_batch(items, cfg, 2, state) == [item.prompt for item in items]
        resent = stub.requests[sent_first:]
        assert sorted(resent) == [item.prompt for item in items if item.prompt not in journaled]


def test_run_batch_memory_does_not_grow_with_pending_items(tmp_path, monkeypatch):
    items = [BatchItem(i, f"m-{i}") for i in range(50_000)]
    cfg = EndpointConfig(base_url="http://127.0.0.1:9", model_name="m")
    monkeypatch.setattr(inference, "chat_complete", lambda cfg, prompt: prompt)
    with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
        tracemalloc.start()
        try:
            outputs = run_batch(items, cfg, 2, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert outputs == [item.prompt for item in items]
    assert peak < 16 * 2**20


def _clear_proxy_env(monkeypatch) -> None:
    for scheme in ("http", "https", "all", "no"):
        monkeypatch.delenv(f"{scheme}_proxy", raising=False)
        monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)


def test_http_proxy_carries_the_request(monkeypatch):
    _clear_proxy_env(monkeypatch)
    with StubEndpoint() as stub:
        monkeypatch.setenv("HTTP_PROXY", stub.base_url)
        cfg = make_cfg(stub, base_url="http://upstream.invalid:8000", max_retries=0)
        assert chat_complete(cfg, "via proxy") == "via proxy"
        assert stub.requests == ["via proxy"]


def test_a_proxy_setting_without_a_host_reaches_the_loopback(monkeypatch):
    # http://:PORT leaves the proxy host None, which the resolver takes as the loopback.
    _clear_proxy_env(monkeypatch)
    with StubEndpoint() as stub:
        monkeypatch.setenv("HTTP_PROXY", stub.base_url.replace("127.0.0.1", ""))
        cfg = make_cfg(stub, base_url="http://upstream.invalid:8000", max_retries=0)
        assert chat_complete(cfg, "via proxy") == "via proxy"
        assert stub.requests == ["via proxy"]


def test_no_proxy_host_is_reached_directly(monkeypatch):
    _clear_proxy_env(monkeypatch)
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with StubEndpoint() as stub:
        assert chat_complete(make_cfg(stub, max_retries=0), "direct") == "direct"


def test_a_malformed_proxy_fails_the_batch_before_any_worker_starts(tmp_path, monkeypatch):
    _clear_proxy_env(monkeypatch)
    monkeypatch.setenv("HTTP_PROXY", "http://proxy:port")
    items = [BatchItem(i, f"proxy-{i}") for i in range(4)]
    cfg = EndpointConfig(base_url="http://upstream.invalid:8000", model_name="m")
    with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
        with pytest.raises(ValueError, match="Port"):
            run_batch(items, cfg, 2, state)


def test_cli_import_loads_no_third_party_http_client():
    code = "import sys, mtpipe.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_STORM_CHILD = """
import sys
from mtpipe.inference import BatchItem, EndpointConfig, batch_fingerprint, run_batch
from mtpipe.state import JobState

items = [BatchItem(i, f"storm-{i:02d}") for i in range(20)]
cfg = EndpointConfig(base_url=sys.argv[1], model_name="stub-model", timeout=10.0,
                     backoff_base=1.0, max_retries=3)
with JobState(sys.argv[2], batch_fingerprint(items, cfg)) as state:
    run_batch(items, cfg, 2, state)
"""


def test_sigint_cuts_short_the_backoff_of_a_503_storm_and_resume_sends_only_the_rest(tmp_path):
    items = [BatchItem(i, f"storm-{i:02d}") for i in range(20)]
    state_path = tmp_path / "s"
    journal = tmp_path / "s.journal"
    env = {**os.environ, "PYTHONPATH": str(Path(inference.__file__).parents[1])}

    def storm(prompt, nth):  # the first two items get through, then every reply is 503
        return ("echo", None) if prompt in ("storm-00", "storm-01") else ("status", 503)

    with StubEndpoint(storm) as stub:
        child = subprocess.Popen(
            [sys.executable, "-c", _STORM_CHILD, stub.base_url, str(state_path)],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while child.poll() is None and time.monotonic() < deadline and (
                len(stub.requests) < 4
                or not journal.exists() or journal.read_bytes().count(b"\n") < 2
            ):
                time.sleep(0.01)
            time.sleep(0.05)  # both workers are sleeping out a 1 s backoff
            child.send_signal(signal.SIGINT)
            interrupted = time.monotonic()
            _, stderr = child.communicate(timeout=20)
            assert time.monotonic() - interrupted < 1.5
        finally:
            child.kill()
        assert "KeyboardInterrupt" in stderr
        sent_first = len(stub.requests)

        stub.behavior = lambda prompt, nth: ("echo", None)
        cfg = make_cfg(stub, backoff_base=1.0)
        with JobState(state_path, batch_fingerprint(items, cfg)) as state:
            journaled = {items[i].prompt for i in state.completed}
            assert journaled == {"storm-00", "storm-01"}
            assert run_batch(items, cfg, 2, state) == [item.prompt for item in items]
        resent = stub.requests[sent_first:]
        assert sorted(resent) == [item.prompt for item in items if item.prompt not in journaled]


class _Server(socketserver.ThreadingTCPServer):
    """A TCP server that serves on a thread of its own until its ``with`` block ends."""

    daemon_threads = True
    block_on_close = False

    def __init__(self, address, handler):
        super().__init__(address, handler)
        # A short poll: shutdown() waits for the loop to see it.
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()

    def __exit__(self, *exc):
        self.shutdown()
        self._thread.join(timeout=5)
        super().__exit__(*exc)


class RawEndpoint(_Server):
    """Answers the n-th request (from 0) with ``reply(n, prompt)``: the raw bytes
    to send, then "keep" to serve the next request on that connection or "close"
    to close it. It keeps each request's head and counts the connections."""

    def __init__(self, reply, family=socket.AF_INET):
        self.address_family = family
        self.reply, self.heads, self.connections = reply, [], 0
        self.lock = threading.Lock()
        super().__init__(("::1" if family == socket.AF_INET6 else "127.0.0.1", 0), _RawHandler)

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"


class _RawHandler(socketserver.StreamRequestHandler):
    def handle(self):
        raw = self.server
        with raw.lock:
            raw.connections += 1
        while True:
            head = b""
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                head += line
            if not line:  # the client closed the connection
                return
            length = int(re.search(rb"Content-Length: (\d+)", head)[1])
            prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
            with raw.lock:
                raw.heads.append(head)
                n = len(raw.heads) - 1
            data, then = raw.reply(n, prompt)
            try:
                self.wfile.write(data)
            except OSError:  # the client gave up on the reply
                return
            if then == "close":
                return


def _body(prompt: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": prompt}}]}).encode()


def _reply(prompt: str, status=b"HTTP/1.1 200 OK", *fields: bytes) -> bytes:
    body = _body(prompt)
    head = [status, *fields, b"Content-Length: " + str(len(body)).encode()]
    return b"\r\n".join(head) + b"\r\n\r\n" + body


def _chunked(prompt: str) -> bytes:
    body = _body(prompt)
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x;name=value\r\n%s\r\n" % (5, body[:5])
            + b"%x\r\n%s\r\n" % (len(body) - 5, body[5:])
            + b"0\r\nX-Trailer: t\r\n\r\n")


@pytest.mark.parametrize("reply, connections", [
    (lambda n, p: (_chunked(p), "keep"), 1),
    (lambda n, p: (b"HTTP/1.1 200 OK\r\n\r\n" + _body(p), "close"), 4),
    (lambda n, p: (_reply(p, b"HTTP/1.0 200 OK", b"Connection: keep-alive"), "keep"), 1),
    (lambda n, p: (_reply(p, b"HTTP/1.0 200 OK"), "keep"), 4),
    (lambda n, p: (_reply(p, b"HTTP/1.1 200 OK", *[b"Connection: close"] * (n >= 1)), "keep"), 3),
    (lambda n, p: (b"HTTP/1.1 100 Continue\r\n\r\n" + _reply(p), "keep"), 1),
], ids=["chunked-extension-trailer", "close-delimited", "http10-keep-alive", "http10",
        "connection-close-mid-batch", "100-continue"])
def test_a_batch_reads_each_reply_framing_and_keeps_a_connection_only_while_it_may(
        tmp_path, reply, connections):
    prompts = [f"frame-{i}" for i in range(4)]
    with RawEndpoint(reply) as raw:
        cfg = make_cfg(raw, max_retries=0)
        assert inference.run_prompts(prompts, cfg, 1, tmp_path / "s") == prompts
        assert len(raw.heads) == len(prompts)  # one attempt per item
        assert raw.connections == connections


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 16777217\r\n\r\n0123456789",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1000001\r\n0123456789",
    b"HTTP/1.1 204 No Content\r\n\r\n",
], ids=["content-length-over-cap", "chunk-over-cap", "no-content"])
def test_a_reply_over_the_cap_or_without_a_body_fails_without_waiting(reply):
    # The server holds the connection open; the call must not wait for it.
    with RawEndpoint(lambda n, p: (reply, "keep")) as raw:
        started = time.monotonic()
        with pytest.raises(MalformedResponse):
            chat_complete(make_cfg(raw, timeout=5.0, max_retries=0), "p")
        assert time.monotonic() - started < 2.0
        assert len(raw.heads) == 1


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"choices\"",
    b"garbage\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 101 + b"Content-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
], ids=["truncated-body", "garbage-status-line", "header-line-over-65536", "101-headers",
        "bad-chunk-size"])
def test_a_broken_reply_is_retried_without_a_free_resend_then_exhausts(reply):
    with RawEndpoint(lambda n, p: (reply, "close")) as raw:
        with pytest.raises(ExhaustedRetries) as err:
            chat_complete(make_cfg(raw, max_retries=2), "p")
        assert len(raw.heads) == 3
    cause = err.value.__cause__
    assert isinstance(cause, OSError) and not isinstance(cause, ConnectionError)


def test_a_head_cut_off_by_the_close_is_retried_as_an_attempt():
    # The close before the head's blank line is a cut-off reply, not an empty
    # body: it costs an attempt, and the next one reads the whole reply.
    cut = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    with RawEndpoint(lambda n, p: (cut if n == 0 else _reply(p), "close")) as raw:
        assert chat_complete(make_cfg(raw, max_retries=1), "ok") == "ok"
        assert len(raw.heads) == 2


def test_conflicting_content_lengths_are_a_framing_fault_and_identical_ones_are_not():
    body = _body("p")
    conflicting = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: %d\r\n\r\n%s" % (
        len(body), body)
    with RawEndpoint(lambda n, p: (conflicting, "close")) as raw:
        with pytest.raises(ExhaustedRetries) as err:
            chat_complete(make_cfg(raw, max_retries=0), "p")
        assert len(raw.heads) == 1
    cause = err.value.__cause__
    assert isinstance(cause, OSError) and not isinstance(cause, ConnectionError)
    assert "Content-Length" in str(cause)
    identical = _reply("p", b"HTTP/1.1 200 OK", b"Content-Length: %d" % len(body))
    with RawEndpoint(lambda n, p: (identical, "close")) as raw:
        assert chat_complete(make_cfg(raw, max_retries=0), "p") == "p"


def test_a_base_url_path_reaches_the_server_verbatim():
    with RawEndpoint(lambda n, p: (_reply(p), "keep")) as raw:
        assert chat_complete(make_cfg(raw, base_url=raw.base_url + "/a%2Fb%25s/"), "p") == "p"
    request_line, *fields = raw.heads[0].decode().split("\r\n")
    assert request_line == "POST /a%2Fb%25s/v1/chat/completions HTTP/1.1"
    assert fields[0] == "Host: " + raw.base_url.removeprefix("http://")
    assert "Accept-Encoding: identity" in fields


def test_an_ipv6_literal_base_url_sends_its_bracketed_host():
    try:
        raw = RawEndpoint(lambda n, p: (_reply(p), "keep"), socket.AF_INET6)
    except OSError as exc:
        pytest.skip(f"cannot bind ::1: {exc}")
    with raw:
        assert chat_complete(make_cfg(raw), "p") == "p"
    port = raw.server_address[1]
    assert f"\r\nHost: [::1]:{port}\r\n".encode() in b"\r\n" + raw.heads[0]


def test_an_api_key_that_would_break_the_request_head_is_refused():
    with pytest.raises(ValueError, match="printable ASCII"):
        EndpointConfig(base_url="http://127.0.0.1:1", model_name="m", api_key="k\r\nX-Injected: 1")


def _certificates(directory: Path, hostname: str) -> tuple[Path, Path, Path]:
    """A new CA's certificate, and a certificate for ``hostname`` it signed and its key."""
    x509 = pytest.importorskip("cryptography.x509")
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    def name(common):
        return x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, common)])

    now = datetime.datetime.now(datetime.timezone.utc)
    ca_key, key = ec.generate_private_key(ec.SECP256R1()), ec.generate_private_key(ec.SECP256R1())

    def certificate(subject, public_key, *extensions):
        builder = (x509.CertificateBuilder().subject_name(subject).issuer_name(name("test CA"))
                   .public_key(public_key).serial_number(x509.random_serial_number())
                   .not_valid_before(now - datetime.timedelta(hours=1))
                   .not_valid_after(now + datetime.timedelta(hours=1))
                   .add_extension(x509.AuthorityKeyIdentifier.from_issuer_public_key(
                       ca_key.public_key()), critical=False)
                   .add_extension(x509.SubjectKeyIdentifier.from_public_key(public_key),
                                  critical=False))
        for extension, critical in extensions:
            builder = builder.add_extension(extension, critical=critical)
        return builder.sign(ca_key, hashes.SHA256())

    signs = x509.KeyUsage(digital_signature=False, content_commitment=False,
                          key_encipherment=False, data_encipherment=False, key_agreement=False,
                          key_cert_sign=True, crl_sign=True, encipher_only=False,
                          decipher_only=False)
    ca = certificate(name("test CA"), ca_key.public_key(),
                     (x509.BasicConstraints(ca=True, path_length=None), True), (signs, True))
    leaf = certificate(name(hostname), key.public_key(),
                       (x509.SubjectAlternativeName([x509.DNSName(hostname)]), False))
    paths = directory / "ca.pem", directory / "cert.pem", directory / "key.pem"
    paths[0].write_bytes(ca.public_bytes(serialization.Encoding.PEM))
    paths[1].write_bytes(leaf.public_bytes(serialization.Encoding.PEM))
    paths[2].write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return paths


def _serve_tls(stub: StubEndpoint, cert: Path, key: Path) -> str:
    """Serve ``stub`` over TLS and return its https base URL on localhost."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    stub._server.socket = context.wrap_socket(stub._server.socket, server_side=True)
    return f"https://localhost:{stub._server.server_address[1]}"


class TunnelProxy(_Server):
    """An HTTP proxy that answers CONNECT and relays bytes both ways; it keeps
    each CONNECT target."""

    def __init__(self):
        self.targets = []
        super().__init__(("127.0.0.1", 0), _TunnelHandler)


def _relay(source: socket.socket, sink: socket.socket) -> None:
    try:
        while data := source.recv(65536):
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass


class _TunnelHandler(socketserver.BaseRequestHandler):
    def handle(self):
        head = b""
        while not head.endswith(b"\r\n\r\n"):  # byte by byte: TLS follows the head
            if not (byte := self.request.recv(1)):
                return
            head += byte
        target = head.split()[1].decode()
        self.server.targets.append(target)
        host, _, port = target.rpartition(":")
        with socket.create_connection((host, int(port))) as upstream:
            self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            back = threading.Thread(target=_relay, args=(upstream, self.request), daemon=True)
            back.start()
            _relay(self.request, upstream)
            back.join(timeout=5)


@pytest.fixture
def tls_files(tmp_path, monkeypatch):
    """Certificates under a CA that the client trusts through SSL_CERT_FILE."""
    _clear_proxy_env(monkeypatch)
    good = tmp_path / "good"
    other = tmp_path / "other"
    good.mkdir()
    other.mkdir()
    ca, cert, key = _certificates(good, "localhost")
    other_ca, other_cert, other_key = _certificates(other, "elsewhere.test")
    (tmp_path / "trusted.pem").write_bytes(ca.read_bytes() + other_ca.read_bytes())
    monkeypatch.setenv("SSL_CERT_FILE", str(tmp_path / "trusted.pem"))
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    return {"localhost": (cert, key), "elsewhere.test": (other_cert, other_key)}


def test_an_https_endpoint_is_reached_with_its_certificate_checked(tls_files):
    with StubEndpoint() as stub:
        base_url = _serve_tls(stub, *tls_files["localhost"])
        assert chat_complete(make_cfg(stub, base_url=base_url, max_retries=0), "over tls") == (
            "over tls")
    assert stub.requests == ["over tls"]


def test_an_https_endpoint_is_reached_through_a_connect_tunnel(tls_files, monkeypatch):
    with StubEndpoint() as stub, TunnelProxy() as proxy:
        base_url = _serve_tls(stub, *tls_files["localhost"])
        monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.server_address[1]}")
        cfg = make_cfg(stub, base_url=base_url, max_retries=0)
        assert chat_complete(cfg, "tunnelled") == "tunnelled"
    assert proxy.targets == [base_url[len("https://"):]]
    assert stub.requests == ["tunnelled"]


def test_a_batch_over_https_makes_one_tls_context_for_all_its_connections(
        tls_files, tmp_path, monkeypatch):
    made, create = [], ssl.create_default_context
    monkeypatch.setattr(ssl, "create_default_context",
                        lambda *args, **kwargs: made.append(1) or create(*args, **kwargs))
    together = threading.Barrier(4, timeout=10)  # all four workers connect

    def behavior(prompt, nth):
        together.wait()
        return ("echo", None)

    items = [BatchItem(i, f"tls-{i}") for i in range(4)]
    with StubEndpoint(behavior) as stub:
        cfg = make_cfg(stub, base_url=_serve_tls(stub, *tls_files["localhost"]), max_retries=0)
        for _ in range(2):  # the rerun has nothing to send and makes none
            with JobState(tmp_path / "s", batch_fingerprint(items, cfg)) as state:
                assert run_batch(items, cfg, 4, state) == [item.prompt for item in items]
    assert stub.max_in_flight == 4
    assert len(made) == 1


def test_a_certificate_for_another_host_fails_the_call(tls_files):
    with StubEndpoint() as stub:
        base_url = _serve_tls(stub, *tls_files["elsewhere.test"])
        with pytest.raises(ExhaustedRetries) as err:
            chat_complete(make_cfg(stub, base_url=base_url, max_retries=0), "p")
    assert isinstance(err.value.__cause__, ssl.SSLCertVerificationError)
    assert stub.requests == []
