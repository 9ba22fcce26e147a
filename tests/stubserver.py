"""In-process OpenAI-compatible stub endpoint for tests.

The behavior is a callable (prompt, per-prompt call number) -> action, where
an action is ("ok", text), ("status", code) or ("echo", None). The server
logs every request, counts successful completions per prompt, and tracks the
maximum number of requests in flight at once.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubEndpoint:
    def __init__(self, behavior=None, latency=None):
        # behavior(prompt, nth_call) -> ("ok", text) | ("status", int) | ("echo", None)
        self.behavior = behavior or (lambda prompt, nth: ("echo", None))
        self.latency = latency  # callable () -> seconds, or None
        self.lock = threading.Lock()
        self.requests: list[str] = []
        self.payloads: list[dict] = []
        self.auth_headers: list[str | None] = []
        self.calls_per_prompt: dict[str, int] = {}
        self.successes_per_prompt: dict[str, int] = {}
        self.in_flight = 0
        self.max_in_flight = 0
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(self))
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


def _make_handler(stub: StubEndpoint):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # silence stderr noise
            pass

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            prompt = payload["messages"][0]["content"]

            with stub.lock:
                stub.requests.append(prompt)
                stub.payloads.append(payload)
                stub.auth_headers.append(self.headers.get("Authorization"))
                nth = stub.calls_per_prompt.get(prompt, 0)
                stub.calls_per_prompt[prompt] = nth + 1
                stub.in_flight += 1
                stub.max_in_flight = max(stub.max_in_flight, stub.in_flight)
            try:
                if stub.latency is not None:
                    time.sleep(stub.latency())
                kind, value = stub.behavior(prompt, nth)
            finally:
                # Out of flight before the reply is sent: a client's next
                # request must not overlap this one in the count.
                with stub.lock:
                    stub.in_flight -= 1
            if kind == "status":
                self.send_response(value)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            if kind == "echo":
                text = prompt
            elif kind == "ok":
                text = value
            else:  # "raw": arbitrary response body for malformed-response tests
                body = json.dumps(value).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            body = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": text}}]}
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            with stub.lock:
                stub.successes_per_prompt[prompt] = (
                    stub.successes_per_prompt.get(prompt, 0) + 1
                )

    return Handler
