"""Chat-completion endpoint the corpus workload runs against, in its own process.

It reuses the test stub's request handler (``tests/stubserver.py``) and makes
it behave like a production server: HTTP/1.1 keep-alive, so each client
thread keeps one connection, and ``TCP_NODELAY``, so a reply's body segment
does not wait out the client's delayed ACK (40 ms) behind its header segment.
It replies at once; its answer to a prompt is ``reply_for(prompt)``, which
the benchmark's checks import from here.

On top of the stub's counts it records the connections that carried chat
requests and each request's handling interval on ``time.monotonic``, which
is the same clock in every process of the machine, so the client's spans can
be laid over them.

Run as ``python3 bench/endpoint.py`` with the repository's ``tests``
directory importable. It prints ``PORT <n>`` on one line, then serves until
terminated. ``GET /stats`` returns the counts as JSON and clears them.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from stubserver import StubEndpoint

JUDGE_HEAD = "\nYou are a strict bilingual judge."

# Judge replies, each with the verdict it spells. The share of each spelling
# is its weight out of the total. The verdicts are written out by hand here,
# not derived with the package's parser.
JUDGE_SPELLINGS = (
    ("accept", "accept", 30),
    ("Accept", "accept", 8),
    ("  ACCEPT.\n", "accept", 6),
    ("accept!", "accept", 4),
    ("Accept?!", "accept", 2),
    ("reject", "reject", 16),
    ("Reject.", "reject", 6),
    (" REJECT \n", "reject", 4),
    ("reject!!", "reject", 4),
    ("I would accept this.", "unparseable", 3),
    ("acceptable", "unparseable", 3),
    ("accept or reject", "unparseable", 2),
    ("no", "unparseable", 2),
)
_SPELLING_WHEEL = tuple(
    i for i, (_, _, weight) in enumerate(JUDGE_SPELLINGS) for _ in range(weight)
)

_ARABIC_WORDS = (
    "كتاب", "مدرسة", "طالب", "معلم", "بيت", "شمس", "قمر", "ماء", "نهر", "بحر",
    "جبل", "مدينة", "طريق", "سيارة", "عمل", "وقت", "يوم", "ليلة", "صباح", "مساء",
    "علم", "لغة", "ترجمة", "سؤال", "جواب", "فكرة", "قلب", "عين", "يد", "رأس",
    "باب", "نافذة", "شجرة", "زهرة", "حديقة", "سوق", "خبز", "قهوة", "شاي", "حليب",
)


def _digest(prompt: str) -> bytes:
    return hashlib.sha256(prompt.encode("utf-8")).digest()


def prompt_key(prompt: str) -> str:
    """Short stable identity of a prompt, as the endpoint counts it."""
    return _digest(prompt)[:12].hex()


def judge_spelling(prompt: str) -> int:
    """Index into JUDGE_SPELLINGS of the reply to a judge prompt."""
    return _SPELLING_WHEEL[int.from_bytes(_digest(prompt)[:4], "little") % len(_SPELLING_WHEEL)]


def reply_for(prompt: str) -> str:
    """The endpoint's reply: a verdict spelling for judge prompts, otherwise a
    non-empty one-line Arabic text whose length follows the prompt's."""
    if prompt.startswith(JUDGE_HEAD):
        return JUDGE_SPELLINGS[judge_spelling(prompt)][0]
    digest = _digest(prompt)
    n_words = 3 + len(prompt) // 40
    return " ".join(
        _ARABIC_WORDS[digest[i % len(digest)] % len(_ARABIC_WORDS)] for i in range(n_words)
    )


class BenchEndpoint(StubEndpoint):
    def __init__(self):
        super().__init__(behavior=lambda prompt, nth: ("ok", reply_for(prompt)))
        self.connections = 0
        self.intervals: list[tuple[float, float]] = []
        # Nothing has connected yet: the port is not published until this
        # constructor returns.
        self._server.RequestHandlerClass = _keepalive(self._server.RequestHandlerClass, self)

    def stats(self) -> dict:
        with self.lock:
            payload = {
                "requests": len(self.requests),
                "connections": self.connections,
                "max_in_flight": self.max_in_flight,
                "calls": {prompt_key(p): n for p, n in self.calls_per_prompt.items()},
                "intervals": self.intervals,
            }
            self.requests = []
            self.payloads = []
            self.auth_headers = []
            self.calls_per_prompt = {}
            self.successes_per_prompt = {}
            self.max_in_flight = 0
            self.connections = 0
            self.intervals = []
        return payload


def _keepalive(base, endpoint: BenchEndpoint):
    class Handler(base):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True
        counted = False  # one handler instance serves one connection

        def do_POST(self):
            start = time.monotonic()
            super().do_POST()
            end = time.monotonic()
            with endpoint.lock:
                endpoint.intervals.append((start, end))
                if not self.counted:
                    self.counted = True
                    endpoint.connections += 1

        def do_GET(self):
            if self.path != "/stats":
                self.send_error(404)
                return
            body = json.dumps(endpoint.stats()).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    return Handler


def main() -> int:
    endpoint = BenchEndpoint()
    host, port = endpoint._server.server_address
    print(f"PORT {port}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        endpoint.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
