"""Client for OpenAI-compatible chat-completion endpoints.

One request per prompt, sent as a single user message in one write over this
module's own HTTP/1.1 client, ``_Connection``. Transient failures (connection
errors, 429, 5xx) are retried with exponential backoff plus jitter; other
statuses, redirects included, fail at once; a batch that stops (a failure or
Ctrl-C) cuts its running backoffs short. A batch runs on worker
threads of its own, one per request in flight, each keeping one keep-alive
connection until the batch ends, and over https its connections share one TLS
context; a call outside a batch opens and closes its own. A batch returns
outputs in item order and journals every completion through a JobState before
reporting it, so a resumed run skips finished items.
``run_prompts`` is the one place that binds an endpoint job's state to its prompts.
"""

from __future__ import annotations

import json
import math
import os
import queue
import random
import re
import socket
import threading
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from urllib.parse import urlsplit

from .errors import ToolError
from .state import JobState, StateMismatch, run_fingerprint


class ExhaustedRetries(ToolError):
    """All attempts failed; the last cause is chained as __cause__."""


class NonRetryable(ToolError):
    """The endpoint rejected the request with a non-transient status."""


class MalformedResponse(ToolError):
    """The endpoint answered 2xx but the expected content is missing."""


class BadProxy(ToolError, ValueError):
    """The HTTP(S)_PROXY setting has a port that is not a number or out of range."""


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    api_key: str | None = None
    timeout: float = 60.0
    max_retries: int = 3
    backoff_base: float = 0.5
    temperature: float = 0.0
    max_tokens: int = 2048

    def __post_init__(self) -> None:
        bad_url = f"base_url must be an http(s) URL with a host, got {self.base_url!r}"
        try:
            url = urlsplit(self.base_url)
            port = url.port
        except ValueError as exc:  # a port out of 0-65535 or not a number
            raise ValueError(f"{bad_url}: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname or port == 0:
            raise ValueError(bad_url)
        head = self.base_url.replace(" ", "\n") + (self.api_key or "")  # sent as they are
        if not (head.isascii() and head.isprintable()):
            raise ValueError("base_url and api_key must be printable ASCII, base_url spaceless")
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        for name in ("timeout", "backoff_base"):  # no socket timeout or wait is longer
            if not 0 < getattr(self, name) <= threading.TIMEOUT_MAX:  # NaN too
                raise ValueError(f"{name} must be positive and at most {threading.TIMEOUT_MAX} s")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")


@dataclass(frozen=True)
class BatchItem:
    index: int
    prompt: str


_WINDOW = 2  # run_batch submits this many requests per worker thread
_worker = threading.local()  # in a run_batch worker: its connection and its batch's stop event
_NEVER = threading.Event()  # the backoff of a call made outside run_batch's workers


# A reply is held whole in memory while it is parsed. Even 100,000 tokens of
# \uXXXX-escaped JSON are a few MB, so a larger body is a misbehaving endpoint.
_REPLY_CAP = 16 * 2**20
_LINE_CAP, _FIELD_CAP = 65536, 100  # bytes per head line, lines per head: http.client's limits
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)\b")


class _Connection:
    """One HTTP/1.1 connection to the endpoint, or to its proxy, that POSTs to
    /v1/chat/completions. It opens on first use and stays open until the server
    ends it, a request fails, or ``close`` is called. A framing fault in a reply
    is an OSError that is not a ConnectionError, so it gets no resend."""

    def __init__(self, cfg: EndpointConfig) -> None:
        url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
        parts = urlsplit(url)
        authority, target = parts.netloc.rpartition("@")[2], parts.path
        self.tls = parts.hostname if parts.scheme == "https" else None
        self.address = (parts.hostname, parts.port or (443 if self.tls else 80))
        self.timeout, self.tunnel, proxy = cfg.timeout, None, None
        if any(name.lower() == parts.scheme + "_proxy" for name in os.environ):  # else no proxy
            from urllib.request import getproxies, proxy_bypass  # by the standard library's rules
            proxy = None if proxy_bypass(parts.netloc) else getproxies().get(parts.scheme)
        if proxy:
            via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            try:
                self.address = (via.hostname, via.port or 80)
            except ValueError as exc:  # a port that is not a number or out of range
                raise BadProxy(f"{parts.scheme} proxy setting {proxy!r}: {exc}") from exc
            if self.tls:  # an https endpoint is reached through a CONNECT tunnel
                self.tunnel = authority if parts.port else authority.rstrip(":") + ":443"
            else:  # an HTTP proxy takes the absolute URI
                target = url
        auth = f"Authorization: Bearer {cfg.api_key}\r\n" if cfg.api_key else ""
        self.request_head = (f"POST {target} HTTP/1.1\r\nHost: {authority}\r\n"
                             f"Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
                             f"{auth}Content-Length: ")
        self.sock = self.reader = self.context = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        """Send one request in one write and read the whole reply. Any error closes
        the connection; a reused one the server dropped while idle gets one resend."""
        request = (self.request_head + f"{len(body)}\r\n\r\n").encode("ascii") + body
        for resend in (self.sock is not None, False):
            try:
                if self.sock is None:
                    self._connect()
                self.sock.sendall(request)
                return self._reply()
            except BaseException as exc:
                self.close()
                if not (resend and isinstance(exc, ConnectionError)):
                    raise

    def close(self) -> None:
        for part in (self.reader, self.sock):
            if part is not None:
                part.close()
        self.sock = self.reader = None

    def _connect(self) -> None:
        host, port = self.address
        # An ASCII host goes to the resolver as bytes: as a str it would load the
        # IDNA codec, and a name the codec rejects (a..b) would raise UnicodeError.
        # A proxy setting with no host (http://:3128) leaves None, the loopback.
        if host is not None and host.isascii():
            host = host.encode()
        self.sock = socket.create_connection((host, port), self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.tunnel:
            connect = f"CONNECT {self.tunnel} HTTP/1.1\r\nHost: {self.tunnel}\r\n\r\n"
            self.sock.sendall(connect.encode())
            self.reader = self.sock.makefile("rb")  # nothing follows the reply till TLS starts
            if (status := self._head()[0]) != 200:
                raise OSError(f"proxy tunnel failed: HTTP {status}")
        if self.tls:
            if self.context is None:  # run_batch gives its connections one
                self.context = _tls_context()
            self.sock = self.context.wrap_socket(self.sock, server_hostname=self.tls)
        self.reader = self.sock.makefile("rb")

    def _line(self) -> bytes:
        line = self.reader.readline(_LINE_CAP + 1)
        if len(line) > _LINE_CAP:
            raise OSError(f"reply line over {_LINE_CAP} bytes")
        return line

    def _fields(self) -> dict[bytes, bytes]:
        """Header (or trailer) fields up to the blank line, by lowercase name."""
        fields: dict[bytes, bytes] = {}
        for _ in range(_FIELD_CAP + 1):
            line = self._line()
            if line in (b"\r\n", b"\n", b""):
                return fields
            name, _, value = line.partition(b":")
            name, value = name.strip().lower(), value.strip()
            if name == b"content-length" and fields.get(name, value) != value:  # RFC 9112 6.3
                raise OSError(f"conflicting Content-Length {fields[name][:40]!r} "
                              f"and {value[:40]!r}")
            fields[name] = value
        raise OSError(f"more than {_FIELD_CAP} header lines")

    def _head(self) -> tuple[int, dict[bytes, bytes], bool]:
        """Status, header fields, and whether the connection stays open after the reply."""
        line = self._line()
        if not line:  # closed unanswered, as after an idle timeout: a ConnectionError
            raise ConnectionResetError("the server closed the connection without a reply")
        if not (match := _STATUS_LINE.match(line)):
            raise OSError(f"bad status line {line[:80]!r}")
        fields = self._fields()
        tokens = {token.strip() for token in fields.get(b"connection", b"").lower().split(b",")}
        keep = b"keep-alive" in tokens if match[1] == b"0" else b"close" not in tokens
        return int(match[2]), fields, keep

    def _reply(self) -> tuple[int, bytes]:
        status, fields, keep = self._head()
        while status < 200:  # an interim reply, such as 100 Continue
            status, fields, keep = self._head()
        length = fields.get(b"content-length")
        if status in (204, 304):
            data = b""
        elif fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            data = self._chunked()
        elif length is not None:
            if not length.isdigit():
                raise OSError(f"bad Content-Length {length[:40]!r}")
            data = self._body(int(length))
        else:  # the body ends where the server closes the connection
            keep, data = False, self.reader.read(_REPLY_CAP + 1)
            self._body(0, len(data))
        if not keep:
            self.close()
        return status, data

    def _chunked(self) -> bytes:
        pieces, total = [], 0
        while True:
            size = self._line().split(b";", 1)[0].strip()  # a chunk extension is ignored
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise OSError(f"bad chunk size line {size[:40]!r}")
            if not int(size, 16):
                self._fields()  # the trailer
                return b"".join(pieces)
            pieces.append(self._body(int(size, 16), total))
            total += len(pieces[-1])
            if self.reader.read(2) != b"\r\n":
                raise OSError("chunk data not followed by CRLF")

    def _body(self, size: int, total: int = 0) -> bytes:
        """The next ``size`` bytes of a body ``total`` bytes into it, refused past the cap."""
        if total + size > _REPLY_CAP:
            raise MalformedResponse(f"reply body over {_REPLY_CAP} bytes")
        data = self.reader.read(size)
        if len(data) < size:
            raise OSError(f"reply body ended after {len(data)} of {size} bytes")
        return data


def _tls_context():
    """A verifying client context; making one reads the trust store (tens of ms)."""
    import ssl

    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context


def chat_complete(cfg: EndpointConfig, prompt: str) -> str:
    """Send one chat completion and return the first choice's content, on the
    run_batch worker's connection or else on one opened for this call only."""
    body = json.dumps({
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }).encode("utf-8")
    in_worker = hasattr(_worker, "conn")
    conn = _worker.conn if in_worker else _Connection(cfg)
    stop = _worker.stop if in_worker else _NEVER
    last_cause: Exception | None = None
    try:
        for attempt in range(cfg.max_retries + 1):
            try:
                status, data = conn.post(body)
            except OSError as exc:
                last_cause = exc
            else:
                if 200 <= status < 300:
                    try:
                        content = json.loads(data)["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise MalformedResponse(f"no message content in response: {exc}") from exc
                    if not isinstance(content, str):
                        raise MalformedResponse(f"content has type {type(content).__name__}")
                    try:
                        content.encode("utf-8")  # a lone surrogate escape is not text
                    except UnicodeEncodeError as exc:
                        raise MalformedResponse(f"content is not valid Unicode: {exc}") from exc
                    return content
                text = data.decode("utf-8", "replace")[:200]
                if status != 429 and status < 500:
                    raise NonRetryable(f"HTTP {status}: {text}")
                last_cause = ToolError(f"HTTP {status}: {text}")
            if attempt < cfg.max_retries:
                delay = cfg.backoff_base * (2**attempt)
                delay += random.uniform(0.0, delay / 2.0)
                if stop.wait(min(delay, threading.TIMEOUT_MAX)):
                    raise ExhaustedRetries(
                        f"batch stopped after {attempt + 1} attempts: {last_cause}"
                    ) from last_cause
        raise ExhaustedRetries(
            f"gave up after {cfg.max_retries + 1} attempts: {last_cause}"
        ) from last_cause
    finally:
        if not in_worker:
            conn.close()


def batch_fingerprint(items: list[BatchItem], cfg: EndpointConfig) -> str:
    """Identity for a (items, sampling config) pair; binds JobState to it."""
    parts = [
        cfg.base_url,
        cfg.model_name,
        repr(cfg.temperature),
        str(cfg.max_tokens),
        str(len(items)),
    ]
    parts.extend(item.prompt for item in items)
    return run_fingerprint(parts)


def run_batch(
    items: list[BatchItem],
    cfg: EndpointConfig,
    concurrency: int,
    state: JobState,
) -> list[str]:
    """Complete every item, at most ``concurrency`` requests in flight and
    ``_WINDOW`` times that submitted, so Ctrl-C stops the sending at once.

    Items already present in ``state`` are not re-sent. On a hard failure the
    run aborts with ExhaustedRetries (or NonRetryable) after journaling the
    work that did complete. Outputs come back in item-index order.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be at least 1")
    indices = sorted(item.index for item in items)
    if indices != list(range(len(items))):
        raise ValueError("item indices must be unique and contiguous from 0")
    if state.fingerprint != batch_fingerprint(items, cfg):
        raise StateMismatch("job state does not match this item list and config")

    pending = (item for item in items if item.index not in state.completed)
    inbox, outbox, stop = queue.SimpleQueue(), queue.SimpleQueue(), threading.Event()

    def work(conn: _Connection) -> None:  # forwards every outcome
        _worker.conn, _worker.stop = conn, stop  # stop also cuts short a backoff
        for item in iter(inbox.get, None):
            try:
                outcome = None if stop.is_set() else chat_complete(cfg, item.prompt)
            except BaseException as exc:  # raised again by the main thread
                outcome = exc
            outbox.put((item.index, outcome))
        conn.close()

    # Opened here, so that a failure to set one up raises before any worker starts,
    # and over https all share one TLS context.
    connections = [_Connection(cfg) for _ in range(concurrency)]
    if connections[0].tls and len(state.completed) < len(items):  # something to send
        context = _tls_context()
        for connection in connections:
            connection.context = context
    workers = [threading.Thread(target=work, args=(connection,)) for connection in connections]
    for worker in workers:
        worker.start()
    window, failure = 0, None
    try:
        while True:
            for item in islice(pending, _WINDOW * concurrency - window):
                inbox.put(item)
                window += 1
            if not window:
                break
            index, outcome = outbox.get()
            window -= 1
            if isinstance(outcome, str):
                state.record(index, outcome)
            elif isinstance(outcome, BaseException) and failure is None:
                failure, pending = outcome, ()  # submit nothing more; skip what has not started
                stop.set()
    finally:
        stop.set()
        for worker in workers:
            inbox.put(None)
        for worker in workers:
            worker.join()
    state.checkpoint()
    if failure is not None:
        raise failure
    return [state.completed[i] for i in range(len(items))]


def run_prompts(
    prompts: list[str], cfg: EndpointConfig, concurrency: int, state_path: str | Path
) -> list[str]:
    """Complete ``prompts`` as one resumable job and return the replies in
    prompt order: number them as BatchItems and run_batch them inside the
    JobState at ``state_path``, bound to their batch_fingerprint."""
    if concurrency < 1:  # before the JobState creates any file
        raise ValueError("concurrency must be at least 1")
    items = [BatchItem(i, prompt) for i, prompt in enumerate(prompts)]
    with JobState(state_path, batch_fingerprint(items, cfg)) as state:
        return run_batch(items, cfg, concurrency, state)
