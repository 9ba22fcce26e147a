"""Client for OpenAI-compatible chat-completion endpoints.

One request per prompt, sent as a single user message. Transient failures
(connection errors, 429, 5xx) are retried with exponential backoff plus
jitter; other statuses, redirects included, fail at once; a batch that stops
(a failure or Ctrl-C) cuts its running backoffs short. A batch runs on worker
threads of its own, one per request in flight, each keeping one keep-alive
connection until the batch ends; a call outside a batch opens and closes its
own. A batch returns outputs in item order and journals every completion
through a JobState before reporting it, so a resumed run skips finished items.
``run_prompts`` is the one place that binds an endpoint job's state to its prompts.
"""

from __future__ import annotations

import json
import math
import queue
import random
import threading
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from itertools import islice
from pathlib import Path
from urllib.parse import urlsplit
from urllib.request import getproxies, proxy_bypass

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


def _open(base_url: str, timeout: float) -> tuple[HTTPConnection, str]:
    """Connect through HTTP(S)_PROXY unless NO_PROXY names the host."""
    url = base_url.rstrip("/") + "/v1/chat/completions"
    parts = urlsplit(url)
    cls = HTTPSConnection if parts.scheme == "https" else HTTPConnection
    proxy = getproxies().get(parts.scheme)
    if not proxy or proxy_bypass(parts.netloc):
        return cls(parts.hostname, parts.port, timeout=timeout), parts.path
    via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    try:
        conn = cls(via.hostname, via.port or 80, timeout=timeout)
    except ValueError as exc:
        raise BadProxy(f"{parts.scheme} proxy setting {proxy!r}: {exc}") from exc
    if parts.scheme == "http":  # an HTTP proxy takes the absolute URI
        return conn, url
    conn.set_tunnel(parts.hostname, parts.port)
    return conn, parts.path


def _post(conn: HTTPConnection, target: str, body: bytes, headers: dict) -> tuple[int, bytes]:
    """Send one request and read the whole reply. Any error closes the connection;
    a reused one the server dropped while idle gets one resend on a new one."""
    for resend in (conn.sock is not None, False):
        try:
            conn.request("POST", target, body, headers)
            response = conn.getresponse()
            return response.status, response.read()
        except BaseException as exc:
            conn.close()
            if not (resend and isinstance(exc, ConnectionError)):
                raise


def chat_complete(cfg: EndpointConfig, prompt: str) -> str:
    """Send one chat completion and return the first choice's content, on the
    run_batch worker's connection or else on one opened for this call only."""
    body = json.dumps({
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if cfg.api_key:
        headers["Authorization"] = f"Bearer {cfg.api_key}"

    in_worker = hasattr(_worker, "conn")
    conn, target = _worker.conn if in_worker else _open(cfg.base_url, cfg.timeout)
    stop = _worker.stop if in_worker else _NEVER
    last_cause: Exception | None = None
    try:
        for attempt in range(cfg.max_retries + 1):
            try:
                status, data = _post(conn, target, body, headers)
            except (OSError, HTTPException) as exc:
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

    def work(conn: HTTPConnection, target: str) -> None:  # forwards every outcome
        _worker.conn, _worker.stop = (conn, target), stop  # stop also cuts short a backoff
        for item in iter(inbox.get, None):
            try:
                outcome = None if stop.is_set() else chat_complete(cfg, item.prompt)
            except BaseException as exc:  # raised again by the main thread
                outcome = exc
            outbox.put((item.index, outcome))
        conn.close()

    # Opened here, so that a failure to set one up raises before any worker starts.
    connections = [_open(cfg.base_url, cfg.timeout) for _ in range(concurrency)]
    workers = [threading.Thread(target=work, args=connection) for connection in connections]
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
