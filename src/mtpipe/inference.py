"""Client for OpenAI-compatible chat-completion endpoints.

One request per prompt, sent as a single user message. Transient failures
(connection errors, 429, 5xx) are retried with exponential backoff plus
jitter; other 4xx responses fail immediately. Batch runs keep at most the
configured number of requests in flight, return outputs in item order
regardless of completion order, and journal every completion through a
JobState before reporting it so interrupted runs resume without re-sending
finished items.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import requests

from .errors import ToolError
from .state import JobState, StateMismatch, run_fingerprint


class ExhaustedRetries(ToolError):
    """All attempts failed; the last cause is chained as __cause__."""


class NonRetryable(ToolError):
    """The endpoint rejected the request with a non-transient status."""


class MalformedResponse(ToolError):
    """The endpoint answered 2xx but the expected content is missing."""


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
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base <= 0:
            raise ValueError("backoff_base must be positive")


@dataclass(frozen=True)
class BatchItem:
    index: int
    prompt: str


_thread_local = threading.local()


def _session() -> requests.Session:
    session = getattr(_thread_local, "session", None)
    if session is None:
        session = requests.Session()
        _thread_local.session = session
    return session


def chat_complete(cfg: EndpointConfig, prompt: str) -> str:
    """Send one chat completion and return the first choice's content."""
    url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
    body = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }
    headers = {}
    if cfg.api_key:
        headers["Authorization"] = f"Bearer {cfg.api_key}"

    last_cause: Exception | None = None
    for attempt in range(cfg.max_retries + 1):
        try:
            response = _session().post(url, json=body, headers=headers, timeout=cfg.timeout)
        except requests.RequestException as exc:
            last_cause = exc
        else:
            status = response.status_code
            if 200 <= status < 300:
                return _extract_content(response)
            if status == 429 or status >= 500:
                last_cause = ToolError(f"HTTP {status}: {response.text[:200]}")
            else:
                raise NonRetryable(f"HTTP {status}: {response.text[:200]}")
        if attempt < cfg.max_retries:
            delay = cfg.backoff_base * (2**attempt)
            time.sleep(delay + random.uniform(0.0, delay / 2.0))
    raise ExhaustedRetries(
        f"gave up after {cfg.max_retries + 1} attempts: {last_cause}"
    ) from last_cause


def _extract_content(response: requests.Response) -> str:
    try:
        payload = response.json()
        content = payload["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse(f"no message content in response: {exc}") from exc
    if not isinstance(content, str):
        raise MalformedResponse(f"content has type {type(content).__name__}")
    return content


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
    """Complete every item, at most ``concurrency`` requests in flight.

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

    results: dict[int, str] = dict(state.completed)
    pending = [item for item in items if item.index not in results]

    failure: Exception | None = None
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        future_items = {
            pool.submit(chat_complete, cfg, item.prompt): item for item in pending
        }
        # as_completed installs one waiter per future, once; waiting on the
        # not-done set after every completion would cost O(N) each time.
        for future in as_completed(future_items):
            if future.cancelled():
                continue
            exc = future.exception()
            if exc is not None:
                if failure is None:
                    failure = exc
                    for other in future_items:
                        other.cancel()
                continue
            item = future_items[future]
            text = future.result()
            state.record(item.index, text)
            results[item.index] = text
    state.checkpoint()
    if failure is not None:
        raise failure
    return [results[i] for i in range(len(items))]
