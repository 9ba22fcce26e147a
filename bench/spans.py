"""Spans around the package's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``mtpipe`` module that holds it (``run_batch`` lives in ``inference`` but is
called through ``pipeline`` and ``cli`` too), and ``uninstall()`` puts the
originals back. A span is (name, start, end, thread, parent, fields). Spans
stay in memory until ``dump``. Worker-thread spans (``chat_complete``) take
the main thread's innermost open span as their parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

_PAGE = os.sysconf("SC_PAGE_SIZE")

# (module, function) pairs to wrap; "JobState.x" names a method.
TRACED = (
    ("cli", "main"),
    ("tensorio", "read_checkpoint"), ("tensorio", "write_checkpoint"),
    ("tensorio", "tensor_as_f64"), ("tensorio", "tensor_from_f64"),
    ("fp8", "encode_array"), ("fp8", "decode_array"),
    ("quant", "quantize_checkpoint"), ("quant", "validate_quantization"),
    ("merge", "merge_checkpoints"), ("merge", "slerp_vec"),
    ("inference", "run_batch"), ("inference", "chat_complete"),
    ("state", "JobState.__init__"), ("state", "JobState.record"),
    ("state", "JobState.checkpoint"),
    ("pipeline", "read_records"), ("pipeline", "write_records"),
    ("pipeline", "load_instruction_records"), ("pipeline", "filter_code_samples"),
    ("pipeline", "render_translation_prompt"), ("pipeline", "render_judge_prompt"),
    ("pipeline", "parse_verdict"), ("pipeline", "build_bilingual_tuples"),
    ("pipeline", "mix_corpora"),
    ("metrics", "evaluate_pairs"), ("metrics", "tokenize_13a"),
    ("metrics", "bleu_corpus"), ("metrics", "chrf_pp"), ("metrics", "rouge_l_corpus"),
    ("metrics", "lcs_length"),
    ("evalset", "load_question_items"), ("evalset", "sample_questions"),
    ("evalset", "align_references"), ("evalset", "build_report"),
)


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _size(args, name: str) -> dict:
    """Work counted at the call: elements, bytes, cells or segments."""
    if name == "tensorio.read_checkpoint":
        return {"bytes": os.path.getsize(args[0])}
    if name == "tensorio.write_checkpoint":
        return {"bytes": sum(t.nbytes for t in args[0].tensors.values())}
    if name == "tensorio.tensor_as_f64":
        return {"elems": args[0].numel}
    if name in ("fp8.encode_array", "fp8.decode_array", "merge.slerp_vec"):
        return {"elems": int(getattr(args[0], "size", 0))}
    if name == "metrics.lcs_length":
        return {"cells": len(args[0]) * len(args[1])}
    if name in ("metrics.bleu_corpus", "metrics.chrf_pp", "pipeline.filter_code_samples"):
        return {"items": len(args[0])}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    fields: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, fields: dict) -> tuple[int, list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name, time.monotonic(), 0.0, threading.get_ident(), parent, fields)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index, stack

    def _close(self, index: int, stack: list[int]) -> None:
        self.spans[index].end = time.monotonic()
        stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        rss = name == "tensorio.read_checkpoint"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fields = _size(args, name)
            if rss:
                before = _rss_bytes()
            index, stack = self._open(name, fields)
            try:
                result = fn(*args, **kwargs)
                if name == "quant.quantize_checkpoint":
                    fields["tensors"] = sum(t.dtype.value == "F8_E4M3"
                                            for t in result.tensors.values())
                return result
            finally:
                self._close(index, stack)
                if rss:
                    fields["rss_growth"] = _rss_bytes() - before

        return wrapper

    def _wrap_generator(self, name: str, fn):
        # A generator's span covers only the time spent inside it: it runs
        # from its first step for as long as all its steps took together.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            busy, items, first = 0.0, 0, None
            parent_stack = self._stack()
            parent = parent_stack[-1] if parent_stack else None
            try:
                while True:
                    t0 = time.monotonic()
                    first = t0 if first is None else first
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += time.monotonic() - t0
                        return
                    busy += time.monotonic() - t0
                    items += 1
                    yield item
            finally:
                start = first if first is not None else time.monotonic()
                with self._lock:
                    self.spans.append(Span(name, start, start + busy, threading.get_ident(),
                                           parent, {"items": items}))

        return wrapper

    def install(self) -> None:
        modules = {m: sys.modules[f"mtpipe.{m}"] for m in
                   ("cli", "tensorio", "fp8", "quant", "merge", "inference", "state",
                    "pipeline", "metrics", "evalset")}
        for mod_name, attr in TRACED:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                label = f"state.{meth}" if meth != "__init__" else "state.JobState"
                self._set(cls, meth, self._wrap(label, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for module in modules.values():
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "thread": s.thread, "parent": s.parent, **s.fields}) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(intervals, windows) -> list[tuple[float, float]]:
    out = []
    for a, b in intervals:
        for w0, w1 in windows:
            lo, hi = max(a, w0), min(b, w1)
            if hi > lo:
                out.append((lo, hi))
    return out


def layer_metrics(spans: list[Span], endpoint: dict | None, journal_bytes: int) -> dict:
    """Per-layer numbers from one traced chain (see README for the list)."""
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def total(name):
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ()))

    def self_time(name):
        out = 0.0
        for i in by_name.get(name, ()):
            kids = [(spans[k].start, spans[k].end) for k in children.get(i, ())]
            out += spans[i].end - spans[i].start - _union(_clipped(kids, [(spans[i].start,
                                                                            spans[i].end)]))
        return out

    def summed(name, key):
        return sum(spans[i].fields.get(key, 0) for i in by_name.get(name, ()))

    def rate(name, key, scale=1.0):
        t = total(name)
        return summed(name, key) / scale / t if t > 0 else 0.0

    m = {
        "cli.self_s": self_time("cli.main"),
        "tensorio.read_checkpoint.s": total("tensorio.read_checkpoint"),
        "tensorio.read_checkpoint.mb_per_s": rate("tensorio.read_checkpoint", "bytes", 1e6),
        "tensorio.read_checkpoint.rss_mb": max(
            [spans[i].fields.get("rss_growth", 0) for i in by_name.get(
                "tensorio.read_checkpoint", ())] or [0]) / 2**20,
        "tensorio.write_checkpoint.s": total("tensorio.write_checkpoint"),
        "tensorio.write_checkpoint.mb_per_s": rate("tensorio.write_checkpoint", "bytes", 1e6),
        "tensorio.tensor_as_f64.s": total("tensorio.tensor_as_f64"),
        "tensorio.tensor_as_f64.melem_per_s": rate("tensorio.tensor_as_f64", "elems", 1e6),
        "tensorio.tensor_from_f64.s": total("tensorio.tensor_from_f64"),
        "fp8.encode_array.s": total("fp8.encode_array"),
        "fp8.encode_array.melem_per_s": rate("fp8.encode_array", "elems", 1e6),
        "fp8.decode_array.s": total("fp8.decode_array"),
        "fp8.decode_array.melem_per_s": rate("fp8.decode_array", "elems", 1e6),
        "quant.quantize_checkpoint.self_s": self_time("quant.quantize_checkpoint"),
        "quant.quantize_checkpoint.tensors": float(summed("quant.quantize_checkpoint",
                                                          "tensors")),
        "quant.validate_quantization.self_s": self_time("quant.validate_quantization"),
        "merge.merge_checkpoints.self_s": self_time("merge.merge_checkpoints"),
        "merge.slerp_vec.s": total("merge.slerp_vec"),
        "merge.slerp_vec.melem_per_s": rate("merge.slerp_vec", "elems", 1e6),
        "state.record.calls": float(len(by_name.get("state.record", ()))),
        "state.record.s": total("state.record"),
        "state.checkpoint.calls": float(len(by_name.get("state.checkpoint", ()))),
        "state.checkpoint.s": total("state.checkpoint"),
        "state.load_s": total("state.JobState"),
        "state.journal_mb": journal_bytes / 1e6,
        "pipeline.read_records.s": total("pipeline.read_records"),
        "pipeline.read_records.records_per_s": rate("pipeline.read_records", "items"),
        "pipeline.write_records.s": total("pipeline.write_records"),
        "pipeline.load_instruction_records.s": total("pipeline.load_instruction_records"),
        "pipeline.filter_code_samples.s": total("pipeline.filter_code_samples"),
        "pipeline.filter_code_samples.records_per_s": rate("pipeline.filter_code_samples",
                                                           "items"),
        "pipeline.render_translation_prompt.s": total("pipeline.render_translation_prompt"),
        "pipeline.render_judge_prompt.s": total("pipeline.render_judge_prompt"),
        "pipeline.parse_verdict.s": total("pipeline.parse_verdict"),
        "pipeline.build_bilingual_tuples.s": total("pipeline.build_bilingual_tuples"),
        "pipeline.mix_corpora.self_s": self_time("pipeline.mix_corpora"),
        "metrics.evaluate_pairs.s": total("metrics.evaluate_pairs"),
        "metrics.tokenize_13a.calls": float(len(by_name.get("metrics.tokenize_13a", ()))),
        "metrics.tokenize_13a.s": total("metrics.tokenize_13a"),
        "metrics.bleu_corpus.self_s": self_time("metrics.bleu_corpus"),
        "metrics.bleu_corpus.segments_per_s": rate("metrics.bleu_corpus", "items"),
        "metrics.chrf_pp.s": total("metrics.chrf_pp"),
        "metrics.chrf_pp.segments_per_s": rate("metrics.chrf_pp", "items"),
        "metrics.rouge_l_corpus.self_s": self_time("metrics.rouge_l_corpus"),
        "metrics.lcs_length.s": total("metrics.lcs_length"),
        "metrics.lcs_length.mcells_per_s": rate("metrics.lcs_length", "cells", 1e6),
        "evalset.load_question_items.s": total("evalset.load_question_items"),
        "evalset.sample_questions.s": total("evalset.sample_questions"),
        "evalset.align_references.s": total("evalset.align_references"),
        "evalset.build_report.self_s": self_time("evalset.build_report"),
    }
    m.update(_inference_metrics(spans, by_name, endpoint))
    return m


def _inference_metrics(spans, by_name, endpoint) -> dict:
    windows = [(spans[i].start, spans[i].end) for i in by_name.get("inference.run_batch", ())]
    batch_s = sum(b - a for a, b in windows)
    latencies = sorted(spans[i].end - spans[i].start
                       for i in by_name.get("inference.chat_complete", ()))
    calls = len(latencies)
    handled = [tuple(iv) for iv in (endpoint or {}).get("intervals", [])]
    requests = (endpoint or {}).get("requests", 0)
    connections = (endpoint or {}).get("connections", 0)
    in_window = _clipped(handled, windows)
    busy = _union(in_window)
    handling = sorted(b - a for a, b in handled)
    return {
        "inference.run_batch.s": batch_s,
        "inference.requests_per_s": calls / batch_s if batch_s > 0 else 0.0,
        "inference.chat_complete.calls": float(calls),
        "inference.chat_complete.p50_ms": 1e3 * _quantile(latencies, 0.50),
        "inference.chat_complete.p99_ms": 1e3 * _quantile(latencies, 0.99),
        "inference.chat_complete.overhead_ms": 1e3 * (
            statistics.median(latencies) - statistics.median(handling)
            if latencies and handling else 0.0),
        "inference.in_flight_mean": sum(b - a for a, b in in_window) / batch_s
        if batch_s > 0 else 0.0,
        "inference.run_batch.idle_s": batch_s - busy,
        "inference.requests_per_connection": requests / connections if connections else 0.0,
        "inference.attempts_per_item": requests / calls if calls else 0.0,
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
