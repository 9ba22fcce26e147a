"""Checkpoint compression and merging, batch translation/judging, and
reference-based machine-translation evaluation.

Every submodule but ``cli`` is registered here as a lazy module: it is in
``sys.modules`` and on the package at once, and its code runs on the first
attribute access. So a command loads numpy (``tensorio``, ``fp8``, ``quant``,
``merge``) or ``http.client`` (``inference``) only when it uses them. ``cli``
is the entry point and is left to a plain import, so that ``python -m
mtpipe.cli`` finds it unloaded and runs it once.

A lazy module's first load takes no lock, so each must first be touched from
one thread only. ``run_batch``'s worker threads touch only ``inference``,
which the main thread has loaded by calling ``run_batch``; keep it so.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": ("ToolError",),
    "fp8": (),
    "tensorio": ("Checkpoint", "DType", "Tensor", "open_checkpoint", "read_checkpoint",
                 "write_checkpoint"),
    "quant": ("QuantPolicy", "QuantizedTensor", "dequantize_fp8", "quantize_checkpoint",
              "quantize_fp8"),
    "merge": ("MergeSpec", "MissingPolicy", "merge_checkpoints", "slerp_vec"),
    "shards": (),
    "metrics": ("BleuOptions", "MetricReport", "bleu_corpus", "chrf_pp", "evaluate_pairs",
                "rouge_l_f1", "tokenize_13a"),
    "inference": ("BatchItem", "EndpointConfig", "chat_complete", "run_batch"),
    "state": ("JobState",),
    "pipeline": ("BilingualTuple", "FilterStats", "InstructionRecord", "Verdict",
                 "build_bilingual_tuples", "filter_code_samples", "filter_parallel_corpus",
                 "mix_corpora", "parse_verdict", "render_judge_prompt",
                 "render_translation_prompt"),
    "evalset": ("AlignedPair", "QuestionItem", "align_references", "build_report", "prng_next",
                "sample_questions"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _register_lazy(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _EXPORTS:
    _register_lazy(_name)
del _name


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_OWNER[name]], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
