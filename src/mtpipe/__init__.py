"""Checkpoint compression and merging, batch translation/judging, and
reference-based machine-translation evaluation."""

from .errors import ToolError
from .tensorio import (
    Checkpoint,
    DType,
    Tensor,
    open_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .quant import QuantPolicy, QuantizedTensor, dequantize_fp8, quantize_checkpoint, quantize_fp8
from .merge import MergeSpec, MissingPolicy, merge_checkpoints, slerp_vec
from .metrics import (
    BleuOptions,
    MetricReport,
    bleu_corpus,
    chrf_pp,
    evaluate_pairs,
    rouge_l_f1,
    tokenize_13a,
)
from .inference import BatchItem, EndpointConfig, chat_complete, run_batch
from .state import JobState
from .pipeline import (
    BilingualTuple,
    FilterStats,
    InstructionRecord,
    Verdict,
    build_bilingual_tuples,
    filter_code_samples,
    filter_parallel_corpus,
    mix_corpora,
    parse_verdict,
    render_judge_prompt,
    render_translation_prompt,
)
from .evalset import (
    AlignedPair,
    QuestionItem,
    align_references,
    build_report,
    prng_next,
    sample_questions,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "BatchItem",
    "BilingualTuple",
    "BleuOptions",
    "Checkpoint",
    "DType",
    "EndpointConfig",
    "FilterStats",
    "InstructionRecord",
    "JobState",
    "MergeSpec",
    "MetricReport",
    "MissingPolicy",
    "QuantPolicy",
    "QuantizedTensor",
    "QuestionItem",
    "Tensor",
    "ToolError",
    "Verdict",
    "align_references",
    "bleu_corpus",
    "build_bilingual_tuples",
    "build_report",
    "chat_complete",
    "chrf_pp",
    "dequantize_fp8",
    "evaluate_pairs",
    "filter_code_samples",
    "filter_parallel_corpus",
    "merge_checkpoints",
    "mix_corpora",
    "open_checkpoint",
    "parse_verdict",
    "prng_next",
    "quantize_checkpoint",
    "quantize_fp8",
    "read_checkpoint",
    "render_judge_prompt",
    "render_translation_prompt",
    "rouge_l_f1",
    "run_batch",
    "sample_questions",
    "slerp_vec",
    "tokenize_13a",
    "write_checkpoint",
]
