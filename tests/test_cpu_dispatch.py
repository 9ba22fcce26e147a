"""The codecs, the quantizer, the merge kernels and every golden output do not
depend on which of numpy's per-CPU loops run.

numpy picks a loop for each CPU feature it dispatches on, and
``NPY_DISABLE_CPU_FEATURES`` switches dispatch targets off for the process
that reads it. For each target in numpy's ``__cpu_dispatch__`` that this host
supports, the fp8, quant, merge and golden-output tests rerun in a child
pytest with only that target disabled, which selects the loops a host without
it runs; only the child's environment changes. The quant tests hold the
16-bit tables, built once per tensor by the loops of ``fp8.encode_array``, to
the chunk kernels' codes and audit on every finite BF16 and F16 pattern.

Out of reach: other libm builds, other numpy versions and non-x86 hosts,
whose dispatch targets are different and are only checked by runs there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = Path(__file__).parent
TARGETS = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


@pytest.mark.parametrize("target", TARGETS)
def test_outputs_are_the_same_with_a_dispatch_target_disabled(target):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(TESTS / name) for name in ("test_fp8.py", "test_quant.py", "test_merge.py",
                                          "test_golden_outputs.py"))],
        capture_output=True, text=True, cwd=TESTS.parent,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": target,
             "PYTHONPATH": os.pathsep.join(
                 filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
