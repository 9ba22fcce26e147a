from __future__ import annotations

import mtpipe
from mtpipe import errors, merge


def test_every_public_name_resolves():
    missing = [name for name in mtpipe.__all__ if not hasattr(mtpipe, name)]
    assert missing == []


def test_shape_mismatch_has_one_class():
    assert merge.ShapeMismatch is errors.ShapeMismatch
