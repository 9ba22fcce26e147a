"""Common error base so the CLI can map failures onto exit codes."""


class ToolError(Exception):
    """Base class for every operational error raised by this package."""


class LengthMismatch(ToolError):
    """Two sequences that must align index by index differ in length."""


class ShapeMismatch(ToolError):
    """Tensors that must agree on shape or layout do not."""
