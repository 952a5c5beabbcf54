"""Error taxonomy shared across the toolkit.

Every failure carries a stable machine-readable ``code`` (used verbatim in
CLI reports and exit-code mapping) plus a human message.  Three categories:

* :class:`InputError`    -- caller handed us something malformed (CLI exit 2)
* :class:`CapExceeded`   -- an explicit resource cap stopped the run (exit 3)
* :class:`PropertyFailure` -- a checked mathematical property does not hold
  where the caller demanded success (exit 1); :func:`confirm` raises it
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class; ``code`` is a stable snake_case identifier."""

    def __init__(self, code: str, message: str, **details):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details = details


class InputError(ToolkitError):
    pass


class CapExceeded(ToolkitError):
    pass


class PropertyFailure(ToolkitError):
    pass


def confirm(holds: bool, message: str, **details) -> None:
    """A claim checked on the spot: a ``PropertyFailure`` unless it holds,
    which ``python -O`` keeps, where it strips an ``assert``."""
    if not holds:
        raise PropertyFailure("search_exhausted", message, **details)


class SpecSyntaxError(InputError):
    """Parse failure in a group/subset/element spec string.

    Carries the 0-based ``position`` of the offending character and a short
    description of what was ``expected`` there.
    """

    def __init__(self, position: int, expected: str, text: str = ""):
        super().__init__(
            "syntax_error",
            f"at position {position}: expected {expected}",
            position=position,
            expected=expected,
            text=text,
        )
        self.position = position
        self.expected = expected
