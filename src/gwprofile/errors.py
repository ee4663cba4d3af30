"""Exception hierarchy for gwprofile.

Every error raised deliberately by this package derives from
:class:`GWProfileError`, so callers (in particular the CLI) can separate
anticipated failures from genuine bugs.
"""

from __future__ import annotations


class GWProfileError(Exception):
    """Base class for all errors raised by gwprofile."""


class ConfigurationError(GWProfileError):
    """A model definition, config file, or parameter set is invalid."""


class TreeParseError(GWProfileError):
    """A tree literal could not be parsed.

    ``offset`` is the byte offset (0-based) at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class DomainError(GWProfileError):
    """Arguments are well-formed but outside the mathematical domain.

    Examples: decomposing at level 0, asking for an excursion sign a
    model cannot produce, conditioning on an impossible size.
    """


class ResourceLimitError(GWProfileError):
    """A configured cap (vertices, rejections, table size) was exhausted."""


class ReconstructionError(GWProfileError):
    """An excursion decomposition is inconsistent and cannot be glued back."""


class IntegrityError(GWProfileError):
    """An internal cross-check failed; indicates corrupted data or a bug."""
