"""Exception hierarchy shared across the toolkit.

Every error raised by cmkt code derives from :class:`CmktError`, so callers
can catch one base type at pipeline boundaries. The CLI maps these onto
exit codes (input/config problems vs. runtime failures).
"""


class CmktError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CmktError):
    """An input is outside the mathematical domain of an operation
    (zero-norm vector, empty activation set, constant rank vector)."""


class ShapeError(CmktError):
    """Array shapes or batch sizes do not line up."""


class ConfigError(CmktError):
    """A configuration value is invalid or a required input is missing."""


class ValidationError(CmktError):
    """Data violates a declared invariant (non-normalized distribution,
    cyclic hypernym graph, inconsistent choice counts)."""


class TokenizationError(CmktError):
    """Text could not be tokenized; carries the offending position when known."""


class ParseError(CmktError):
    """A data file is malformed; message names the line."""


class FeatureLookupError(CmktError):
    """An image id is not present in the feature bank."""


class TrainingError(CmktError):
    """Training diverged or otherwise failed; carries the step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ReportError(CmktError):
    """A result grid is ragged or empty; message lists missing cells."""
