"""Exception hierarchy shared across the package."""


class CardestError(Exception):
    """Base class for all package errors."""


class InputParseError(CardestError):
    """Malformed input text; the message names the line, when one is given."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class GraphParseError(InputParseError):
    """Malformed edge-list input."""


class QueryParseError(InputParseError):
    """Malformed query / template text."""


class QueryValidationError(CardestError):
    """Structurally invalid query (disconnected, duplicate edge, ...)."""


class ConfigError(CardestError):
    """Invalid run configuration (h < 2, bad key=value file, ...)."""


class CatalogueFormatError(CardestError):
    """Catalogue file cannot be loaded (version mismatch, malformed JSON)."""


class MissingStatisticError(CardestError):
    """An estimation-graph build needs a statistic the catalogue lacks."""

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"missing catalogue statistic: {what}")


class EstimationError(CardestError):
    """No usable path from the empty subquery to the full query."""


class PathOverflowError(CardestError):
    """A path listing, or P*'s distinct estimates at one vertex, would exceed the cap."""

    def __init__(self, need: str, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"{need}, cap is {cap}")


class SketchPlanError(CardestError):
    """Partition budget incompatible with the sketch attribute set."""
