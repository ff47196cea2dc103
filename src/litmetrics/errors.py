"""Exception types shared across the litmetrics modules."""

from __future__ import annotations


class LitmetricsError(Exception):
    """Base class for all litmetrics errors."""


# ---- indicator math ----------------------------------------------------


class EmptySample(LitmetricsError):
    """A citation sample was empty where at least one count is required."""


class DegenerateSample(LitmetricsError):
    """All citation counts are zero; the decay rate would be infinite."""


class IndexOutOfRange(LitmetricsError):
    """Requested curve point index lies outside 0..degree."""


class LengthMismatch(LitmetricsError):
    """Two paired sequences have different lengths."""


class EmptyReferenceList(LitmetricsError):
    """A reference list was empty where at least one entry is required."""


class InvalidInterval(LitmetricsError):
    """Interval bounds are reversed, equal, or otherwise unusable."""


class FlatObjective(LitmetricsError):
    """The calibration objective is identically zero; no maximiser exists."""


class ZeroBaseline(LitmetricsError):
    """The pre-publication count is zero, so the coverage ratio is undefined."""


class BinMismatch(LitmetricsError):
    """Histograms do not share a common binning."""


# ---- retrieval ---------------------------------------------------------


class NetworkError(LitmetricsError):
    """A network operation failed after exhausting retries."""


class RateLimited(NetworkError):
    """The remote endpoint kept refusing with a rate-limit status."""


class NetworkForbidden(NetworkError):
    """A request was made offline, or has no recording to replay; never retried."""


class ParseError(LitmetricsError, ValueError):
    """A remote response could not be parsed, or a fetched payload failed its
    checks. Also a ValueError, which the payload checks raise."""


class EmptyKeyword(LitmetricsError):
    """A query keyword was empty or whitespace."""


class EmptyResult(LitmetricsError):
    """A retrieval returned zero hits where at least one is required."""


class UnknownPaper(LitmetricsError):
    """The requested paper is not known to the source or store."""


class InvalidDateRange(LitmetricsError):
    """A date range has its endpoints reversed."""


class LlmUnavailable(LitmetricsError):
    """No LLM endpoint or stub is configured, or the call failed."""


class MalformedResponse(LitmetricsError):
    """An LLM response did not follow the requested output contract."""


# ---- snapshot ----------------------------------------------------------


class SchemaMismatch(LitmetricsError):
    """Snapshot schema version differs from the supported version."""


class StorageError(LitmetricsError):
    """The snapshot store rejected an operation."""


# ---- analysis ----------------------------------------------------------


class EmptyInput(LitmetricsError):
    """A statistic was requested over an empty value list."""


class ConstantInput(LitmetricsError):
    """A correlation input is constant, so the coefficient is undefined."""
