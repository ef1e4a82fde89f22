"""Exception hierarchy shared by all opennet modules."""


class OpenNetError(Exception):
    """Base class for all errors raised by this package."""


class NotSubmultiset(OpenNetError):
    """Multiset difference requested where the subtrahend is not pointwise below."""


class ProjectionMismatch(OpenNetError):
    """Two multisets disagree on the shared interface, so they cannot be joined."""


class DomainMismatch(OpenNetError):
    """Morphism composition where the middle nets do not coincide."""


class NotEmbedding(OpenNetError):
    """An operation restricted to embeddings received a non-injective morphism."""


class SourceMismatch(OpenNetError):
    """Two span legs do not share the same source net."""


class NotComposable(OpenNetError):
    """The span legs violate the composability side conditions."""


class NotEnabled(OpenNetError):
    """A multiset of events whose combined pre-set exceeds the given marking."""


class IllegalEvent(OpenNetError):
    """An event that does not exist in the net (unknown transition, or a
    token creation/deletion on a place that is not open in that direction)."""


class NotCompatible(OpenNetError):
    """A step split that violates the compatibility equations."""


class InvalidBound(OpenNetError):
    """A negative marking cap or step-size bound."""


class InitialExceedsCap(OpenNetError):
    """Transition-system construction rooted at a marking outside the cap."""


class NotACorrespondence(OpenNetError):
    """An open-place correspondence whose components are not bijections."""


class PairExceedsCap(OpenNetError):
    """An up-to check that would have to leave the capped marking region."""


class UnsupportedMode(OpenNetError):
    """A request for a check the underlying technique does not support."""


class UnknownPlace(OpenNetError):
    """A place identifier that is not declared in the net."""


class PlaceNotOpen(OpenNetError):
    """Closing a place that is not open with the given polarity."""


class EtaUndefined(OpenNetError):
    """A rule whose left-hand open places are not all preserved, so the
    induced correspondence is partial."""


class NotProper(OpenNetError):
    """Rule application at a match violating the properness conditions."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConditionsViolated(OpenNetError):
    """Pushout-complement construction with failing side conditions."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DocumentError(OpenNetError):
    """Malformed input document (syntax or schema)."""
