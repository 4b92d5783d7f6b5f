"""Exception hierarchy for the causeway engine."""

from __future__ import annotations


class CausewayError(Exception):
    """Base class for all engine errors."""


# --- annotation ---

class MalformedTagError(CausewayError):
    """Unclosed, mismatched, nested or empty inline tag."""


class UnknownTagKindError(CausewayError):
    """Tag name is not one of cause/effect/trigger."""


class SourceUnreadableError(CausewayError):
    """Corpus source could not be opened or read."""


# --- graph store ---

class DimensionMismatchError(CausewayError):
    """Vector does not have the required dimension."""


class KindViolationError(CausewayError):
    """Edge endpoints do not match the kind table, or a node kind change."""


class MissingEndpointError(CausewayError):
    """Edge references a node id that is not in the store."""


class NotAnEventError(CausewayError):
    """Operation requires an Event node."""


class UnknownIdError(CausewayError):
    """No node with the given id."""


# --- embedding ---

class ProviderFailureError(CausewayError):
    """Embedding provider failed after a retry; carries partial progress."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


# --- retrieval ---

class ZeroVectorError(CausewayError):
    """Cosine similarity is undefined for a zero-norm vector."""


# --- prompt ---

class BudgetTooSmallError(CausewayError):
    """Even the zero-shot prompt exceeds the token budget."""


class XmlCharacterError(CausewayError):
    """Prompt text holds a character that XML 1.0 cannot carry."""


# --- inference ---

class TransportError(CausewayError):
    """LLM client could not complete the request."""


class ParseFailureError(CausewayError):
    """LLM output could not be turned into a verdict."""


class NoJsonFoundError(ParseFailureError):
    """No syntactically valid JSON object in the raw output."""


class MissingKeyError(ParseFailureError):
    """JSON object lacks a required key (or it has the wrong type)."""


class BadLabelError(ParseFailureError):
    """Label is not 0/1 (after tolerant coercion)."""


# --- evaluation ---

class LengthMismatchError(CausewayError):
    """Prediction and gold label lists differ in length."""


class EmptyConfusionError(CausewayError):
    """Metrics are undefined on an empty confusion matrix."""
