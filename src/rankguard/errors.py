"""Exception hierarchy, and the checks that raise it.

Precondition violations and enumeration overflows are kept apart because
the CLI maps them to distinct exit codes (2 and 3 respectively).  Malformed
JSON input is a precondition violation, caught where it is read.
"""

from __future__ import annotations

import json


class RankguardError(Exception):
    """Base class for all library errors."""


class PreconditionError(RankguardError):
    """An operation was called with arguments violating its contract."""


class EnumerationTooLarge(RankguardError):
    """An exhaustive enumeration would exceed the configured cap."""


class InvariantViolated(RankguardError):
    """A result the algebra guarantees did not hold: an implementation bug."""


def require(ok: bool, what: str) -> None:
    """Raise InvariantViolated unless ok (unlike assert, kept under python -O)."""
    if not ok:
        raise InvariantViolated(what)


def json_field(data, key: str, kind: type):
    """data[key], which must be a JSON value of the given type."""
    if not isinstance(data, dict):
        raise PreconditionError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise PreconditionError(f"missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise PreconditionError(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def json_ints(value, what: str, bound: int | None = None) -> list[int]:
    """value, which must be a JSON list of ints (each in 0..bound-1 if given)."""
    if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool)
            and (bound is None or 0 <= v < bound) for v in value):
        limit = "" if bound is None else f" in 0..{bound - 1}"
        raise PreconditionError(f"{what} must be a list of integers{limit}, got {value!r}")
    return value


def json_agrees(data: dict, built: dict, what: str) -> None:
    """Refuse a JSON object whose recorded fields disagree with the value
    built from it; a field it leaves out is not checked."""
    for key, value in built.items():  # compared as JSON text, so true is not 1
        if key in data and json.dumps(data[key]) != json.dumps(value):
            raise PreconditionError(
                f"{what} records {key}={data[key]!r} but its contents give {value!r}")


class NotIrreducible(PreconditionError):
    """The supplied modulus polynomial factors over the base field."""


class UnsupportedSize(PreconditionError):
    """q^m exceeds the cap that keeps element enumeration feasible."""


class DivisionByZero(PreconditionError, ZeroDivisionError):
    """Multiplicative inverse of the zero element was requested."""


class AmbientMismatch(PreconditionError):
    """Code or subspace operands (LinearCode values) differ in length or field."""


class LengthMismatch(PreconditionError):
    """Vector operands have different lengths."""


class DimensionMismatch(PreconditionError):
    """Matrix/vector dimensions are incompatible."""


class DependentPoints(PreconditionError):
    """Evaluation points are linearly dependent over the base field."""


class DegreeTooSmall(PreconditionError):
    """The extension degree is too small for the requested code length."""


class NotSystematizable(PreconditionError):
    """The leading columns of the generator are singular; caller must permute."""


class EmptyIndexSet(PreconditionError):
    """A puncturing index set must be nonempty."""


class NotASubcode(PreconditionError):
    """The second code is not a proper subcode of the first."""


class PacketTooShort(PreconditionError):
    """Packet length m is below the l+n floor of the explicit construction."""


class BadDimensions(PreconditionError):
    """Scheme dimensions violate 1 <= l <= k <= n."""


class DegreeMismatch(PreconditionError):
    """Lifting requires the outer degree to equal inner degree plus n."""


class InfeasibleRank(PreconditionError):
    """No N x n matrix can satisfy the requested rank constraint."""


class SuiteUnknown(PreconditionError):
    """Unknown acceptance suite name."""
