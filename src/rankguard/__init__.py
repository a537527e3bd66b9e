"""rankguard: rank-metric codes and secure network coding at desk scale.

Exact (no floating point in the algebra) tooling for:

* finite-field towers F_q < F_{q^m} and linear algebra over both levels,
* Gabidulin / MRD codes and their punctured, shortened and dual relatives,
* the relative dimension/intersection profile (RDIP) and relative
  generalized rank weight (RGRW) of a nested code pair, by exhaustive
  subspace enumeration,
* nested coset coding schemes, wiretap leakage measured as exact mutual
  information, and minimum-discrepancy decoding over coherent and
  noncoherent linear networks.
"""

from .errors import (
    AmbientMismatch,
    BadDimensions,
    DegreeMismatch,
    DegreeTooSmall,
    DependentPoints,
    DimensionMismatch,
    DivisionByZero,
    EmptyIndexSet,
    EnumerationTooLarge,
    InfeasibleRank,
    InvariantViolated,
    LengthMismatch,
    NotASubcode,
    NotIrreducible,
    NotSystematizable,
    PacketTooShort,
    PreconditionError,
    RankguardError,
    SuiteUnknown,
    UnsupportedSize,
)
from .gf import FieldCtx, PrimeField, ctx_new

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "BadDimensions",
    "DegreeMismatch",
    "DegreeTooSmall",
    "DependentPoints",
    "DimensionMismatch",
    "DivisionByZero",
    "EmptyIndexSet",
    "EnumerationTooLarge",
    "FieldCtx",
    "InfeasibleRank",
    "InvariantViolated",
    "LengthMismatch",
    "NotASubcode",
    "NotIrreducible",
    "NotSystematizable",
    "PacketTooShort",
    "PreconditionError",
    "PrimeField",
    "RankguardError",
    "SuiteUnknown",
    "UnsupportedSize",
    "ctx_new",
]
