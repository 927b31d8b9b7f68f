"""Exception types shared across the verification lab.

Every failure mode that a caller can reasonably branch on gets its own
class; all of them derive from VerificationError so blanket handling
stays possible.  _check_int states the one rule for an integer argument.
"""

import sys
from math import inf
from numbers import Integral


class VerificationError(Exception):
    """Base class for all lab-specific failures."""


class BadDegree(VerificationError):
    """Form or symmetric-power degree outside the valid range."""


class NotSurjective(VerificationError):
    """Candidate projection does not reach its whole codomain."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotConformal(VerificationError):
    """P P* deviates from a multiple of the identity beyond tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotUnit(VerificationError):
    """Direction vector expected to have norm 1."""


class BadConstants(VerificationError):
    """Inconsistent (epsilon, rho^2) or negative interpolation weight."""


class ZeroSection(VerificationError):
    """Section vanishes where a norm gradient is required."""


class FiberMismatch(VerificationError):
    """Field fiber does not match the operator's domain fiber."""


class UnknownName(VerificationError):
    """Catalog lookup with an unrecognized operator name."""


class UnknownScenario(VerificationError):
    """Scenario preset name not in the lab's list."""


class ZeroOperator(VerificationError):
    """Witness extraction from an (almost) zero restricted map."""


class ConfigError(VerificationError):
    """Malformed command line or config file, clashing options or an unwritable output path."""


class BrokenIdentity(VerificationError):
    """A table of the catalog fails an identity that it must satisfy exactly."""


def _check_int(error, subject: str, name: str, x, lo: int, hi=inf) -> None:
    """error(f"{subject} {lo} <= {name} <= {hi}, got {name}={x}") unless x is an integer
    in lo..hi, hi capped at sys.maxsize, the largest value that fits an index.  subject
    carries its verb ("form split needs"); an upper bound not given and not exceeded
    is left out ("n >= 2")."""
    top = min(hi, sys.maxsize)
    if isinstance(x, Integral) and lo <= x <= top:
        return
    over = isinstance(x, Integral) and x > top
    span = f"{lo} <= {name} <= {top}" if hi != inf or over else f"{name} >= {lo}"
    raise error(f"{subject} {span}, got {name}={x}")
