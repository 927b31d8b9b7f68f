"""Exception types shared across the verification lab.

Every failure mode that a caller can reasonably branch on gets its own
class; all of them derive from VerificationError so blanket handling
stays possible.
"""


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


class ZeroCovector(VerificationError):
    """Symbol requested at xi = 0."""


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
    """Malformed config file, inconsistent CLI options or an unwritable output path."""
