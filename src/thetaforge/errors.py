"""Exception hierarchy shared by all modules."""


class ThetaForgeError(Exception):
    """Base class for all errors raised by this package."""

    def to_json(self):
        return {"type": type(self).__name__, "detail": str(self)}


class PrecisionExhausted(ThetaForgeError):
    """A computation consumed every stored p-adic digit."""


class NotOrdinary(ThetaForgeError):
    """A unit eigenvalue was required but the given one is divisible by p."""


class NotSupersingular(ThetaForgeError):
    """The annihilation check that certifies a zero Hecke eigenvalue failed."""


class NotDivisible(ThetaForgeError):
    """Exact division in a finite group ring has no solution at this precision."""


class TransitivityViolation(ThetaForgeError):
    """Two distinct cosets acted identically; orbit enumeration is broken."""


class EmptyDomain(ThetaForgeError):
    """An operator was applied to a form with no evaluation points left."""


class MissingEigenvalue(ThetaForgeError):
    """Edge stabilization needs a U-eigenvalue that was not supplied."""


class UnsupportedDelta(ThetaForgeError):
    """The plus/minus machinery is only defined for a single group variable."""


class CompatibilityViolation(ThetaForgeError):
    """Tower projection of a normalized theta element missed the lower layer."""


class DistributionViolation(ThetaForgeError):
    """A coefficient system failed the exact distribution relations."""


class ConductorTooLarge(ThetaForgeError):
    """A character's conductor exceeds the layer of the element being specialized."""


class InvariantViolation(ThetaForgeError):
    """An identity that a result depends on failed to hold; the result would be wrong."""
