"""Exception hierarchy shared by all modules.

ValidationError subclasses mean the inputs were bad.  NumericalError
subclasses mean a solver or check failed on valid inputs.
"""


class GlasslandError(Exception):
    pass


class ValidationError(GlasslandError):
    pass


class NumericalError(GlasslandError):
    pass


# --- validation ---

class BadMixture(ValidationError):
    """Mixture data violates the schema or an invariant."""


class DegreeTooHigh(ValidationError):
    """Requested degree exceeds the supported cap."""


class TooLarge(ValidationError):
    """Requested problem size exceeds the supported cap."""


class OffManifold(ValidationError):
    """Point does not lie on the product of spheres."""


# --- numerics ---

class NonConvergence(NumericalError):
    """Iterative solver failed to meet its residual target."""


class MassDeficit(NumericalError):
    """Spectral grid failed to capture enough probability mass."""


class DegenerateU(NumericalError):
    """A Dyson boundary value has a vanishing component."""


class ZeroComponent(NumericalError):
    """Stability matrices undefined: some u_s is zero."""


class InconsistentProbes(NumericalError):
    """Edge/cusp probes disagree across probe offsets."""


class DegenerateVariance(NumericalError):
    """Conditional energy variance is numerically zero."""


class NegativeRadicand(NumericalError):
    """A square root's radicand is not positive (mixture.v_star's f_s)."""


class DegenerateCase(NumericalError):
    """Single-species formula degenerates (alpha^2 = 0)."""


class LostTrack(NumericalError):
    """Homotopy continuation lost the critical point."""


class MaxIters(NumericalError):
    """Newton refinement hit its iteration cap."""
