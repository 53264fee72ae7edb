"""One-species threshold formulas at zero external field.

Everything here assumes the normalization xi(1) = 1, so the inputs are
just the two scalars xi'(1) and xi''(1).  The module provides the
annealed thresholds E_inf^-, E_inf^+, the centered ellipse bounding the
region where the quadratic bound F-tilde of the complexity is
nonnegative, and the geometric case split of the upper annealed bound.
The complexity F itself is the r = 1 case of complexity.F_extended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCase, ValidationError
from .mixture import MixtureSpec, stats

SQRT2 = np.sqrt(2.0)
# alpha^2 = xi'' + xi' - xi'^2 is formed from terms of size xi'^2 that cancel,
# so its rounding residue scales with xi'^2: a pure model is one whose
# |alpha^2| is within this multiple of xi'^2
ALPHA_SQ_REL_FLOOR = 1e-12

__all__ = [
    "ScalarThresholds", "EllipseParams", "thresholds",
    "thresholds_from_mixture", "ellipse", "classify_Einf_case",
]


@dataclass(frozen=True)
class ScalarThresholds:
    xi_prime: float
    xi_dprime: float
    alpha_sq: float
    E_inf_minus: float
    E_inf_plus: float


@dataclass(frozen=True)
class EllipseParams:
    """Quadratic form of F-tilde: a_ss s^2 + a_sy s y + a_yy y^2 + constant."""

    a_ss: float
    a_sy: float
    a_yy: float
    constant: float
    discriminant: float
    major_axis_angle: float
    tangent_slope_at_Eplus: float


def thresholds(xi_prime: float, xi_dprime: float) -> ScalarThresholds:
    """Annealed energy thresholds for the normalized mixture."""
    xp, xpp = float(xi_prime), float(xi_dprime)
    if not (xpp >= xp > 0):
        raise ValidationError("need xi'' >= xi' > 0")
    alpha_sq = xpp + xp - xp * xp
    if alpha_sq < -ALPHA_SQ_REL_FLOOR * xp * xp:
        raise ValidationError(
            "alpha^2 < 0: parameters inconsistent with a normalized mixture")
    alpha_sq = max(alpha_sq, 0.0)
    # the radicand is >= 0 in exact arithmetic, so a negative one is rounding
    root = np.sqrt(max(_radicand(xp, xpp, alpha_sq), 0.0))
    base = 2 * xp * np.sqrt(xpp)
    denom = xp + xpp
    return ScalarThresholds(
        xi_prime=xp, xi_dprime=xpp, alpha_sq=alpha_sq,
        E_inf_minus=(base - root) / denom, E_inf_plus=(base + root) / denom)


def _radicand(xp, xpp, alpha_sq):
    """4 xi'' xi'^2 - (xi'' + xi')(2 (xi'' - xi' + xi'^2) - alpha^2 log(xi''/xi')).

    It is >= 0 wherever thresholds accepts its input.  With
    xi'^2 = xi'' + xi' - alpha^2 it equals alpha^2 xi' h(t), where
    t = xi''/xi' >= 1 and h(t) = 2 - 2t + (1 + t) log t: h(1) = h'(1) = 0
    and h''(t) = (t - 1)/t^2 >= 0, so h >= 0, with radicand 0 at
    xi'' = xi'.  Where a rounding residue alpha^2 = -e < 0 was clamped to
    0, the same algebra gives 2 e (xi'' - xi') >= 0.  Its terms cancel at
    the size 4 xi'' xi'^2, and log(xi''/xi') is off by about an ulp in
    absolute terms, so rounding can leave it a few ulps of
    4 xi'' xi'^2 + (xi'' + xi') alpha^2 below 0: near xi'' = xi' with a
    small xi', far more than an ulp of 4 xi'' xi'^2.
    """
    return 4 * xpp * xp * xp - (xpp + xp) * (2 * (xpp - xp + xp * xp)
                                             - alpha_sq * np.log(xpp / xp))


def thresholds_from_mixture(spec: MixtureSpec) -> ScalarThresholds:
    """Same, from a one-species mixture; checks normalization here."""
    if spec.r != 1:
        raise ValidationError("single-species formulas require r = 1")
    st = stats(spec)
    if abs(st.xi_one - 1.0) > 1e-10:
        raise ValidationError(f"xi(1) = {st.xi_one}; normalization to 1 is required")
    if spec.gamma1[0] != 0.0:
        raise ValidationError("external field (degree-1 term) is not allowed")
    return thresholds(float(st.xi_prime[0]), float(st.xi_dprime[0, 0]))


def _is_pure(th: ScalarThresholds) -> bool:
    return th.alpha_sq <= ALPHA_SQ_REL_FLOOR * th.xi_prime * th.xi_prime


def ellipse(th: ScalarThresholds) -> EllipseParams:
    """Centered ellipse bounding {F-tilde >= 0}."""
    if _is_pure(th):
        raise DegenerateCase("pure mixture: the region degenerates to a segment")
    if th.xi_dprime == th.xi_prime:
        raise DegenerateCase("xi'' = xi': the region degenerates to a point")
    xp, xpp, a2 = th.xi_prime, th.xi_dprime, th.alpha_sq
    a_ss = 0.5 * (1.0 - 2 * xpp / a2)
    a_yy = -0.5 * (1.0 + xp * xp / a2)
    a_sy = xp * np.sqrt(2 * xpp) / a2
    constant = 0.5 * np.log(xpp / xp)
    disc = a_ss * a_yy - (a_sy / 2) ** 2
    Q = np.array([[a_ss, a_sy / 2], [a_sy / 2, a_yy]])
    evals, evecs = np.linalg.eigh(Q)
    major = evecs[:, np.argmax(evals)]  # least-negative eigenvalue
    angle = float(np.arctan2(major[1], major[0])) % np.pi

    def slope_at(y_val):
        # ds/dy along F-tilde = 0 at (s=sqrt2, y=y_val)
        fs = 2 * a_ss * SQRT2 + a_sy * y_val
        fy = 2 * a_yy * y_val + a_sy * SQRT2
        return -fy / fs

    return EllipseParams(a_ss=float(a_ss), a_sy=float(a_sy), a_yy=float(a_yy),
                         constant=float(constant), discriminant=float(disc),
                         major_axis_angle=angle,
                         tangent_slope_at_Eplus=float(slope_at(th.E_inf_plus)))


def classify_Einf_case(th: ScalarThresholds) -> str:
    """Geometric case split for the upper annealed bound."""
    ell = ellipse(th)
    if ell.tangent_slope_at_Eplus >= 0:
        return "edge_bound_holds"
    return "requires_GS_comparison"
