"""One-species threshold formulas at zero external field.

Everything here assumes the normalization xi(1) = 1, so the inputs are
just the two scalars xi'(1) and xi''(1).  The module provides the
annealed thresholds E_inf^-, E_inf^+, the exponential correction
Theta(s), the complexity surfaces F(s, y) and its quadratic upper bound,
the centered ellipse bounding the positive-complexity region, and the
rescaled semicircle quantile.
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
    "thresholds_from_mixture", "theta", "F_sy", "ellipse",
    "classify_Einf_case", "semicircle_quantile",
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

    def boundary_points(self, n: int = 64) -> np.ndarray:
        """n points (s, y) on the zero level set of F-tilde."""
        Q = np.array([[self.a_ss, self.a_sy / 2], [self.a_sy / 2, self.a_yy]])
        evals, evecs = np.linalg.eigh(Q)
        semi = np.sqrt(self.constant / -evals)
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        pts = evecs @ (semi[:, None] * np.vstack([np.cos(th), np.sin(th)]))
        return pts.T


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


def theta(s: float) -> float:
    """Theta(s): zero inside |s| < sqrt(2), nonpositive outside."""
    a = abs(float(s))
    if not np.isfinite(a):
        raise ValidationError("s must be finite")
    if a <= SQRT2:
        return 0.0
    root = np.sqrt(a * a - 2.0)
    return float(-a * root / 2.0 + np.log((a + root) / SQRT2))


def F_sy(th: ScalarThresholds, s: float, y: float, tilde: bool = False) -> float:
    """Complexity surface F(s, y), or the quadratic bound F-tilde.

    In the pure case the squared-deviation term follows the explicit
    -0/0 = 0 and -x/0 = -inf convention on the constraint line
    s = y xi'/sqrt(2 xi'').
    """
    s, y = float(s), float(y)
    if not np.isfinite([s, y]).all():
        raise ValidationError("s and y must be finite")
    dev = s - y * th.xi_prime / np.sqrt(2 * th.xi_dprime)
    if _is_pure(th):
        if abs(dev) > 1e-9:
            return float("-inf")
        penalty = 0.0
    else:
        penalty = 2 * th.xi_dprime / th.alpha_sq * dev * dev
    base = np.log(th.xi_dprime / th.xi_prime) + s * s - y * y - penalty
    if not tilde:
        base += theta(s)
    return float(base / 2.0)


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


def _semicircle_cdf_tail(s: float) -> float:
    # (1/pi) * integral of sqrt(2 - x^2) over [-sqrt2, -s]
    s = min(max(s, -SQRT2), SQRT2)
    return float((np.pi / 2 - s * np.sqrt(2 - s * s) / 2
                  - np.arcsin(s / SQRT2)) / np.pi)


def semicircle_quantile(gamma: float) -> float:
    """s in (-sqrt2, sqrt2) with mass gamma below -s, by bisection."""
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValidationError("gamma must lie in (0, 1)")
    lo, hi = -SQRT2, SQRT2
    # tail mass decreases in s
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _semicircle_cdf_tail(mid) > gamma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
