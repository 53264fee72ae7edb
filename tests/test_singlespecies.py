import numpy as np
import pytest

from glassland import singlespecies as ss
from glassland.errors import DegenerateCase, ValidationError
from glassland.presets import pure, single_species

MIXED = ss.thresholds(2.5, 4.0)  # xi(t) = t^2/2 + t^3/2


def test_thresholds_pure_models():
    for p in (3, 4):
        th = ss.thresholds(float(p), float(p * (p - 1)))
        ref = 2 * np.sqrt((p - 1) / p)
        assert abs(th.E_inf_minus - ref) < 1e-9
        assert abs(th.E_inf_plus - ref) < 1e-9
        assert th.alpha_sq == 0.0


def test_thresholds_mixed_cubic():
    assert abs(MIXED.alpha_sq - 0.25) < 1e-12
    assert MIXED.E_inf_minus < MIXED.E_inf_plus
    # both roots of F-tilde(sqrt2, .) = 0
    for e in (MIXED.E_inf_minus, MIXED.E_inf_plus):
        assert abs(ss.F_sy(MIXED, np.sqrt(2), e, tilde=True)) < 1e-8


def test_thresholds_validation():
    with pytest.raises(ValidationError):
        ss.thresholds(3.0, 2.0)
    with pytest.raises(ValidationError):
        ss.thresholds(0.0, 1.0)
    with pytest.raises(ValidationError):
        ss.thresholds(3.0, 3.0)  # alpha^2 < 0, impossible when normalized


def test_thresholds_at_alpha_zero_survive_rounding():
    # alpha^2 = xi'' + xi' - xi'^2 is 0 up to rounding here, and with it the
    # radicand, whose terms of size 4 xi'' xi'^2 ~ 5e5 cancel to -1.2e-10
    t = ss.thresholds(19.332333083270818, 354.40676935925654)
    assert t.alpha_sq == 0.0
    assert t.E_inf_minus == t.E_inf_plus


def test_thresholds_alpha_floor_is_relative():
    # alpha^2 computes to -1.8e-12 here, rounding of its terms of size
    # xi'^2 ~ 1e4, and must not be rejected as negative
    t = ss.thresholds(98.79497054682452, 9661.651234801098)
    assert t.alpha_sq == 0.0
    assert t.E_inf_minus <= t.E_inf_plus


# the radicand's terms cancel at the size 4 xi'' xi'^2, and its log carries an
# absolute error of an ulp, weighted by (xi'' + xi') alpha^2: rounding leaves
# it a few ulps of the sum of the two from its exact value.  1.6 M
# log-uniform samples, xi' in [1e-8, 1e4], reached -4.4e-16 of that sum
RADICAND_ULPS = 4 * np.finfo(float).eps


def test_threshold_radicand_is_nonnegative_on_the_domain():
    # alpha^2 xi' h(xi''/xi') with h(t) = 2 - 2t + (1 + t) log t >= 0, on a
    # dense grid of the domain xi'' >= xi' > 0, alpha^2 >= 0, edges included
    xp = np.geomspace(1e-3, 1e3, 241)[:, None]
    edge = np.maximum(xp, xp * xp - xp)  # xi'' = xi', or alpha^2 = 0
    xpp = edge * np.r_[1.0, np.geomspace(1.0 + 1e-9, 1e4, 400)]
    xp = np.broadcast_to(xp, xpp.shape)
    alpha_sq = np.maximum(xpp + xp - xp * xp, 0.0)
    rad = ss._radicand(xp, xpp, alpha_sq)
    scale = 4 * xpp * xp * xp
    assert np.all(rad >= -RADICAND_ULPS * (scale + (xpp + xp) * alpha_sq))
    assert np.all(rad[xpp == xp] == 0.0) and (xpp == xp).sum() > 100
    t = xpp / xp
    closed = alpha_sq * xp * (2 - 2 * t + (1 + t) * np.log(t))
    terms = scale + (xpp + xp) * (2 * (xpp - xp + xp * xp)
                                  + alpha_sq * np.log(t))
    assert np.all(np.abs(rad - closed) <= 1e-13 * terms)
    # thresholds takes the root of the clamped radicand, and never raises
    for a, b in zip(xp[::20, ::40].ravel(), xpp[::20, ::40].ravel()):
        th = ss.thresholds(a, b)
        assert th.E_inf_minus <= th.E_inf_plus


def test_thresholds_at_a_rounded_negative_radicand():
    # the radicand rounds to -2.3e-26, below -1e-12 of 4 xi'' xi'^2: the
    # exact one is about alpha^2 xi' (t - 1)^3 / 6 ~ 3e-46, so the
    # thresholds meet at sqrt(xi')
    th = ss.thresholds(1e-5, 1.0000000000020001e-05)
    assert ss._radicand(th.xi_prime, th.xi_dprime, th.alpha_sq) < 0.0
    assert th.E_inf_minus == th.E_inf_plus
    assert abs(th.E_inf_plus - np.sqrt(1e-5)) <= 1e-12 * np.sqrt(1e-5)


def test_thresholds_from_mixture():
    spec = single_species([0.0, np.sqrt(0.5), np.sqrt(0.5)])
    th = ss.thresholds_from_mixture(spec)
    assert abs(th.xi_prime - 2.5) < 1e-12
    assert abs(th.xi_dprime - 4.0) < 1e-12
    with pytest.raises(ValidationError):
        ss.thresholds_from_mixture(single_species([0.0, 1.0, 1.0]))  # xi(1) = 2
    with pytest.raises(ValidationError):
        ss.thresholds_from_mixture(
            single_species([np.sqrt(0.5), np.sqrt(0.5)]))  # external field


def test_theta_values():
    assert ss.theta(np.sqrt(2)) == 0.0
    assert ss.theta(0.0) == 0.0
    ref = -np.sqrt(2) + np.log(1 + np.sqrt(2))
    assert abs(ss.theta(2.0) - ref) < 1e-10
    assert abs(ss.theta(-2.0) - ref) < 1e-10


def test_theta_shape():
    grid = np.linspace(0, 5, 2001)
    vals = np.array([ss.theta(s) for s in grid])
    assert np.all(vals <= 0)
    assert np.all(np.diff(vals) <= 1e-12)
    # continuity at the indicator boundary
    assert abs(ss.theta(np.sqrt(2) + 1e-8)) < 1e-3
    assert np.allclose(vals, [ss.theta(-s) for s in grid])


def test_F_minus_Ftilde_is_theta():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = rng.uniform(-3, 3)
        y = rng.uniform(-3, 3)
        f = ss.F_sy(MIXED, s, y)
        ft = ss.F_sy(MIXED, s, y, tilde=True)
        assert f <= ft + 1e-15
        assert abs((f - ft) - ss.theta(s)) < 1e-12


def _abc_total_complexity(p, u):
    """Theta_p(u) for u <= 0: the pure p-spin total complexity.

    1/2 log(p-1) - (p-2)/(4(p-1)) u^2, less the large-deviation rate
    I_1(u) of the top GOE eigenvalue below -E_inf, where
    E_inf = 2 sqrt((p-1)/p) (Auffinger-Ben Arous-Cerny, CPAM 2013).
    """
    e_inf = 2.0 * np.sqrt((p - 1) / p)
    value = 0.5 * np.log(p - 1) - (p - 2) / (4.0 * (p - 1)) * u * u
    if u < -e_inf:
        root = np.sqrt(u * u - e_inf * e_inf)
        value -= (-u * root / e_inf ** 2 - np.log(-u + root)
                  + np.log(e_inf))
    return value


@pytest.mark.parametrize("p", [3, 4, 6])
def test_F_is_the_pure_p_spin_total_complexity(p):
    # xi' = p and xi'' = p(p-1): on F's constraint line y = |u| and
    # s = |u| sqrt(p / (2(p-1))), so that s = sqrt 2 at u = -E_inf
    th = ss.thresholds(float(p), float(p * (p - 1)))
    e_inf = 2.0 * np.sqrt((p - 1) / p)
    for ratio in (0.3, 0.8, 1.0, 1.05, 1.2, 1.5):
        u = -ratio * e_inf
        s = -u * np.sqrt(p / (2.0 * (p - 1)))
        assert abs(ss.F_sy(th, s, -u) - _abc_total_complexity(p, u)) <= 1e-12


def test_F_pure_conventions():
    th = ss.thresholds(3.0, 6.0)
    y = 1.2
    s_line = y * th.xi_prime / np.sqrt(2 * th.xi_dprime)
    on_line = ss.F_sy(th, s_line, y)
    assert np.isfinite(on_line)
    assert ss.F_sy(th, s_line + 0.1, y) == float("-inf")


def test_ellipse_geometry():
    ell = ss.ellipse(MIXED)
    assert ell.a_ss < 0 and ell.a_yy < 0
    assert ell.discriminant > 0
    ineq = (2 * MIXED.xi_dprime - MIXED.alpha_sq) * \
        (MIXED.xi_prime ** 2 + MIXED.alpha_sq)
    assert ineq > 2 * MIXED.xi_dprime * MIXED.xi_prime ** 2
    assert 0 <= ell.major_axis_angle <= np.pi / 2
    for s, y in ell.boundary_points(128):
        assert abs(ss.F_sy(MIXED, s, y, tilde=True)) < 1e-10


def test_ellipse_degenerate_pure():
    th = ss.thresholds(3.0, 6.0)
    with pytest.raises(DegenerateCase):
        ss.ellipse(th)
    with pytest.raises(DegenerateCase):
        ss.classify_Einf_case(th)


@pytest.mark.parametrize("xp", [1.75, 1.984453781512605, 1.5])
def test_ellipse_degenerate_at_equal_derivatives(xp):
    # xi'' = xi' zeroes the constant (1/2) log(xi''/xi'), so {F-tilde >= 0}
    # is the single point E_inf^- = E_inf^+ although alpha^2 > 0
    th = ss.thresholds(xp, xp)
    assert th.alpha_sq > 0 and th.E_inf_minus == th.E_inf_plus
    with pytest.raises(DegenerateCase):
        ss.ellipse(th)
    with pytest.raises(DegenerateCase):
        ss.classify_Einf_case(th)


def test_pure_floor_is_relative_in_F_and_ellipse():
    # alpha^2 = 0 up to rounding of terms of size xi'^2 ~ 9e3, computed as
    # +1.8e-12: F_sy and ellipse must both take the model as pure
    th = ss.thresholds(94.8435313515356, 8900.451907878181)
    assert 0.0 < th.alpha_sq < 1e-11
    y = 1.0
    s_line = y * th.xi_prime / np.sqrt(2 * th.xi_dprime)
    assert np.isfinite(ss.F_sy(th, s_line, y))
    assert ss.F_sy(th, s_line + 1e-3, y) == float("-inf")
    with pytest.raises(DegenerateCase):
        ss.ellipse(th)


def test_tangent_slope_at_Eminus_nonnegative():
    ell = ss.ellipse(MIXED)
    # slope at the left intersection is positive by the geometry lemma
    fs = 2 * ell.a_ss * np.sqrt(2) + ell.a_sy * MIXED.E_inf_minus
    fy = 2 * ell.a_yy * MIXED.E_inf_minus + ell.a_sy * np.sqrt(2)
    assert -fy / fs >= 0
    for xp, xpp in ((2.5, 4.0), (2.2, 2.8), (2.75, 5.0), (2.05, 2.2)):
        th = ss.thresholds(xp, xpp)
        e = ss.ellipse(th)
        fs = 2 * e.a_ss * np.sqrt(2) + e.a_sy * th.E_inf_minus
        fy = 2 * e.a_yy * th.E_inf_minus + e.a_sy * np.sqrt(2)
        assert -fy / fs >= -1e-12


def test_classify_is_deterministic():
    a = ss.classify_Einf_case(MIXED)
    b = ss.classify_Einf_case(ss.thresholds(2.5, 4.0))
    assert a == b
    assert a in ("edge_bound_holds", "requires_GS_comparison")


@pytest.mark.parametrize("gammas,slope,case", [
    # xi = 0.9 t^2 + 0.1 t^4: xi' = 2.2, xi'' = 3.0
    ([0.0, np.sqrt(0.9), 0.0, np.sqrt(0.1)], -8.527, "requires_GS_comparison"),
    # xi = 0.5 t^2 + 0.5 t^4: xi' = 3, xi'' = 7
    ([0.0, np.sqrt(0.5), 0.0, np.sqrt(0.5)], 3.334, "edge_bound_holds"),
], ids=["falling", "rising"])
def test_classify_follows_the_tangent_slope(gammas, slope, case):
    th = ss.thresholds_from_mixture(single_species(gammas))
    assert abs(ss.ellipse(th).tangent_slope_at_Eplus - slope) < 1e-3
    assert ss.classify_Einf_case(th) == case


def test_boundary_maximum_location():
    # F vanishes on the |s| <= sqrt2 part of the boundary and is negative
    # on the strictly outside part
    ell = ss.ellipse(MIXED)
    for s, y in ell.boundary_points(256):
        f = ss.F_sy(MIXED, s, y)
        if abs(s) <= np.sqrt(2):
            assert abs(f) < 1e-10
        else:
            assert f < 0


def test_semicircle_quantile():
    assert abs(ss.semicircle_quantile(0.5)) < 1e-9
    gamma_at_1 = (np.pi / 2 - 0.5 - np.arcsin(1 / np.sqrt(2))) / np.pi
    assert abs(ss.semicircle_quantile(gamma_at_1) - 1.0) < 1e-6
    assert ss.semicircle_quantile(1e-6) > 1.4
    assert ss.semicircle_quantile(1 - 1e-6) < -1.4
    qs = [ss.semicircle_quantile(g) for g in np.linspace(0.05, 0.95, 19)]
    assert np.all(np.diff(qs) < 0)
    with pytest.raises(ValidationError):
        ss.semicircle_quantile(0.0)
