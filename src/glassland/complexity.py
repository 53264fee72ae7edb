"""Complexity functionals, their stationary points, and grid scans."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import dyson
from .errors import DegenerateU, DegenerateVariance, NonConvergence, ValidationError
from .mixture import MixtureStats, as_vector, ideal_radial

DEDUP_TOL = 1e-6
MAXIMALITY_TOL = 1e-9
# the stationarity residual the census tests hold every preset to
SUP_RESIDUAL_TOL = 1e-6
SCAN_POINTS = {1: 1201, 2: 301, 3: 61}
# rows per boundary_values call in scan
SCAN_CHUNK = 4096


@dataclass(frozen=True)
class ComplexityPoint:
    """F, its gradient, and the boundary value u at one point x."""

    x: np.ndarray
    v: np.ndarray
    F: float
    gradF: np.ndarray
    gradF_x: np.ndarray
    u: np.ndarray
    u_real: bool


@dataclass(frozen=True)
class StationaryPoint:
    v: np.ndarray
    pattern: tuple[str, ...]
    F: float
    is_global_max: bool
    residual: float


@dataclass(frozen=True)
class ScanResult:
    """Tensor-product grid scan of F with the nonreal-region mask.

    H has the law of -H, so F is even: on a grid with lo == -hi only the
    first ceil(n^r / 2) flat rows are solved, the rest mirror them.
    """

    grid: list
    F_values: np.ndarray
    boundary_mask: np.ndarray

    def to_csv(self, path) -> None:
        r = len(self.grid)
        mesh = np.meshgrid(*self.grid, indexing="ij")
        cols = [m.ravel() for m in mesh]
        cols.append(self.F_values.ravel())
        cols.append(self.boundary_mask.ravel().astype(float))
        data = np.column_stack(cols)
        header = ",".join([f"x_{s + 1}" for s in range(r)] + ["F", "nonreal"])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt=["%.10g"] * (r + 1) + ["%d"])


def _require_positive_xi_prime(stats: MixtureStats) -> None:
    if np.any(stats.xi_prime <= 0):
        raise ValidationError("complexity functionals require xi'_s > 0 "
                              "for every species")


def _quad_const(stats: MixtureStats) -> float:
    return 0.5 * (1.0 - float(stats.lam @ np.log(stats.xi_species)))


def _r_auto(stats: MixtureStats) -> float:
    # beyond this radius the quadratic term dominates the log growth of Psi;
    # the radial derivative is that of the all-plus ideal point
    return 2.0 * float(np.max(ideal_radial(stats, np.ones(stats.r)))) + 4.0


def _F_rows(stats: MixtureStats, V, U):
    """F and its gradient in v at the rows v of V with boundary values U.

    F(v) = C - (1/2) v^T A^{-1} v + Psi(u(v)) and grad_v F = -A^{-1} v - Re u.
    """
    ainv_v = np.linalg.solve(stats.A, V.T).T
    quad = (V[:, None, :] @ ainv_v[:, :, None])[:, 0, 0]
    values = _quad_const(stats) - 0.5 * quad + dyson.psi_of_u(stats, U)
    return values, -ainv_v - U.real


def F_point(stats: MixtureStats, x) -> ComplexityPoint:
    """Evaluate F(x) and its closed-form gradient."""
    x = as_vector(x, stats.r)
    _require_positive_xi_prime(stats)
    v = np.sqrt(stats.lam) * x
    u = dyson.boundary_u(stats, v)
    if np.abs(u).min() < 1e-8:
        raise DegenerateU("some |u_s| < 1e-8; log|u_s| is unstable")
    values, grads = _F_rows(stats, v[None, :], u[None, :])
    return ComplexityPoint(
        x=x, v=v, F=float(values[0]),
        gradF=grads[0], gradF_x=np.sqrt(stats.lam) * grads[0],
        u=u, u_real=bool(np.abs(u.imag).max() <= dyson.REAL_TOL),
    )


def F_extended(stats: MixtureStats, x, E: float) -> float:
    """F(x, E): F(x) minus the Gaussian-conditioning penalty in the energy."""
    if not np.isfinite(E):
        raise ValidationError("E must be finite")
    ainv_xi = np.linalg.solve(stats.A, stats.xi_prime)
    variance = stats.xi_one - float(stats.xi_prime @ ainv_xi)
    if variance <= 1e-12:
        raise DegenerateVariance(
            f"conditional energy variance {variance:.3e} <= 1e-12")
    point = F_point(stats, x)
    return point.F - (float(E) - float(ainv_xi @ point.v)) ** 2 / (2.0 * variance)


def _census_b(stats: MixtureStats, imag_mask, target=1e-12, max_iter=200):
    """Solve the imaginary-part system of the stationary dichotomy.

    Unknown b = Im u.  Species outside imag_mask carry a pinned modulus,
    so their rows read xi'_s b_s - (xi'' b)_s; imag species contribute
    lambda_s / b_s - (xi'' b)_s.  Returns None when Newton fails, and
    without Newton when the pattern provably has no admissible root
    (b_s > 0 on imag species, b_s >= 0 on the others).  Neither reads the
    plus/minus tags: every pattern with this imag_mask shares one b.

    The proof: the pinned species S have rows M b_S = xi''_SI b_I, with
    M = diag(xi'_S) - xi''_SS.  xi'' is entrywise nonnegative for every
    mixture, so M is a Z-matrix, and when every species in S couples to an
    imag one the right side is positive.  A Z-matrix that maps some
    b_S >= 0 to a positive vector is a nonsingular M-matrix, for symmetric
    M positive definite; so an eigenvalue <= 0 of M leaves no root, and
    Newton would only creep along a fold of g until its iterations ran out.
    """
    lam, xp, xpp = stats.lam, stats.xi_prime, stats.xi_dprime
    b = np.zeros(stats.r)
    if not imag_mask.any():
        return b
    sign = ~imag_mask
    coupled = (xpp[np.ix_(sign, imag_mask)] > 0).any(axis=1)
    if sign.any() and coupled.all() and np.all(xpp >= 0):
        M = np.diag(xp[sign]) - xpp[np.ix_(sign, sign)]
        if np.linalg.eigvalsh(M)[0] <= 0:
            return None
    diag_pp = np.diag(xpp)
    seed = np.where(diag_pp > 0, diag_pp, xp)
    b[imag_mask] = np.sqrt(lam[imag_mask] / seed[imag_mask])

    def residual(bv):
        g = xp * bv - xpp @ bv
        g[imag_mask] = (lam[imag_mask] / bv[imag_mask]
                        - (xpp @ bv)[imag_mask])
        return g

    g = residual(b)
    for _ in range(max_iter):
        if np.abs(g).max() <= target:
            return b
        jac = np.diag(xp) - xpp
        for s in np.where(imag_mask)[0]:
            jac[s] = -xpp[s]
            jac[s, s] -= lam[s] / b[s] ** 2
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -g, rcond=None)[0]
        t, advanced = 1.0, False
        for _ in range(60):
            bn = b + t * step
            if np.all(bn[imag_mask] > 1e-12) and np.all(bn[~imag_mask] >= 0):
                gn = residual(bn)
                if np.abs(gn).max() < np.abs(g).max():
                    b, g, advanced = bn, gn, True
                    break
            t *= 0.5
        if not advanced:
            return None
    return b if np.abs(residual(b)).max() <= target else None


def find_stationary_points(stats: MixtureStats) -> list[StationaryPoint]:
    """Enumerate stationary points of F by the per-species dichotomy.

    Each of the 3^r patterns fixes, per species, either the sign of Re(u_s)
    with |u_s| pinned at sqrt(lambda_s/xi'_s), or Re(u_s) = 0.  The real
    part of the stationarity identity then holds automatically and only
    Im v(u) = 0 is solved, once per imag mask (it reads no sign).  Patterns
    violating the modulus cap or attainability are dropped without error.
    """
    if stats.r > 6:
        raise ValidationError("stationary enumeration supports r <= 6")
    _require_positive_xi_prime(stats)
    rho = np.sqrt(stats.lam / stats.xi_prime)
    masks = product((False, True), repeat=stats.r)
    solved = {m: _census_b(stats, np.array(m)) for m in masks}
    raw = []
    for pattern in product(("plus", "minus", "imag"), repeat=stats.r):
        tags = np.array(pattern)
        imag_mask = tags == "imag"
        b = solved[tuple(imag_mask)]
        if b is None:
            continue
        sign_mask = ~imag_mask
        if np.any(rho[sign_mask] - b[sign_mask] <= 1e-9):
            continue
        re = np.zeros(stats.r)
        sgn = np.where(tags == "plus", -1.0, 1.0)
        re[sign_mask] = sgn[sign_mask] * np.sqrt(
            rho[sign_mask] ** 2 - b[sign_mask] ** 2)
        u = re + 1j * b
        if dyson.feasibility(stats, u).case == "infeasible":
            continue
        raw.append((pattern, u, -stats.A @ re))
    kept = []
    for pattern, u, v in raw:
        if any(np.abs(v - other[2]).max() <= DEDUP_TOL for other in kept):
            continue
        kept.append((pattern, u, v))
    if not kept:
        return []
    V = np.array([v for _, _, v in kept])
    # independent stationarity residual through the Dyson solve
    _, grad = _F_rows(stats, V, dyson.boundary_values(stats, V))
    # one row at a time: the maxima tie to within rounding, and the last
    # bits of F pick sup_F's maximiser through the sort below
    values = [float(_F_rows(stats, v[None, :], u[None, :])[0][0])
              for _, u, v in kept]
    fmax = max(values)
    points = [
        StationaryPoint(v=v, pattern=pattern, F=value,
                        is_global_max=value >= fmax - MAXIMALITY_TOL,
                        residual=float(np.abs(grad[i]).max()))
        for i, ((pattern, _, v), value) in enumerate(zip(kept, values))
    ]
    points.sort(key=lambda p: (-p.F, tuple(p.v)))
    return points


def fd_hessian(stats: MixtureStats, x, h: float = 1e-4) -> np.ndarray:
    """Finite-difference Hessian of F in x-coordinates."""
    x = np.asarray(x, dtype=float)
    r = x.shape[0]
    hess = np.zeros((r, r))
    for j in range(r):
        e = np.zeros(r)
        e[j] = h
        gp = F_point(stats, x + e).gradF_x
        gm = F_point(stats, x - e).gradF_x
        hess[:, j] = (gp - gm) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def sup_F(stats: MixtureStats, multistart: int = 32):
    """sup F over all of R^r and a maximiser x, read off the stationary census.

    F -> -inf as |x| grows, so sup F is attained at a stationary point, and
    find_stationary_points gives every one in closed form through the
    per-species dichotomy: the largest census value is sup F, with no
    ascent or polish.  The census caps r at 6 (ValidationError).
    NonConvergence means an empty census, or a maximiser whose stationarity
    residual, checked independently through the Dyson solve, exceeds
    SUP_RESIDUAL_TOL.

    multistart is unused but must be >= 1; perfbench still passes it, and
    it goes away with the perfbench change that replaces its sup F check.
    """
    if multistart < 1:
        raise ValidationError("multistart must be at least 1")
    points = find_stationary_points(stats)
    if not points:
        raise NonConvergence("stationary census is empty")
    best = points[0]
    if best.residual > SUP_RESIDUAL_TOL:
        raise NonConvergence(
            f"census maximiser residual {best.residual:.3e} "
            f"> {SUP_RESIDUAL_TOL:.0e}")
    return best.F, best.v / np.sqrt(stats.lam)


def scan(stats: MixtureStats, grid_spec=None) -> ScanResult:
    """F and the nonreal mask on a tensor-product x-grid, by SCAN_CHUNK rows.

    H has the law of -H, so F and the mask are even.  When lo == -hi the
    axis is made odd and only the first ceil(n^r / 2) flat rows are solved:
    reversing every axis reverses the flat index, so the rest mirror them.
    """
    if stats.r > 3:
        raise ValidationError("tensor-grid scans support r <= 3")
    lo, hi, n = dyson.grid_range(
        SCAN_POINTS[stats.r] if grid_spec is None else grid_spec, _r_auto(stats))
    axis = np.linspace(lo, hi, n)
    if lo == -hi:
        axis = 0.5 * (axis - axis[::-1])
    axes = [axis.copy() for _ in range(stats.r)]
    mesh = np.meshgrid(*axes, indexing="ij")
    values = np.empty(n ** stats.r)
    mask = np.empty(values.size, dtype=bool)
    h = (values.size + 1) // 2 if lo == -hi else values.size
    V = np.sqrt(stats.lam) * np.stack([m.ravel()[:h] for m in mesh], axis=1)
    for start in range(0, h, SCAN_CHUNK):
        sl = slice(start, min(start + SCAN_CHUNK, h))
        u = dyson.boundary_values(stats, V[sl], polish=False)
        values[sl] = _F_rows(stats, V[sl], u)[0]
        mask[sl] = u.imag.max(axis=1) > dyson.REAL_TOL
    values[h:] = values[:values.size - h][::-1]
    mask[h:] = mask[:values.size - h][::-1]
    shape = (n,) * stats.r
    return ScanResult(grid=axes, F_values=values.reshape(shape),
                      boundary_mask=mask.reshape(shape))
