"""Complexity functionals, their stationary points, and grid scans."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import dyson
from .errors import DegenerateVariance, NonConvergence, ValidationError
from .mixture import (MixtureStats, as_vector, ideal_radial,
                      require_positive_xi_prime)

DEDUP_TOL = 1e-6
# a tie within rounding (census maxima tie to 4.4e-16 on presets and survey);
# 1e-9 read sup F = 0 just inside the boundary, where it is 1.9e-10 to 7.5e-10
MAXIMALITY_TOL = 1e-12
# the stationarity residual the census tests hold every preset to
SUP_RESIDUAL_TOL = 1e-6
SCAN_POINTS = {1: 1201, 2: 301, 3: 61}
# target rows per balanced scan batch: 16384 slowed default scans 1.26-1.33x
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
    """is_global_max: F is within MAXIMALITY_TOL of the census maximum.
    residual: max |grad_v F| at v through an independent Dyson solve."""

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
    ainv_v = V @ np.linalg.inv(stats.A).T
    quad = np.einsum("ns,ns->n", V, ainv_v)
    values = _quad_const(stats) - 0.5 * quad + dyson.psi_of_u(stats, U)
    return values, -ainv_v - U.real


def F_point(stats: MixtureStats, x) -> ComplexityPoint:
    """Evaluate F(x) and its closed-form gradient."""
    x = as_vector(x, stats.r)
    require_positive_xi_prime(stats)
    v = np.sqrt(stats.lam) * x
    u = dyson.boundary_u(stats, v, log_safe=True)
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


def _census_b(stats: MixtureStats, imag_mask):
    """Solve the imaginary-part system of the stationary dichotomy.

    Unknown b = Im u, with b_s > 0 on the imag species I and b_s >= 0 on
    the pinned ones.  Imag rows read lambda_s / b_s = (xi'' b)_s, pinned
    rows xi'_s b_s = (xi'' b)_s; no row reads a plus/minus tag, so the
    patterns of one imag_mask share b.  None: no admissible root, or
    Newton failed.

    xi'' >= 0.  Pinned species with no chain of xi'' > 0 couplings to I
    decouple at b = 0; the rest, R, read M b_R = xi''_RI b_I with the
    symmetric Z-matrix M = diag(xi'_R) - xi''_RR.  A root has b_R > 0 along
    the chains, and a Z-matrix mapping a positive vector to a nonnegative
    one whose zero rows chain to a positive row is a nonsingular M-matrix
    (Berman-Plemmons, ch. 6).  So M not positive definite leaves no root;
    otherwise b_R = P b_I with P = M^-1 xi''_RI >= 0, and the imag rows
    read lambda_I / b_I = Q b_I with Q = xi''_II + xi''_IR P >= 0, rootless
    when a row of Q is 0.  In y = log b_I that is the gradient of the
    convex (1/2) sum Q_st e^(y_s + y_t) - lambda.y.  Newton starts at
    b_I^2 rowsum(Q) = lambda_I and halves each step, first cut to move no
    y_s by more than 1, until max|gradient| falls; a root takes at most 12
    of its 40 steps on surveyed mixtures.
    """
    lam, xp, xpp = stats.lam, stats.xi_prime, stats.xi_dprime
    b = np.zeros(stats.r)
    if not imag_mask.any():
        return b
    reach = imag_mask
    for _ in range(stats.r):
        reach = reach | (xpp[:, reach] > 0).any(axis=1)
    imag, rest = np.flatnonzero(imag_mask), np.flatnonzero(reach & ~imag_mask)
    Q = xpp[np.ix_(imag, imag)]
    if rest.size:
        M = np.diag(xp[rest]) - xpp[np.ix_(rest, rest)]
        if np.linalg.eigvalsh(M)[0] <= 0:
            return None
        P = np.linalg.solve(M, xpp[np.ix_(rest, imag)])
        Q = Q + xpp[np.ix_(imag, rest)] @ P
    if not (Q.sum(axis=1) > 0).all():
        return None
    lam_i = lam[imag]
    bi = np.sqrt(lam_i / Q.sum(axis=1))
    for _ in range(40):
        qb = Q @ bi
        if np.abs(lam_i / bi - qb).max() <= 1e-12:
            b[imag] = bi
            if rest.size:
                b[rest] = P @ bi
            return b
        g = bi * qb - lam_i
        try:
            step = np.linalg.solve(bi[:, None] * Q * bi + np.diag(bi * qb), -g)
        except np.linalg.LinAlgError:
            return None
        t = min(1.0, 1.0 / np.abs(step).max())
        for _ in range(60):
            bn = bi * np.exp(t * step)
            if np.abs(bn * (Q @ bn) - lam_i).max() < np.abs(g).max():
                bi = bn
                break
            t *= 0.5
        else:
            return None
    return None


def find_stationary_points(stats: MixtureStats) -> list[StationaryPoint]:
    """Enumerate stationary points of F by the per-species dichotomy.

    Each of the 3^r patterns fixes, per species, either the sign of Re(u_s)
    with |u_s| pinned at sqrt(lambda_s/xi'_s), or Re(u_s) = 0.  The real
    part of the stationarity identity then holds automatically and only
    Im v(u) = 0 is solved, once per imag mask (it reads no sign).  Patterns
    violating the modulus cap, or attainability by one stacked feasibility
    call, are dropped without error, as is a v within DEDUP_TOL of one kept.
    The global maxima come first in tuple(v) order, as they may tie to
    within rounding (all 2^r ideal points of the trivial regime), then the
    rest by decreasing F, ties by tuple(v).

    Each point's residual is |grad_v F| at the polished Dyson boundary
    value u(v), an independent check.  The census decides per row: a row
    whose z = 0 certificate fails keeps its continued value at z = i ETA,
    the point stays listed, and its residual reports the failure; sup_F
    raises only when its maximiser fails.
    """
    if stats.r > 6:
        raise ValidationError("stationary enumeration supports r <= 6")
    require_positive_xi_prime(stats)
    rho = np.sqrt(stats.lam / stats.xi_prime)
    solved = [_census_b(stats, np.array(m))
              for m in product((False, True), repeat=stats.r)]
    # each pattern as tag codes (0, 1, 2 for plus, minus, imag) and the b
    # of its imag mask, at the mask's binary index in product order
    codes = np.array(list(product(range(3), repeat=stats.r)))
    key = (codes == 2) @ 2 ** np.arange(stats.r)[::-1]
    found = np.array([b is not None for b in solved])[key]
    B = np.array([np.zeros_like(rho) if b is None else b for b in solved])[key]
    sign = codes < 2
    cand = np.flatnonzero(found & ~np.any(sign & (rho - B <= 1e-9), axis=1))
    if not cand.size:
        return []
    B, sign = B[cand], sign[cand]
    re = np.array([-1.0, 1.0, 0.0])[codes[cand]] * np.sqrt(
        np.where(sign, rho ** 2 - B ** 2, 0.0))
    U, V = re + 1j * B, (-stats.A @ re[:, :, None])[:, :, 0]
    kept = []
    for i in np.flatnonzero(dyson.feasibility(stats, U).case != "infeasible"):
        if not (np.abs(V[kept] - V[i]).max(axis=1) <= DEDUP_TOL).any():
            kept.append(i)
    if not kept:
        return []
    U, V = U[kept], V[kept]
    patterns = list(product(("plus", "minus", "imag"), repeat=stats.r))
    # independent stationarity residual through the Dyson solve
    _, grad = _F_rows(stats, V, dyson.boundary_values(stats, V))
    values = _F_rows(stats, V, U)[0]
    top = values >= values.max() - MAXIMALITY_TOL
    points = [
        StationaryPoint(v=V[i], pattern=patterns[k], F=float(values[i]),
                        is_global_max=bool(top[i]),
                        residual=float(np.abs(grad[i]).max()))
        for i, k in enumerate(cand[kept])
    ]
    points.sort(key=lambda p: (0, tuple(p.v)) if p.is_global_max
                else (1, -p.F, tuple(p.v)))
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
    per-species dichotomy, with no ascent or polish.  sup_F returns the
    first census point, of those within MAXIMALITY_TOL of the largest F
    the least in tuple(v) order, and its F.  The census caps r at 6
    (ValidationError).
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
    """F and the nonreal mask on a tensor-product x-grid, in balanced batches.

    H has the law of -H, so F and the mask are even.  When lo == -hi the
    axis is made odd and only the first ceil(n^r / 2) flat rows are solved:
    reversing every axis reverses the flat index, so the rest mirror them.
    The h solved rows split into max(1, round(h / SCAN_CHUNK)) batches.
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
    for sl in np.array_split(np.arange(h), max(1, round(h / SCAN_CHUNK))):
        u = dyson.boundary_values(stats, V[sl], polish=False)
        values[sl] = _F_rows(stats, V[sl], u)[0]
        mask[sl] = u.imag.max(axis=1) > dyson.REAL_TOL
    values[h:] = values[:values.size - h][::-1]
    mask[h:] = mask[:values.size - h][::-1]
    shape = (n,) * stats.r
    return ScanResult(grid=axes, F_values=values.reshape(shape),
                      boundary_mask=mask.reshape(shape))
