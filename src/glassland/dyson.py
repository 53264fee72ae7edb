"""Vector Dyson equation solver and limiting spectral measures.

The central object is the coupled fixed-point system

    1 + (z + x_s/sqrt(lambda_s) + sum_t xi''_{s,t} m_t / lambda_s) m_s = 0

on the closed upper half-plane.  For Im z > 0 it has a unique root with
Im m >= 0, so each solve runs guarded Newton rounds first; only rows
where Newton stalls, and a real z (reached from a warm start), take the
slower path of damped half-plane sweeps before Newton.  Boundary values u(v)
at z -> 0 are obtained by geometric eta-continuation with warm starts,
limiting spectral densities come from the imaginary parts, and boundary
points are classified by feasibility conditions on the stability
matrices and by multi-scale probes (edge vs cusp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateU, InconsistentProbes, MassDeficit,
                     NonConvergence, ValidationError, ZeroComponent)
from .mixture import MixtureStats, species_sizes

ETA_FLOOR = 1e-9
ETA_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
# 1/3-Hoelder allowance at the final continuation level
HOLDER_ALLOW = 10.0 * ETA_LADDER[-1] ** (1.0 / 3.0)
REAL_TOL = 1e-5
TAU_SUPP = 1e-4
# support endpoints: bisection steps, and steps settled per batched call
SUPPORT_BISECTIONS = 20
DYADIC_DEPTH = 4
SOLVER_TOL = 1e-12
MAX_SWEEPS = 100000

__all__ = [
    "DysonSolution", "SpectralMeasure", "StabilityMatrices",
    "FeasibilityReport", "solve_dyson", "boundary_u", "spectral_measure",
    "psi", "stability_matrices", "feasibility", "classify_boundary_point",
    "sample_block_matrix",
]


@dataclass(frozen=True)
class DysonSolution:
    """One solved spectral parameter: m_s(z; x) with residual bookkeeping.

    iterations is the solver's work: damped sweeps plus Newton rounds.
    """

    z: complex
    x: np.ndarray
    m: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class SpectralMeasure:
    """Limiting spectral density on a grid, with detected support."""

    grid: np.ndarray
    density_s: np.ndarray
    density: np.ndarray
    support: tuple[tuple[float, float], ...]
    mass_s: np.ndarray


@dataclass(frozen=True)
class StabilityMatrices:
    M: np.ndarray
    Mbar: np.ndarray
    Mhat: np.ndarray


@dataclass(frozen=True)
class FeasibilityReport:
    case: str
    min_eig_Mbar: float
    Mbar_times_Im_u: np.ndarray
    min_eig_M_real: float | None


def _coupling(stats: MixtureStats) -> np.ndarray:
    # K[s, t] = xi''_{s,t} / lambda_s
    return stats.xi_dprime / stats.lam[:, None]


def _resid(m, shift, K, z):
    return np.abs(1.0 + (z + shift + m @ K.T) * m).max(axis=-1)


def _carried(live):
    # numpy multiplies a lone row through gemv, which rounds differently
    # from the gemm it uses for two or more rows; one settled row rides
    # along so a last straggler gets the bits it would get in the full batch
    keep = live.copy()
    if len(keep) > 1 and keep.sum() == 1:
        keep[np.argmin(keep)] = True
    return keep


def _damped_sweeps(m, shift, K, z, tol, sweeps):
    """Damped half-plane iteration; the step map preserves Im m >= 0.

    A step is taken only where it does not raise the residual, so a row's
    residual never increases and a row at or below tol is final.  Only
    the live rows are therefore carried through the sweeps; each row is
    written back to m and res when it leaves them.  The result, and the
    count of sweeps used, equal those of sweeping the whole batch.
    """
    res = _resid(m, shift, K, z)
    idx = np.flatnonzero(_carried(res > tol))
    ml, sl, rl = m[idx], shift[idx], res[idx]
    alpha = np.full(len(idx), 0.5)
    used = 0
    for _ in range(sweeps):
        live = rl > tol
        if not live.any():
            break
        keep = _carried(live)
        if not keep.all():
            m[idx[~keep]] = ml[~keep]
            res[idx[~keep]] = rl[~keep]
            idx, ml, sl, rl = idx[keep], ml[keep], sl[keep], rl[keep]
            alpha, live = alpha[keep], live[keep]
        used += 1
        step = -1.0 / (z + sl + ml @ K.T)
        cand = (1.0 - alpha[:, None]) * ml + alpha[:, None] * step
        np.maximum(cand.imag, 0.0, out=cand.imag)
        rc = _resid(cand, sl, K, z)
        better = live & (rc <= rl)
        worse = live & ~better
        ml[better] = cand[better]
        rl[better] = rc[better]
        alpha[better] = np.minimum(0.5, alpha[better] * 1.2)
        alpha[worse] = np.maximum(1e-3, alpha[worse] * 0.5)
    m[idx] = ml
    res[idx] = rl
    return m, res, used


def _newton_rounds(m, shift, K, z, tol, rounds):
    n, r = m.shape
    eye = np.eye(r)
    res = _resid(m, shift, K, z)
    used = 0
    for _ in range(rounds):
        live = res > tol
        if not live.any():
            break
        used += 1
        ml = m[live]
        sl = shift[live]
        rl = res[live]
        denom = z + sl + ml @ K.T
        F = 1.0 + denom * ml
        J = denom[:, :, None] * eye[None, :, :] + ml[:, :, None] * K[None, :, :]
        try:
            delta = np.linalg.solve(J, -F[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = np.stack([np.linalg.lstsq(J[i], -F[i], rcond=None)[0]
                              for i in range(len(J))])
        mnew = ml.copy()
        rnew = rl.copy()
        stepv = delta
        pending = np.ones(len(ml), dtype=bool)
        for _bt in range(10):
            if not pending.any():
                break
            idx = np.where(pending)[0]
            cand = ml[idx] + stepv[idx]
            if z.imag > 0:
                np.maximum(cand.imag, 0.0, out=cand.imag)
            rc = _resid(cand, sl[idx], K, z)
            ok = rc < rl[idx]
            mnew[idx[ok]] = cand[ok]
            rnew[idx[ok]] = rc[ok]
            pending[idx[ok]] = False
            stepv[idx[~ok]] = stepv[idx[~ok]] * 0.5
        m[live] = mnew
        res[live] = rnew
        if not (rnew < rl).any():
            break
    return m, res, used


def _solve_batch(shift, K, z, warm=None, tol=SOLVER_TOL, max_sweeps=MAX_SWEEPS):
    """Solve the system for a batch of per-point shifts at one z.

    For Im z > 0 the system has exactly one root with Im m >= 0
    (Ajanki-Erdos-Krueger), so guarded Newton clamped to the closed upper
    half-plane cannot settle on a wrong root and runs first.  It can stall
    on the boundary Im m_s = 0, far from the root, where no
    residual-lowering step exists; the rows it leaves above tol restart
    from their start value in _sweep_first.  On the real axis the
    uniqueness argument is gone and _sweep_first solves every row.
    Returns m and the work done, sweeps plus Newton rounds.
    """
    n, r = shift.shape
    if warm is not None:
        m0 = np.array(warm, dtype=complex).reshape(n, r).copy()
        if z.imag > 0:
            np.maximum(m0.imag, 0.0, out=m0.imag)
    else:
        m0 = np.full((n, r), 1j, dtype=complex)
    if z.imag == 0:
        return _sweep_first(m0, shift, K, z, tol, max_sweeps)
    m, res, work = _newton_rounds(m0.copy(), shift, K, z, tol, 40)
    stalled = res > tol
    if stalled.any():
        m[stalled], more = _sweep_first(m0[stalled], shift[stalled], K, z,
                                        tol, max_sweeps)
        work += more
    return m, work


def _sweep_first(m, shift, K, z, tol, max_sweeps):
    """Damped sweeps to 1e-6, then guarded Newton rounds and sweeps in turn.

    The sweeps bring each row near the root before the first Newton
    round.  Both phases accept a step only where it does not raise
    the residual, so a row's residual never increases: a row that reaches
    tol is final, and each phase works on the rows still above it.
    Raises NonConvergence when max_sweeps or 60 rounds of phases leave a
    row above tol.
    """
    m, res, sweeps = _damped_sweeps(m, shift, K, z, max(tol, 1e-6), 400)
    rounds = 0
    for _ in range(60):
        if res.max() <= tol:
            return m, sweeps + rounds
        m, res, used = _newton_rounds(m, shift, K, z, tol, 40)
        rounds += used
        if res.max() <= tol:
            return m, sweeps + rounds
        m, res, used = _damped_sweeps(m, shift, K, z, tol, 200)
        sweeps += used
        if sweeps > max_sweeps:
            break
    if res.max() > tol:
        raise NonConvergence(
            f"dyson solver stalled at residual {res.max():.3e} (z={z})")
    return m, sweeps + rounds


def _polish_real(shift_row, K, S, wgt, m_row):
    """Newton on the real z=0 system from Re(m_row).

    Returns the real root only when it converges, stays within the Hoelder
    allowance of the continued value, and its stability matrix
    diag(w/|u|^2) - S is positive semidefinite; those three conditions
    together certify that the true boundary value is real.
    """
    w = m_row.real.copy()
    if np.abs(w).min() < 1e-12:
        return None
    # aim well below the 1e-12 contract so double roots at band edges,
    # where Newton only converges linearly, still land close enough for
    # the stability gate downstream
    target = 5e-14
    for _ in range(200):
        denom = shift_row + K @ w
        F = 1.0 + denom * w
        base = np.abs(F).max()
        if base <= target:
            break
        J = np.diag(denom) + w[:, None] * K
        try:
            d = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(J, -F, rcond=None)[0]
        t = 1.0
        for _bt in range(30):
            cand = w + t * d
            if np.abs(1.0 + (shift_row + K @ cand) * cand).max() < base:
                w = cand
                break
            t *= 0.5
        else:
            break
    # multiplicity acceleration: at band edges (double roots) and cusps
    # (triple roots) plain Newton stalls at target**(1/mult), far too
    # coarse for eigenvalue gates downstream; stepping mult*delta lands
    # essentially on the root, and overshoots at simple roots are
    # rejected by the strict-descent test
    for _ in range(12):
        denom = shift_row + K @ w
        F = 1.0 + denom * w
        base = np.abs(F).max()
        if base == 0.0:
            break
        J = np.diag(denom) + w[:, None] * K
        try:
            d = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            break
        best = None
        for mult in (3.0, 2.0, 1.0):
            cand = w + mult * d
            rc = np.abs(1.0 + (shift_row + K @ cand) * cand).max()
            if rc < base and (best is None or rc < best[0]):
                best = (rc, cand)
        if best is None:
            break
        w = best[1]
    if np.abs(1.0 + (shift_row + K @ w) * w).max() > 1e-12:
        return None
    if np.abs(w - m_row).max() > HOLDER_ALLOW:
        return None
    Mb = np.diag(wgt / w ** 2) - S
    # genuine edge roots carry O(sqrt(residual)) eigenvalue error; spurious
    # branches sit at order-one negative eigenvalues
    if np.linalg.eigvalsh(Mb)[0] < -1e-5:
        return None
    return w


def _boundary_batch(shift, K, wgt, polish=True, holder_check=True):
    """eta-continuation down the ladder for a batch of shifts."""
    S = wgt[:, None] * K
    m_prev = None
    m = None
    for eta in ETA_LADDER:
        m, _ = _solve_batch(shift, K, 1j * eta, warm=m)
        if eta == ETA_LADDER[-2]:
            m_prev = m.copy()
    if holder_check:
        drift = np.abs(m - m_prev).max(axis=1)
        if (drift > HOLDER_ALLOW).any():
            raise NonConvergence(
                f"continuation unstable: level drift {drift.max():.3e} "
                f"exceeds {HOLDER_ALLOW:.3e}")
    if polish:
        near_real = m.imag.max(axis=1) <= HOLDER_ALLOW
        for i in np.where(near_real)[0]:
            root = _polish_real(shift[i], K, S, wgt, m[i])
            if root is not None:
                m[i] = root
    return m


def solve_dyson(stats: MixtureStats, x, z, warm=None) -> DysonSolution:
    """Solve the vector Dyson equation at one spectral parameter."""
    x = np.asarray(x, dtype=float)
    if x.shape != (stats.r,):
        raise ValidationError(f"x must have shape ({stats.r},)")
    z = complex(z)
    if z.imag < 0:
        raise ValidationError("z must lie in the closed upper half-plane")
    if z.imag < ETA_FLOOR and warm is None:
        raise ValidationError(
            f"Im z < {ETA_FLOOR} requires a warm start from a nearby point")
    shift = (x / np.sqrt(stats.lam))[None, :]
    K = _coupling(stats)
    w = None if warm is None else np.asarray(warm, dtype=complex)[None, :]
    m, iters = _solve_batch(shift, K, z, warm=w)
    res = float(_resid(m, shift, K, z)[0])
    return DysonSolution(z=z, x=x, m=m[0], residual=res, iterations=iters)


def boundary_u(stats: MixtureStats, v) -> np.ndarray:
    """Boundary value u(v) = lim m(i eta; Lambda^{-1/2} v) as eta drops to 0."""
    v = np.asarray(v, dtype=float)
    if v.shape != (stats.r,):
        raise ValidationError(f"v must have shape ({stats.r},)")
    if not np.all(np.isfinite(v)):
        raise ValidationError("v must be finite")
    shift = (v / stats.lam)[None, :]
    return _boundary_batch(shift, _coupling(stats), stats.lam)[0]


def _parse_grid_spec(grid_spec, C):
    if grid_spec is None:
        return -C, C, 2001
    if isinstance(grid_spec, int):
        return -C, C, grid_spec
    lo, hi, n = grid_spec
    return float(lo), float(hi), int(n)


def _grid_radius(stats, shift_d):
    return (np.abs(shift_d).max()
            + 2.0 * np.sqrt(stats.r * stats.xi_dprime.max() / stats.lam.min())
            + 1.0)


def spectral_measure(stats: MixtureStats, x, grid_spec=None,
                     sizes=None) -> SpectralMeasure:
    """Limiting spectral measure of the shifted Hessian at radial point x.

    With ``sizes`` (per-species block sizes N_s) the finite-size system is
    solved instead: coupling xi''_{s,t}(N_t - 1)/(N lambda_s lambda_t) and
    aggregation weights (N_s - 1)/(N - r).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (stats.r,):
        raise ValidationError(f"x must have shape ({stats.r},)")
    lam = stats.lam
    d = x / np.sqrt(lam)
    if sizes is None:
        K = _coupling(stats)
        wagg = lam
    else:
        sizes = np.asarray(sizes, dtype=int)
        if sizes.shape != (stats.r,) or np.any(sizes < 2):
            raise ValidationError("sizes must give every species at least 2")
        N = int(sizes.sum())
        K = stats.xi_dprime * (sizes - 1)[None, :] / (N * lam[:, None] * lam[None, :])
        wagg = (sizes - 1) / (N - stats.r)
    C = _grid_radius(stats, d)
    lo, hi, n = _parse_grid_spec(grid_spec, C)
    for _attempt in range(5):
        grid = np.linspace(lo, hi, n)
        shift = grid[:, None] + d[None, :]
        m = _boundary_batch(shift, K, wagg)
        dens_s = m.imag.T / np.pi
        mass_s = np.trapezoid(dens_s, grid, axis=1)
        if np.all(mass_s >= 1.0 - 1e-4):
            break
        pad = (hi - lo) / 2.0
        lo, hi = lo - pad, hi + pad
    else:
        raise MassDeficit(
            f"per-species masses {mass_s} below 1-1e-4 after grid expansion")
    agg = wagg @ dens_s

    def agg_density_at(g):
        rows = g[:, None] + d[None, :]
        mm = _boundary_batch(rows, K, wagg, polish=False, holder_check=False)
        return mm.imag @ wagg / np.pi

    support = _detect_support(grid, agg, agg_density_at)
    return SpectralMeasure(grid=grid, density_s=dens_s, density=agg,
                           support=support, mass_s=mass_s)


def _detect_support(grid, agg, density_at):
    """Threshold runs at TAU_SUPP, merge narrow gaps, refine the endpoints.

    An endpoint inside the grid is refined by SUPPORT_BISECTIONS steps of
    bisection on density_at > TAU_SUPP, all endpoints at once: density_at
    takes an array of abscissae and returns their densities.  Each call
    evaluates every bracket's 2**DYADIC_DEPTH - 1 interior dyadic points,
    built as nested midpoints exactly as bisection computes them, and
    DYADIC_DEPTH bisection steps are replayed from those values.  The
    endpoints equal those of one-point bisection, with
    SUPPORT_BISECTIONS / DYADIC_DEPTH calls in all instead of
    SUPPORT_BISECTIONS per endpoint.
    """
    mask = agg > TAU_SUPP
    runs = []
    i = 0
    n = len(grid)
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            runs.append([i, j])
            i = j + 1
        else:
            i += 1
    merged = []
    for run in runs:
        if merged and run[0] - merged[-1][1] - 1 <= 1:
            merged[-1][1] = run[1]
        else:
            merged.append(run)

    support = [[grid[i0], grid[i1]] for i0, i1 in merged]
    ends, g_out, g_in = [], [], []
    for k, (i0, i1) in enumerate(merged):
        if i0 > 0:
            ends.append((k, 0))
            g_out.append(grid[i0 - 1])
            g_in.append(grid[i0])
        if i1 < n - 1:
            ends.append((k, 1))
            g_out.append(grid[i1 + 1])
            g_in.append(grid[i1])
    if ends:
        found = _bisect_brackets(np.array(g_out), np.array(g_in), density_at)
        for (k, side), g in zip(ends, found):
            support[k][side] = g
    return tuple((float(lo), float(hi)) for lo, hi in support)


def _bisect_brackets(g_out, g_in, density_at):
    """Midpoints of the brackets after SUPPORT_BISECTIONS bisection steps.

    The density crosses TAU_SUPP between g_out (outside the support) and
    g_in (inside); all brackets advance DYADIC_DEPTH steps per call.
    """
    span = 2 ** DYADIC_DEPTH
    rows = np.arange(len(g_out))
    for _ in range(SUPPORT_BISECTIONS // DYADIC_DEPTH):
        pts = np.empty((len(g_out), span + 1))
        pts[:, 0], pts[:, span] = g_out, g_in
        h = span // 2
        while h:
            pts[:, h::2 * h] = 0.5 * (pts[:, :-h:2 * h] + pts[:, 2 * h::2 * h])
            h //= 2
        inner = pts[:, 1:span]
        above = (density_at(inner.ravel()) > TAU_SUPP).reshape(inner.shape)
        i_out = np.zeros(len(g_out), dtype=int)
        i_in = np.full(len(g_out), span)
        for _ in range(DYADIC_DEPTH):
            mid = (i_out + i_in) // 2
            hit = above[rows, mid - 1]
            i_in = np.where(hit, mid, i_in)
            i_out = np.where(hit, i_out, mid)
        g_out, g_in = pts[rows, i_out], pts[rows, i_in]
    return 0.5 * (g_out + g_in)


def psi(stats: MixtureStats, x, mode: str = "closed_form") -> float:
    """Log-potential Psi(x) of the limiting measure.

    closed_form evaluates psi_of_u at the boundary value u; quadrature
    integrates log|gamma| against the measure with the 0-singularity
    handled by a piecewise-linear-density analytic integral.
    """
    x = np.asarray(x, dtype=float)
    if mode == "closed_form":
        u = boundary_u(stats, np.sqrt(stats.lam) * x)
        if np.abs(u).min() < 1e-8:
            raise DegenerateU("some |u_s| < 1e-8; log|u_s| is unstable")
        return psi_of_u(stats, u)
    if mode == "quadrature":
        meas = spectral_measure(stats, x)
        return _log_integral(meas.grid, meas.density)
    raise ValidationError(f"unknown psi mode {mode!r}")


def psi_of_u(stats: MixtureStats, u) -> float:
    """(1/2) Re <u, xi'' u> - sum_s lambda_s log|u_s|, the closed form of Psi.

    The pairing is bilinear (unconjugated).
    """
    quad = 0.5 * np.real(u @ stats.xi_dprime @ u)
    return float(quad - stats.lam @ np.log(np.abs(u)))


def _log_integral(grid, density):
    # antiderivatives of log|t| and t log|t|, both continuous through 0
    def A0(t):
        return np.where(t == 0.0, 0.0, t * (np.log(np.abs(np.where(t == 0, 1.0, t))) - 1.0))

    def A1(t):
        return np.where(t == 0.0, 0.0,
                        0.5 * t * t * np.log(np.abs(np.where(t == 0, 1.0, t))) - 0.25 * t * t)

    g0, g1 = grid[:-1], grid[1:]
    r0, r1 = density[:-1], density[1:]
    c1 = (r1 - r0) / (g1 - g0)
    c0 = r0 - c1 * g0
    total = c0 * (A0(g1) - A0(g0)) + c1 * (A1(g1) - A1(g0))
    return float(total.sum())


def stability_matrices(stats: MixtureStats, u) -> StabilityMatrices:
    """M, Mbar, Mhat at a candidate boundary value u."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (stats.r,):
        raise ValidationError(f"u must have shape ({stats.r},)")
    if np.abs(u).min() < 1e-13:
        raise ZeroComponent("u has a vanishing component")
    lam = stats.lam
    M = np.diag(lam / u ** 2) - stats.xi_dprime.astype(complex)
    Mbar = np.diag(lam / np.abs(u) ** 2) - stats.xi_dprime
    Mhat = np.diag(lam / np.abs(u) ** 2) + stats.xi_dprime
    return StabilityMatrices(M=M, Mbar=Mbar, Mhat=Mhat)


def feasibility(stats: MixtureStats, u, tol: float = 1e-8) -> FeasibilityReport:
    """Classify u against the attainability conditions.

    boundary_real and boundary_imag are the two ways u can arise as the
    boundary value at a real v; interior means attainable from the open
    upper half-plane only; infeasible means not attainable at all.
    """
    u = np.asarray(u, dtype=complex)
    if np.any(u.imag < -tol):
        raise ValidationError("u must have nonnegative imaginary parts")
    mats = stability_matrices(stats, u)
    min_eig_mbar = float(np.linalg.eigvalsh(mats.Mbar)[0])
    mb_imu = mats.Mbar @ u.imag
    u_real = np.abs(u.imag).max() <= max(tol, REAL_TOL)
    min_eig_m_real = None
    if u_real:
        min_eig_m_real = float(np.linalg.eigvalsh(np.real(mats.M))[0])
        case = "boundary_real" if min_eig_m_real >= -tol else "infeasible"
    elif min_eig_mbar >= -tol and np.all(mb_imu >= -tol):
        all_open = np.all(u.imag > tol)
        if all_open and np.abs(mb_imu).max() <= tol * max(1.0, np.abs(u.imag).max()):
            case = "boundary_imag"
        else:
            case = "interior"
    else:
        case = "infeasible"
    return FeasibilityReport(case=case, min_eig_Mbar=min_eig_mbar,
                             Mbar_times_Im_u=mb_imu,
                             min_eig_M_real=min_eig_m_real)


def classify_boundary_point(stats: MixtureStats, x, chi, tol: float = 1e-6,
                            chi2=None) -> str:
    """Edge or cusp classification of the spectral point 0 at parameter x.

    Probes the boundary value at v + gamma*chi and v - gamma*chi over four
    scales.  Real on the plus side only means 0 sits at the right edge of
    the support; real on the minus side only, left edge; nonreal on both
    sides, a cusp where two bands pinch.  Mixed verdicts across scales
    raise InconsistentProbes, as does disagreement with a second chi.
    """
    x = np.asarray(x, dtype=float)
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (stats.r,) or np.any(chi <= 0):
        raise ValidationError("chi must be a positive r-vector")
    if abs(chi.sum() - 1.0) > 1e-9:
        raise ValidationError("chi must be normalized to unit 1-norm")
    v = np.sqrt(stats.lam) * x
    u0 = boundary_u(stats, v)
    if np.abs(u0.imag).max() > REAL_TOL:
        return "nonsingular"
    m_eigs = np.linalg.eigvals(np.diag(stats.lam / u0.real ** 2)
                               - stats.xi_dprime)
    if np.abs(m_eigs).min() > tol:
        return "nonsingular"
    gamma0 = 1e-2
    scales = [gamma0 / 8, gamma0 / 4, gamma0 / 2, gamma0]
    plus_real = [np.abs(boundary_u(stats, v + g * chi).imag).max() <= REAL_TOL
                 for g in scales]
    minus_real = [np.abs(boundary_u(stats, v - g * chi).imag).max() <= REAL_TOL
                  for g in scales]
    if all(plus_real) and not any(minus_real):
        verdict = "right_edge"
    elif all(minus_real) and not any(plus_real):
        verdict = "left_edge"
    elif not any(plus_real) and not any(minus_real):
        verdict = "cusp"
    else:
        raise InconsistentProbes(
            f"probe realness plus={plus_real} minus={minus_real}")
    if chi2 is not None:
        other = classify_boundary_point(stats, x, chi2, tol=tol)
        if other != verdict:
            raise InconsistentProbes(
                f"chi-dependent classification: {verdict} vs {other}")
    return verdict


def sample_block_matrix(stats: MixtureStats, x, N: int, seed) -> np.ndarray:
    """Gaussian block matrix distributed as the shifted tangential Hessian.

    Entry variances (1+delta_ij) xi''_{s(i),s(j)}/(N lambda_s lambda_t) on
    tangent blocks of sizes N_s - 1, minus x_s/sqrt(lambda_s) on the
    species diagonal.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (stats.r,):
        raise ValidationError(f"x must have shape ({stats.r},)")
    if N < 10 * stats.r:
        raise ValidationError(f"need N >= {10 * stats.r}")
    lam = stats.lam
    sizes = species_sizes(lam, N)
    labels = np.repeat(np.arange(stats.r), sizes - 1)
    sig = np.sqrt(stats.xi_dprime / (N * lam[:, None] * lam[None, :]))
    scale = sig[np.ix_(labels, labels)]
    rng = np.random.default_rng(seed)
    Np = N - stats.r
    G = rng.standard_normal((Np, Np))
    W = (G + G.T) / np.sqrt(2.0) * scale
    W[np.arange(Np), np.arange(Np)] -= (x / np.sqrt(lam))[labels]
    return W
