"""Vector Dyson equation solver and limiting spectral measures.

The central object is the coupled fixed-point system

    1 + (z + x_s/sqrt(lambda_s) + sum_t xi''_{s,t} m_t / lambda_s) m_s = 0

on the closed upper half-plane.  For Im z > 0 it has a unique root with
Im m >= 0, so each solve runs guarded Newton rounds first, a cold one
from the root of the decoupled scalar system (every m_t set to m_s).  A
round carries only the rows still above SOLVER_TOL, with the denom of
their last residual, and solves each step on K + diag(denom/m), the
Jacobian with the row scaling diag(m) taken out: by Cramer's rule for
r <= 3, where only the diagonal varies by row, by LAPACK for larger r.
The solver keeps a batch species-major, as (r, n) arrays with one
contiguous length-n row per species: the residual reduces over the short
species axis, and the r <= 3 step is elementwise on rows, where an
(n, r) layout spent most of its time in numpy overhead.  Batches enter
and leave as (n, r) rows through _boundary_batch.  Only rows where
Newton stalls take a slower path: the same Newton continued in eta,
down from a level where the system contracts (_continue).  Boundary
values u(v) at z -> 0 come from one cold solve at z = i ETA, where
uniqueness makes a warm start unnecessary; a polished batch then
certifies each row at z = 0, by the real-root polish or by complex
Newton from the continued value.
Limiting spectral densities are the imaginary parts of continued values
at x + i ETA, uncertified: their O(ETA) bias moved masses and psi's
quadrature by at most 5.3e-8 on the presets, far under MASS_TOL.
Boundary points are classified by feasibility conditions on the
stability matrices and by multi-scale probes (edge vs cusp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateU, InconsistentProbes, MassDeficit,
                     NonConvergence, ValidationError, ZeroComponent)
from .mixture import MixtureStats, as_vector

ETA_FLOOR = 1e-9
# the one level of every boundary solve, each row cold at z = i ETA
ETA = 1e-7
# m is 1/3-Hoelder in z, so the continued value sits within this, times
# max(1, |m|), of the z = 0 root: the distance gate of a polished row's
# z = 0 certificate (see _near_continued)
HOLDER_ALLOW = 10.0 * ETA ** (1.0 / 3.0)
# a certified z = 0 root may have Im down to minus this, the rounding at a
# species whose Im u is 0: at most 8.5e-22 over 240 mixtures at r = 4-6
IMAG_ROUNDING = 1e-14
REAL_TOL = 1e-5
TAU_SUPP = 1e-4
# per-species mass of a spectral measure's grid quadrature
MASS_TOL = 1e-4
# support endpoints: bisection steps, and steps settled per batched call
SUPPORT_BISECTIONS = 20
DYADIC_DEPTH = 4
SOLVER_TOL = 1e-12
# a z = 0 certificate's residual: what the census tests hold every preset's
# points to; the polish aims below it, at 5e-14 real and 1e-14 complex
CERTIFICATE_TOL = 1e-12
# feasibility's slack: at a census point Mbar Im u is _census_b's residual
FEASIBILITY_TOL = 1e-8
# an edge root at residual 1e-12 has O(1e-6) stability eigenvalue error
SINGULAR_M_TOL = 1e-6

__all__ = [
    "DysonSolution", "SpectralMeasure", "StabilityMatrices",
    "FeasibilityReport", "solve_dyson", "boundary_values", "boundary_u",
    "spectral_measure", "psi", "psi_of_u", "stability_matrices",
    "feasibility", "classify_boundary_point",
]


@dataclass(frozen=True)
class DysonSolution:
    """One solved spectral parameter: m_s(z; x) with residual bookkeeping.

    iterations is the solver's work: Newton rounds.
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
    case: str | np.ndarray
    min_eig_Mbar: float | np.ndarray
    Mbar_times_Im_u: np.ndarray
    min_eig_M_real: float | np.ndarray | None


def _coupling(stats: MixtureStats) -> np.ndarray:
    # K[s, t] = xi''_{s,t} / lambda_s
    return stats.xi_dprime / stats.lam[:, None]


def _resid(m, shift, K, z):
    return _resid_denom(m, shift, K, z)[0]


def _resid_denom(m, shift, K, z):
    denom = z + shift + K @ m
    return np.abs(1.0 + denom * m).max(axis=0), denom


def _newton_rounds(m, shift, K, z, tol=SOLVER_TOL, rounds=40, halvings=10):
    """Guarded Newton rounds, at most rounds, on the rows above tol.

    Each round takes _newton_step's step d, the least-squares one where that
    has none, and then the first of up to halvings halvings of d that lowers
    the residual, clamped to Im m >= 0 when Im z > 0.  A row's residual
    never increases, so only the rows above tol are carried, with the denom
    of their last residual, until they leave for m and res; a full step that
    every row accepts is taken whole.  A row whose line search fails stays
    carried and fails again, since its step is the same.  The rounds stop
    when no carried row improves.  Returns m, res and the rounds used.
    """
    res, denom = _resid_denom(m, shift, K, z)
    idx = np.flatnonzero(res > tol)
    ml, sl, dl, rl = (a.take(idx, -1) for a in (m, shift, denom, res))
    used = 0
    while idx.size and used < rounds:
        used += 1
        d = _newton_step(ml, dl, K, lstsq=True)
        # the full step on the carried arrays, halvings on the rows it failed
        cand, sp, rp, pend = ml + d, sl, rl, None
        for _bt in range(halvings):
            if z.imag > 0:
                np.maximum(cand.imag, 0.0, out=cand.imag)
            rc, dc = _resid_denom(cand, sp, K, z)
            ok = rc < rp
            if pend is None:
                if not ok.all():
                    cand, dc, rc = (np.where(ok, cand, ml), np.where(ok, dc, dl),
                                    np.where(ok, rc, rl))
                ml, dl, rl, pend = cand, dc, rc, np.flatnonzero(~ok)
            else:
                ml[:, pend[ok]], dl[:, pend[ok]], rl[pend[ok]] = (
                    cand.compress(ok, 1), dc.compress(ok, 1), rc[ok])
                pend = pend[~ok]
            if not pend.size:
                break
            d = 0.5 * d.compress(~ok, 1)
            cand, sp, rp = ml.take(pend, 1) + d, sl.take(pend, 1), rl[pend]
        if pend.size == idx.size:
            break
        done = rl <= tol
        if done.any():
            m[:, idx[done]], res[idx[done]] = ml.compress(done, 1), rl[done]
            idx, rl = idx[~done], rl[~done]
            ml, sl, dl = (a.compress(~done, 1) for a in (ml, sl, dl))
    m[:, idx] = ml
    res[idx] = rl
    return m, res, used


def _scalar_start(shift, K, z):
    """Per species, the root with Im m > 0 of the system at m_t = m_s.

    That is k_s m^2 + (z + shift_s) m + 1 = 0 with k_s = sum_t K_st, exact
    for r = 1.  Its roots are -2/(b +- sq) with b = z + shift_s and
    sq^2 = b^2 - 4 k_s.  Taking sq = i sqrt(4 k_s - b^2), whose Im is >= 0,
    gives Im(b + sq) >= Im z > 0, so -2/(b + sq) is the root in the upper
    half-plane, free of cancellation; k_s = 0 leaves -1/b.
    """
    b = z + shift
    return -2.0 / (b + 1j * np.sqrt(4.0 * K.sum(axis=1)[:, None] - b * b))


def _solve_batch(shift, K, z, warm=None):
    """Solve the system to SOLVER_TOL for a batch of shifts at one z.

    shift, warm and the returned m are (r, n), one column per row of the
    batch.  For Im z > 0 the system has exactly one root with Im m >= 0
    (Ajanki-Erdos-Krueger), so guarded Newton clamped to the closed upper
    half-plane cannot settle on a wrong root: it runs from warm or, cold,
    from _scalar_start, exact for r = 1.  It can stall on the boundary
    Im m_s = 0, far from the root, where no residual-lowering step exists;
    _continue solves the rows it leaves above SOLVER_TOL.  A real z, which
    only a warm start reaches, takes the same path; there the root need
    not be unique, and warm, or for a stalled row the continuation, picks
    it.  Returns m and the work done, Newton rounds.
    """
    if warm is None:
        m = _scalar_start(shift, K, z)
    else:
        m = np.array(warm, dtype=complex).reshape(shift.shape)
        if z.imag > 0:
            np.maximum(m.imag, 0.0, out=m.imag)
    m, res, work = _newton_rounds(m, shift, K, z)
    stalled = res > SOLVER_TOL
    if stalled.any():
        m[:, stalled], more = _continue(shift.compress(stalled, 1), K, z)
        work += more
    return m, work


def _continue(shift, K, z):
    """Newton continued in eta down to z, for (r, n) rows Newton stalls on.

    The top level is Re z + i eta_top, eta_top = max(1, 2 sqrt(max_s sum_t
    K_st)), where |m_s| <= 1/eta_top makes m -> -1/(z + shift + K m) a
    contraction and Newton from _scalar_start converges.  Each level below
    starts warm from the last one passed, where every row reached
    SOLVER_TOL; eta steps down by a ratio that starts at 10, becomes its
    square root after a level fails and squares, up to 10, after one
    passes.  z itself is the last level, taken once eta would fall to
    max(Im z, ETA_FLOOR).  Raises NonConvergence, naming the level, when
    the top level fails or the ratio falls to 1.01.  Returns m and the
    Newton rounds used.
    """
    at = complex(z.real, max(1.0, 2.0 * np.sqrt(K.sum(axis=1).max())))
    m, res, work = _newton_rounds(_scalar_start(shift, K, at), shift, K, at)
    # a top level that fails leaves no level to continue from
    level, ratio = at, 10.0 if res.max() <= SOLVER_TOL else 1.0
    floor = max(z.imag, ETA_FLOOR)
    while level != z and ratio > 1.01:
        eta = level.imag / ratio
        at = z if eta <= floor else complex(z.real, eta)
        w, res, used = _newton_rounds(m.copy(), shift, K, at)
        work += used
        if res.max() <= SOLVER_TOL:
            level, m, ratio = at, w, min(10.0, ratio * ratio)
        else:
            ratio = np.sqrt(ratio)
    if res.max() > SOLVER_TOL:
        raise NonConvergence(
            f"dyson solver stalled at residual {res.max():.3e} on the level "
            f"z={at} of the continuation to z={z}")
    return m, work


def _newton_step(m, denom, K, lstsq=False):
    """Newton steps d at the columns of m, given their denom = z + shift + K m.

    J = diag(denom) + diag(m) K is diag(m) (K + diag(q)) with q = denom/m,
    so d solves (K + diag(q)) d = -F/m = -(1/m + denom): the real K is
    shared by the batch and only the diagonal varies by row.  For r <= 3
    Cramer's rule solves it elementwise on the (r, n) rows, where every
    off-diagonal entry is a scalar; larger r goes through LAPACK, one
    system at a time when the stacked solve finds a singular one.  A row
    whose step is not finite (a zero component of m, or a singular system)
    is unsolved and steps 0, or with lstsq takes the least-squares step on J.
    """
    r, n = m.shape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / m
        # q, and F/m = 1/m + denom: each solve folds the step's sign in
        q, fm = denom * inv, inv + denom
        if r <= 3:
            A = [[K[i, j] + q[i] if i == j else K[i, j] for j in range(r)]
                 for i in range(r)]
            if r == 1:
                C = [[1.0]]
            elif r == 2:
                C = [[A[1][1], -A[1][0]], [-A[0][1], A[0][0]]]
            else:
                # cofactor C[i][j] from the cyclic successors i+1, i+2 of i, j
                C = [[A[(i + 1) % 3][(j + 1) % 3] * A[(i + 2) % 3][(j + 2) % 3]
                      - A[(i + 1) % 3][(j + 2) % 3] * A[(i + 2) % 3][(j + 1) % 3]
                      for j in range(3)] for i in range(3)]
            terms = [A[0][j] * C[0][j] for j in range(r)]
            inv_det = -1.0 / sum(terms[1:], terms[0])
            d = np.empty_like(fm)
            for j in range(r):
                terms = [C[i][j] * fm[i] for i in range(r)]
                np.multiply(sum(terms[1:], terms[0]), inv_det, out=d[j])
        else:
            stack = np.zeros((n, r, r), q.dtype)
            stack[...] = K
            np.einsum("nii->ni", stack)[...] += q.T
            try:
                d = np.linalg.solve(stack, -fm.T[..., None])[..., 0].T
            except np.linalg.LinAlgError:
                d = np.full_like(fm, np.nan)
                for i in range(n):
                    try:
                        d[:, i] = np.linalg.solve(stack[i], -fm[:, i])
                    except np.linalg.LinAlgError:
                        pass
    solved = np.isfinite(d).all(axis=0)
    if not solved.all():
        d[:, ~solved] = 0.0
    if lstsq:
        for i in np.flatnonzero(~solved):
            J = np.diag(denom[:, i]) + m[:, i, None] * K
            d[:, i] = np.linalg.lstsq(J, -1.0 - denom[:, i] * m[:, i],
                                      rcond=None)[0]
    return d


def _polish_real(shift, K, wgt, m):
    """Newton on the real z=0 system from Re m, for a batch of rows.

    shift, m and the polished roots are (r, n).  Returns the roots and the
    mask of rows accepted.  A row is accepted only when its real root u
    converges (residual <= CERTIFICATE_TOL), stays near the continued value
    (_near_continued), and its stability matrix diag(wgt/u^2) - diag(wgt) K
    has no eigenvalue below -1e-5; those three gates together certify
    that the true boundary value is real.  A row with a component below
    1e-12 in modulus is rejected without Newton.

    Each row runs its own iterations: _newton_rounds at z = 0, up to 200
    rounds to 5e-14 with up to 30 halvings each, the least-squares step
    where _newton_step finds none; then up to 12 multiplicity steps on
    _newton_step's step, leaving on a zero residual, an unsolved step or
    no strict descent.
    """
    w = m.real.copy()
    start = np.flatnonzero(np.abs(w).min(axis=0) >= 1e-12)
    # aim well below the 1e-12 contract so double roots at band edges, where
    # Newton converges only linearly, land close enough for the stability gate
    w[:, start] = _newton_rounds(w[:, start], shift[:, start], K, 0.0, 5e-14,
                                 200, 30)[0]
    # multiplicity acceleration: at band edges (double roots) and cusps
    # (triple roots) plain Newton stalls at 5e-14**(1/mult), far too
    # coarse for eigenvalue gates downstream; stepping mult*delta lands
    # essentially on the root, and overshoots at simple roots are
    # rejected by the strict-descent test
    live = start
    for _ in range(12):
        if not live.size:
            break
        wl, sl = w[:, live], shift[:, live]
        # an unsolved row steps 0, and a zero residual cannot descend
        base, denom = _resid_denom(wl, sl, K, 0.0)
        d = _newton_step(wl, denom, K)
        best, step = base.copy(), wl.copy()
        for mult in (3.0, 2.0, 1.0):
            cand = wl + mult * d
            rc = _resid(cand, sl, K, 0.0)
            better = rc < best
            best[better] = rc[better]
            step[:, better] = cand[:, better]
        moved = best < base
        live = live[moved]
        w[:, live] = step[:, moved]
    ok = np.zeros(w.shape[1], bool)
    ok[start] = (_resid(w[:, start], shift[:, start], K, 0.0)
                 <= CERTIFICATE_TOL)
    ok &= _near_continued(w, m)
    gated = np.flatnonzero(ok)
    wg = w[:, gated].T
    Mb = (wgt / wg ** 2)[:, :, None] * np.eye(len(w)) - wgt[:, None] * K
    # genuine edge roots carry O(sqrt(residual)) eigenvalue error; spurious
    # branches sit at order-one negative eigenvalues
    ok[gated] = np.linalg.eigvalsh(Mb)[:, 0] >= -1e-5
    return w, ok


def _near_continued(w, m):
    """Columns of w within HOLDER_ALLOW max(1, |m_s|) of m in every species.

    The eta bias of a continued value grows with its size: a component
    near 1.8e4 at z = i ETA has its z = 0 root 300 away, where an absolute
    gate would turn the root away.
    """
    allow = HOLDER_ALLOW * np.maximum(1.0, np.abs(m))
    return (np.abs(w - m) <= allow).all(axis=0)


def _boundary_batch(shift, K, wgt, polish=True):
    """Boundary values for a batch of shifts, from one cold solve at z = i ETA.

    Each row starts at the decoupled scalar root (_scalar_start): for
    Im z > 0 the root with Im m >= 0 is unique, so no warm start from a
    higher level is needed.  shift comes in and m goes out as (n, r), one
    row per point, as the callers build and read points and as the
    benchmark's tracer counts a call's rows, shift.shape[0]; the kernel
    works on their (r, n) transposes.

    Without polish a row keeps its continued value, with its O(ETA) bias.
    With polish each row is certified at z = 0: the near-real rows go
    through one _polish_real call, and every row it does not accept runs
    _newton_rounds at z = 0 in complex arithmetic, 20 rounds to 1e-14.  A
    row takes that root when its residual is <= CERTIFICATE_TOL, it lies
    near the continued value (_near_continued) and its Im is >=
    -IMAG_ROUNDING, then clamped to 0; otherwise it keeps its continued
    value.
    """
    shift = np.ascontiguousarray(shift.T)
    m, _ = _solve_batch(shift, K, 1j * ETA)
    if polish:
        real = m.imag.max(axis=0) <= HOLDER_ALLOW
        near = np.flatnonzero(real)
        roots, ok = _polish_real(shift[:, near], K, wgt, m[:, near])
        m[:, near[ok]], real[near] = roots[:, ok], ok
        rest = np.flatnonzero(~real)
        w, res, _ = _newton_rounds(m[:, rest], shift[:, rest], K, 0.0, 1e-14, 20)
        keep = ((res <= CERTIFICATE_TOL)
                & (w.imag.min(axis=0) >= -IMAG_ROUNDING)
                & _near_continued(w, m[:, rest]))
        np.maximum(w.imag, 0.0, out=w.imag)
        m[:, rest[keep]] = w[:, keep]
    return np.ascontiguousarray(m.T)


def solve_dyson(stats: MixtureStats, x, z, warm=None) -> DysonSolution:
    """Solve the vector Dyson equation at one spectral parameter."""
    x = as_vector(x, stats.r)
    z = complex(z)
    if not np.isfinite(z):
        raise ValidationError("z must be finite")
    if z.imag < 0:
        raise ValidationError("z must lie in the closed upper half-plane")
    if z.imag < ETA_FLOOR and warm is None:
        raise ValidationError(
            f"Im z < {ETA_FLOOR} requires a warm start from a nearby point")
    if warm is not None:
        warm = as_vector(warm, stats.r, "warm", complex)
    shift = (x / np.sqrt(stats.lam))[:, None]
    K = _coupling(stats)
    m, iters = _solve_batch(shift, K, z, warm=warm)
    res = float(_resid(m, shift, K, z)[0])
    return DysonSolution(z=z, x=x, m=m[:, 0], residual=res, iterations=iters)


def boundary_values(stats: MixtureStats, V, polish: bool = True) -> np.ndarray:
    """Boundary values u(v) for the rows v of an (n, r) array V.

    Each row solves the system with shift v_s/lambda_s, coupling
    xi''_{s,t}/lambda_s and weights lambda_s, once, cold at z = i ETA.
    polish=False skips the z = 0 certificate (see _boundary_batch), for
    callers that need only the continued values.  u(-v) = -conj u(v)
    bitwise, polished or not: the system at z = i eta and at z = 0 is
    invariant under (m, shift) -> (-conj m, -shift).
    """
    V = as_vector(V, stats.r, "V", rows=True)
    return _boundary_batch(V / stats.lam, _coupling(stats), stats.lam, polish)


def boundary_u(stats: MixtureStats, v, log_safe: bool = False) -> np.ndarray:
    """Boundary value u(v) = lim m(i eta; Lambda^{-1/2} v) as eta drops to 0.

    log_safe raises DegenerateU where some |u_s| < 1e-8, unstable in log|u_s|.
    """
    u = boundary_values(stats, as_vector(v, stats.r, "v")[None, :])[0]
    if log_safe and np.abs(u).min() < 1e-8:
        raise DegenerateU("some |u_s| < 1e-8; log|u_s| is unstable")
    return u


def grid_range(grid_spec, radius: float) -> tuple:
    """(lo, hi, n) from a count n over [-radius, radius] or from (lo, hi, n)."""
    if np.ndim(grid_spec) == 0:
        grid_spec = (-radius, radius, grid_spec)
    lo, hi, n = float(grid_spec[0]), float(grid_spec[1]), grid_spec[2]
    if not -np.inf < lo < hi < np.inf:
        raise ValidationError("grid range must be finite with lo < hi")
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError("grid needs an integer count of at least 2")
    return lo, hi, n


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

    _measure_on_grid solves the grid, shared with psi's quadrature, and
    the support search bisects on the same continued density.
    """
    grid, dens_s, agg, mass_s, density_at = _measure_on_grid(
        stats, x, grid_spec, sizes)
    support = _detect_support(grid, agg, density_at)
    return SpectralMeasure(grid=grid, density_s=dens_s, density=agg,
                           support=support, mass_s=mass_s)


def _measure_on_grid(stats, x, grid_spec=None, sizes=None):
    """Grid, per-species and aggregated densities, masses, and density_at.

    Every density, on the grid and at density_at's abscissae, is Im m / pi
    from one batch of continued values at x + i ETA, without the z = 0
    certificate: their Cauchy smoothing of width ETA moves the masses and
    the log-potential by O(ETA), at most 2.5e-8 and 5.3e-8 measured over
    4 x per preset, and a support endpoint by about ETA.

    A grid passes when every species' mass is within MASS_TOL of 1.  When
    one does not, the retry widens a grid whose ends carry density, which
    cut the support off, at the same spacing, and otherwise halves the
    spacing: a mass off 1 on either side inside the grid means it is too
    coarse for the density.  MassDeficit is raised after four retries.
    """
    x = as_vector(x, stats.r)
    lam = stats.lam
    d = x / np.sqrt(lam)
    if sizes is None:
        K = _coupling(stats)
        wagg = lam
    else:
        sizes = as_vector(sizes, stats.r, "sizes")
        if np.any(sizes < 2) or np.any(sizes != np.round(sizes)):
            raise ValidationError("sizes must be integers of at least 2")
        sizes = sizes.astype(int)
        N = int(sizes.sum())
        K = stats.xi_dprime * (sizes - 1)[None, :] / (N * lam[:, None] * lam[None, :])
        wagg = (sizes - 1) / (N - stats.r)
    C = _grid_radius(stats, d)
    lo, hi, n = grid_range(2001 if grid_spec is None else grid_spec, C)

    def density_s_at(g):
        m = _boundary_batch(g[:, None] + d[None, :], K, wagg, polish=False)
        return m.imag.T / np.pi

    for _attempt in range(5):
        grid = np.linspace(lo, hi, n)
        dens_s = density_s_at(grid)
        mass_s = np.trapezoid(dens_s, grid, axis=1)
        if np.all(np.abs(mass_s - 1.0) <= MASS_TOL):
            break
        if dens_s[:, [0, -1]].max() > TAU_SUPP:
            pad = (hi - lo) / 2.0
            lo, hi = lo - pad, hi + pad
        n = 2 * n - 1
    else:
        raise MassDeficit(
            f"per-species masses {mass_s} not within {MASS_TOL} of 1 after "
            f"grid refinement")
    return (grid, dens_s, wagg @ dens_s, mass_s,
            lambda g: wagg @ density_s_at(g))


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
    n = len(grid)
    mask = agg > TAU_SUPP
    # runs one grid point apart are one interval
    mask[1:-1] |= mask[:-2] & mask[2:]
    # each run as the [first, last] pair of its indices
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    merged = (edges.reshape(-1, 2) - [0, 1]).tolist()
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

    closed_form evaluates psi_of_u at the certified boundary value u;
    quadrature integrates log|gamma| against the measure with the
    0-singularity handled by a piecewise-linear-density analytic integral,
    on spectral_measure's grid of continued values (within 5.3e-8 of the
    certified grid's, see _measure_on_grid) but without the support search
    it never reads.
    """
    x = as_vector(x, stats.r)
    if mode == "closed_form":
        u = boundary_u(stats, np.sqrt(stats.lam) * x, log_safe=True)
        return psi_of_u(stats, u)
    if mode == "quadrature":
        grid, _, agg, _, _ = _measure_on_grid(stats, x)
        return _log_integral(grid, agg)
    raise ValidationError(f"unknown psi mode {mode!r}")


def psi_of_u(stats: MixtureStats, u):
    """(1/2) Re <u, xi'' u> - sum_s lambda_s log|u_s|, the closed form of Psi.

    The pairing is bilinear (unconjugated).  u of shape (r,) gives a float,
    rows u of shape (n, r) an array of n values.
    """
    rows = np.asarray(u).reshape(-1, stats.r)
    quad = 0.5 * np.einsum("ns,ns->n", rows @ stats.xi_dprime, rows).real
    values = quad - np.log(np.abs(rows)) @ stats.lam
    return float(values[0]) if np.ndim(u) == 1 else values


def _log_integral(grid, density):
    # antiderivatives of log|t| and t log|t| at the grid, continuous through 0
    log_abs = np.log(np.abs(np.where(grid == 0.0, 1.0, grid)))
    A0 = np.diff(grid * (log_abs - 1.0))
    A1 = np.diff(0.5 * grid * grid * log_abs - 0.25 * grid * grid)
    g0, g1 = grid[:-1], grid[1:]
    r0, r1 = density[:-1], density[1:]
    c1 = (r1 - r0) / (g1 - g0)
    c0 = r0 - c1 * g0
    total = c0 * A0 + c1 * A1
    return float(total.sum())


def stability_matrices(stats: MixtureStats, u) -> StabilityMatrices:
    """M, Mbar, Mhat at a candidate boundary value u; stacked for rows u."""
    u = as_vector(u, stats.r, "u", complex, rows=np.ndim(u) == 2)
    if np.abs(u).min() < 1e-13:
        raise ZeroComponent("u has a vanishing component")
    eye, xpp = np.eye(stats.r, dtype=bool), stats.xi_dprime
    M = np.where(eye, (stats.lam / u ** 2)[..., None], 0.0) - xpp
    Mbar = np.where(eye, (stats.lam / np.abs(u) ** 2)[..., None], 0.0)
    return StabilityMatrices(M=M, Mbar=Mbar - xpp, Mhat=Mbar + xpp)


def feasibility(stats: MixtureStats, u) -> FeasibilityReport:
    """Classify u, of shape (r,) or an (n, r) stack, against attainability.

    boundary_real and boundary_imag are the two ways u can arise as the
    boundary value at a real v; interior means attainable from the open
    upper half-plane only; infeasible means not attainable at all.  A
    stack is classified at once, its report's fields gain a row axis, and
    a nonreal row's min_eig_M_real is NaN; one bad row raises for all.
    """
    tol = FEASIBILITY_TOL
    u = np.asarray(u, dtype=complex)
    if np.any(u.imag < -tol):
        raise ValidationError("u must have nonnegative imaginary parts")
    mats, shape = stability_matrices(stats, u), (-1, stats.r, stats.r)
    mbar, im = mats.Mbar.reshape(shape), u.imag.reshape(shape[:2])
    min_eig_mbar = np.linalg.eigvalsh(mbar)[:, 0]
    mb_imu = (mbar @ im[:, :, None])[:, :, 0]
    im_max = np.abs(im).max(axis=1)
    u_real = im_max <= REAL_TOL
    min_eig_m = np.where(
        u_real, np.linalg.eigvalsh(mats.M.real.reshape(shape))[:, 0], np.nan)
    cone = (min_eig_mbar >= -tol) & np.all(mb_imu >= -tol, axis=1)
    tight = np.all(im > tol, axis=1) & (
        np.abs(mb_imu).max(axis=1) <= tol * np.maximum(1.0, im_max))
    case = np.select(
        [u_real & (min_eig_m >= -tol), u_real, cone & tight, cone],
        ["boundary_real", "infeasible", "boundary_imag", "interior"], "infeasible")
    if u.ndim == 2:
        return FeasibilityReport(case, min_eig_mbar, mb_imu, min_eig_m)
    return FeasibilityReport(str(case[0]), float(min_eig_mbar[0]), mb_imu[0],
                             float(min_eig_m[0]) if u_real[0] else None)


def _probe_verdict(plus_real, minus_real):
    if all(plus_real) and not any(minus_real):
        return "right_edge"
    if all(minus_real) and not any(plus_real):
        return "left_edge"
    if not any(plus_real) and not any(minus_real):
        return "cusp"
    raise InconsistentProbes(
        f"probe realness plus={plus_real} minus={minus_real}")


def classify_boundary_point(stats: MixtureStats, x, chi, chi2=None) -> str:
    """Edge or cusp classification of the spectral point 0 at parameter x.

    nonsingular unless u0 = u(v) is real and its real stability matrix has
    an |eigenvalue| <= SINGULAR_M_TOL.  Then probes u at v + gamma*chi and
    v - gamma*chi over four scales, for chi and chi2 all in one batch.  Real
    on the plus side only means 0 sits at the right edge of the support;
    real on the minus side only, left edge; nonreal on both sides, a cusp
    where two bands pinch.  Mixed verdicts across scales raise
    InconsistentProbes, as does disagreement with a second chi.
    """
    x = as_vector(x, stats.r)
    chis = [as_vector(c, stats.r, "chi")
            for c in ((chi,) if chi2 is None else (chi, chi2))]
    for c in chis:
        if np.any(c <= 0):
            raise ValidationError("chi must be positive")
        if abs(c.sum() - 1.0) > 1e-9:
            raise ValidationError("chi must be normalized to unit 1-norm")
    v = np.sqrt(stats.lam) * x
    u0 = boundary_u(stats, v)
    if np.abs(u0.imag).max() > REAL_TOL:
        return "nonsingular"
    m_eigs = np.linalg.eigvals(stability_matrices(stats, u0.real).M.real)
    if np.abs(m_eigs).min() > SINGULAR_M_TOL:
        return "nonsingular"
    gamma0 = 1e-2
    scales = np.array([gamma0 / 8, gamma0 / 4, gamma0 / 2, gamma0])
    steps = np.r_[scales, -scales]
    probes = boundary_values(
        stats, v + np.concatenate([np.outer(steps, c) for c in chis]))
    real = [bool(x) for x in np.abs(probes.imag).max(axis=1) <= REAL_TOL]
    verdicts = [_probe_verdict(real[k:k + 4], real[k + 4:k + 8])
                for k in range(0, len(real), 8)]
    if len(set(verdicts)) > 1:
        raise InconsistentProbes(
            f"chi-dependent classification: {verdicts[0]} vs {verdicts[1]}")
    return verdicts[0]
