"""Finite-N critical points of sampled Hamiltonians.

Homotopy following from the pure external-field landscape: a first
t-step of a quarter of the grid along the exact t = 0 tangent, inexact
correctors whose last LU also gives the next tangent, a t-step that
doubles after one-iteration corrections and halves when a long step
converges slowly, jumps or changes the predicted index, and endpoints
labelled by the paper's index and radial derivative; damped Newton.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import LostTrack, MaxIters, OffManifold, ValidationError
from .hamiltonian import (HamiltonianInstance, StatePoint, _as_sigma,
                          check_on_manifold, g1_overlap, local_data, retract)
from .mixture import (all_sign_patterns, as_signs, classify_solvability,
                      ideal_radial, stats)

UNCLASSIFIED = "unclassified"
NEWTON_TOL = 1e-10
# a guarded long step's corrector need only land in the next predictor's
# basin (a prediction is off by ~1e-2).  Over finite-n seeds 1-48 but 38,
# local_data calls: 7471 at 1e-6 with EASY_ITERS 2, 6970 at 1e-5, 6327 at
# 1e-4 and 6069 at 1e-3 (67 long steps rejected, not 52) with 1
STEP_TOL = 1e-4
# a one-unit step has no jump or index guard: at STEP_TOL, cubic-pair N=40
# seed 5 delta = (-1, -1) drifted onto another branch near t = 0.55
UNIT_STEP_TOL = 1e-6
# homotopy steps longer than one grid unit: a corrector that
# needs more iterations than this means the branch bends within the step
LONG_STEP_ITERS = 6
# a jump beyond this times sqrt(N) from the Euler prediction can land on a
# neighbouring critical point of the same index and radial label
LONG_STEP_JUMP = 0.2
# a step whose corrector converged this fast doubles the next one: 1 takes
# an easy prediction to STEP_TOL (2 at 1e-5: 8906 calls, 322 rejected)
EASY_ITERS = 1
# the first step spans this share of the t-grid, predicted along the exact
# t = 0 tangent; the 6327 calls above were 9191 at 1/2 and 9485 at 1/8
FIRST_STEP = 0.25
SINGULAR_EIG = 1e-6
ZERO_EIG = 1e-8
DEDUP_RADIUS = 1e-4


@dataclass(frozen=True)
class CriticalPointResult:
    """A converged critical point with its local spectral data.

    grad_norm is the Riemannian gradient norm divided by sqrt(N), energy
    is H/N, radial the per-species radial derivatives, spectrum the sorted
    eigenvalues of the reduced Hessian.  index counts eigenvalues above
    1e-8; ill_conditioned is set by any |eigenvalue| < 1e-6, or by a mode
    the Newton solve dropped, instead of guessing a sign.  delta is a sign
    tuple once classified.
    """

    sigma_star: StatePoint
    grad_norm: float
    energy: float
    radial: np.ndarray
    g1_overlap: np.ndarray
    spectrum: np.ndarray
    index: int
    min_abs_eig: float
    delta: object
    ill_conditioned: bool
    iterations: int
    grad_history: tuple


def _try_step(instance, sig, ld, h, gn, t, halvings):
    """Backtracking search along the reduced step h from sig.

    The step is capped at 0.5 sqrt(N) and halved until the gradient norm
    falls to (1 - alpha/10) gn.  Only the full-length trial (alpha = 1)
    carries its Hessian.  Returns the accepted (sigma, LocalData) or None.
    """
    part = instance.partition
    step = ld.ambient(h)
    cap = 0.5 * np.sqrt(part.N)
    snorm = float(np.linalg.norm(step))
    if snorm > cap:
        step *= cap / snorm
    alpha = 1.0
    for _ in range(halvings):
        cand = retract(part, sig + alpha * step).sigma
        trial = local_data(instance, cand, want_hessian=alpha == 1.0, t=t)
        gn2 = float(np.linalg.norm(trial.rgrad)) / np.sqrt(part.N)
        if np.isfinite(gn2) and gn2 <= (1.0 - 0.1 * alpha) * gn:
            return cand, trial
        alpha *= 0.5
    return None


def _newton(instance, sig, max_iters, tol, t, ld=None, tangent=None):
    """The Newton loop of newton_refine on an on-manifold sig, for H_t.

    ld, if given, is the LocalData with Hessian at sig and t.  Stops at
    tol, after max_iters iterations or when no step is accepted, and
    returns (sigma, LocalData with Hessian, grad_norm history, iterations,
    singular, tangent) for the caller to judge; singular means the eigh
    ladder dropped a soft mode.  Raises MaxIters only on a non-finite
    gradient or a numerically zero Hessian.  Below t = 1 each plain step's
    LU also solves for d sigma/dt (_tangent_rhs) at its iterate; tangent
    is the last, else the given one.
    """
    sqrt_n = np.sqrt(instance.partition.N)
    history, singular, iterations = [], False, 0
    if ld is None:
        ld = local_data(instance, sig, want_hessian=True, t=t)
    while True:
        gn = float(np.linalg.norm(ld.rgrad)) / sqrt_n
        if not np.isfinite(gn):
            raise MaxIters("newton reached a non-finite gradient")
        history.append(gn)
        if gn <= tol or iterations >= max_iters:
            break
        g_red = ld.tangent(ld.rgrad)
        cols = [-g_red] + ([_tangent_rhs(instance, ld, t)] if t < 1 else [])
        accepted = None
        try:
            sol = np.linalg.solve(ld.rhess, np.column_stack(cols))
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None and np.all(np.isfinite(sol)):
            if t < 1:
                tangent = ld.ambient(sol[:, 1])
            accepted = _try_step(instance, sig, ld, sol[:, 0], gn, t, 1)
        if accepted is None:
            eigs, vecs = np.linalg.eigh(ld.rhess)
            scale_w = float(np.max(np.abs(eigs)))
            if scale_w < SINGULAR_EIG:
                raise MaxIters("hessian numerically zero, no newton step")
            coef = vecs.T @ g_red
            # mu=0 is the pseudo-inverse step; soft modes overshoot when the
            # gap pinches, so failures escalate the damping (0.1 and 1 times
            # scale_w accepted none of 40 tries in tests and benchmark runs)
            for mu in (0.0, 1e-3 * scale_w, 1e-2 * scale_w):
                if mu == 0.0:
                    keep = np.abs(eigs) >= SINGULAR_EIG
                    if not np.all(keep):
                        singular = True
                    h = -(vecs[:, keep] @ (coef[keep] / eigs[keep]))
                else:
                    h = -(vecs @ (coef * eigs / (eigs ** 2 + mu ** 2)))
                accepted = _try_step(instance, sig, ld, h, gn, t, 20)
                if accepted is not None:
                    break
        if accepted is None:
            break
        sig, ld = accepted
        if ld.rhess is None:
            ld = local_data(instance, sig, want_hessian=True, t=t)
        iterations += 1
    return sig, ld, history, iterations, singular, tangent


def newton_refine(instance: HamiltonianInstance, sigma0, max_iters: int = 50,
                  tol: float = NEWTON_TOL,
                  raise_on_fail: bool = True) -> CriticalPointResult:
    """Tangent-space Newton for the Riemannian gradient.

    The convergence test runs before any step, so a point already at
    tolerance comes back unchanged with 0 iterations.  Each iteration
    first tries the plain step, an LU solve with the reduced Hessian, at
    full length; local_data builds that Hessian in O(N^2) in the tangent
    coordinates of its Householder reflectors (LocalData), which map a
    step to ambient space in O(N).  Only if the solve fails or that trial
    does not cut the gradient norm by 10% does it fall back to an eigh
    ladder: the pseudo-inverse step without the modes of |eigenvalue| <
    1e-6, then two increasing damping levels, each backtracked up to 20
    times.  Steps are capped at 0.5 sqrt(N).  The accepted full-length
    trial carries its Hessian into the next iteration; an accepted
    backtracked one is evaluated again with it.  The final spectrum and
    index come from eigvalsh (the homotopy's long steps test only for
    their predicted index, by Cholesky: _has_index).  ill_conditioned is
    set when that spectrum has an |eigenvalue| < 1e-6 or the ladder
    dropped a mode on the way.  _newton returns its best iterate, and
    newton_refine raises MaxIters when that missed tol because the budget
    ran out or the search stalled, unless raise_on_fail is off, in which
    case the iterate is returned with its unconverged grad_norm.
    """
    part = instance.partition
    sig = _as_sigma(sigma0)
    try:
        check_on_manifold(part, sig)
    except OffManifold:
        sig = retract(part, sig).sigma
    step = _newton(instance, sig, max_iters, tol, 1.0)
    if raise_on_fail and step[2][-1] > tol:
        raise MaxIters(f"no convergence in {max_iters} newton iterations"
                       if step[3] >= max_iters else "newton line search stalled")
    return _result(instance, *step[:5])


def _result(instance, sig, ld, history, iterations, singular):
    """The CriticalPointResult of a finished _newton run."""
    spectrum = np.linalg.eigvalsh(ld.rhess)
    min_abs = float(np.min(np.abs(spectrum)))
    return CriticalPointResult(
        sigma_star=StatePoint(sigma=sig),
        grad_norm=history[-1],
        energy=ld.value / instance.N,
        radial=ld.radial,
        g1_overlap=g1_overlap(instance, sig),
        spectrum=spectrum,
        index=int(np.count_nonzero(spectrum > ZERO_EIG)),
        min_abs_eig=min_abs,
        delta=UNCLASSIFIED,
        ill_conditioned=bool(min_abs < SINGULAR_EIG or singular),
        iterations=iterations,
        grad_history=tuple(history),
    )


def _tangent_rhs(instance, ld, t):
    """-P_sigma grad H_{>=2}(sigma) in reduced coordinates, at ld and t > 0.

    Differentiating rgrad(sigma(t), t) = 0 along the branch gives
    rhess d sigma/dt = this.  ld.egrad is grad H_1 + t grad H_{>=2}, so
    the degree >= 2 gradient is read off it, not contracted again.
    """
    return ld.tangent((instance.external_field - ld.egrad) / t)


def follow_critical_points(instance: HamiltonianInstance, delta,
                           steps: int = 40) -> CriticalPointResult:
    """Track the type-delta critical point while the disorder switches on.

    At t = 0 only the degree-1 part acts and the critical point is the
    signed alignment with its coefficient field; the degree >= 2 parts are
    scaled by t, which walks the grid k/steps: steps is the finest
    resolution, and t = 1 is reached exactly.  The walk is an Euler-Newton
    predictor-corrector (Allgower-Georg, Numerical Continuation Methods,
    1990): each step of m grid units is predicted along the branch tangent,
    in closed form at t = 0 (_start_tangent), after it as a second column
    of the corrector's last plain LU (_newton), and corrected by Newton.
    The first step is m = max(1, steps // 4) units (FIRST_STEP).  Every
    step makes the same _newton call, with its own budget and tolerance,
    and the walk judges what it returns.  A one-unit step always advances,
    corrected to UNIT_STEP_TOL within 40 iterations or carrying its best
    iterate forward; a MaxIters from its corrector leaves the walk.  A
    longer step's corrector stops at STEP_TOL, inside the next predictor's
    basin, and the step advances only if it got there within
    LONG_STEP_ITERS iterations, lands within LONG_STEP_JUMP sqrt(N) of the
    prediction and keeps the predicted index sum_{delta_s = -1} (N_s - 1);
    otherwise, as on a MaxIters, m is halved and the step retried from the
    last accepted point.  A step
    whose corrector converged within EASY_ITERS iterations doubles m.  At
    t = 1 Newton polishes to NEWTON_TOL, and the endpoint counts as the
    type-delta point only if it converged, has the predicted index, and
    its radial derivative lies nearest the ideal_stats prediction for
    delta.  Otherwise one soft-mode hop (_soft_hop) looks for such a
    point beside it; if none passes, LostTrack.

    One instance gives the same bits twice only with BLAS on one thread
    (OPENBLAS_NUM_THREADS=1 and the like): with two threads, two runs of
    one instance have given endpoints, spectra and grad_history that
    differ in the last few ulp.
    """
    part = instance.partition
    arr = as_signs(delta, part.r)
    ints = tuple(int(v) for v in arr)
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if 1 not in instance.tensors or np.any(instance.mixture.gamma1 <= 0):
        raise ValidationError(
            "homotopy needs a degree-1 component in every species")
    st = stats(instance.mixture)
    if classify_solvability(st).label != "strictly_super_solvable":
        warnings.warn("mixture is not strictly super-solvable; the homotopy "
                      "path is not guaranteed to stay on one branch")
    up = np.repeat(arr < 0, part.sizes - 1)
    patterns = all_sign_patterns(part.r)
    radials = [ideal_radial(st, d) for d in patterns]

    def is_type_delta(res):
        dists = [np.max(np.abs(res.radial - p)) for p in radials]
        return (res.grad_norm <= NEWTON_TOL and res.index == up.sum()
                and np.array_equal(patterns[np.argmin(dists)], arr))

    sigma = retract(part, arr[part.labels] * instance.tensors[1]).sigma
    tangent = _start_tangent(instance, sigma)
    k, m = 0, max(1, int(steps * FIRST_STEP))
    while k < steps:
        m = min(m, steps - k)
        t = (k + m) / steps
        pred = retract(part, sigma + tangent * m / steps).sigma
        budget = (40, UNIT_STEP_TOL) if m == 1 else (LONG_STEP_ITERS, STEP_TOL)
        try:
            step = _newton(instance, pred, *budget, t, None, tangent)
        except MaxIters:
            if m == 1:
                raise
            step = None
        # a fold can briefly swallow the branch mid-path, so a unit step
        # carries its best iterate forward and only the endpoint is judged
        if m > 1 and (step is None or step[2][-1] > STEP_TOL
                      or np.linalg.norm(step[0] - pred) / np.sqrt(part.N)
                      > LONG_STEP_JUMP or not _has_index(step[1].rhess, up)):
            m //= 2
            continue
        sigma, ld, history, iters, _, tangent = step
        k += m
        if iters <= EASY_ITERS and history[-1] <= STEP_TOL:
            m *= 2
        if k < steps:
            # the next step needs only the tangent, so this point's Hessian
            # is freed before the next corrector builds its own
            ld = step = None
    # the last corrector ran at t = 1: its LocalData starts the polish
    res = _result(instance, *_newton(instance, sigma, 40, NEWTON_TOL, t,
                                     ld)[:5])
    if not is_type_delta(res):
        res = _soft_hop(instance, res.sigma_star.sigma, is_type_delta)
        if res is None:
            raise LostTrack(f"homotopy for delta={ints} ended off the "
                            "type-delta critical point")
    return replace(res, delta=ints)


def _start_tangent(instance, sig):
    """d sigma/dt at t = 0, where sig is a signed alignment with the field.

    H_0 = H_1 is linear, so the reduced Hessian there is -theta_0 on each
    species' tangent space, theta_0 = <sig_s, g_1>/N_s its curvature with
    g_1 the external_field, and rhess d = -P grad H_{>=2} solves in closed
    form.  P g_1 = 0 at sig, so P grad H_{>=2} is the Riemannian gradient
    of H at sig: one contraction and no Hessian.
    """
    part = instance.partition
    theta = part.block_sums(sig * instance.external_field) / part.sizes
    return local_data(instance, sig).rgrad / theta[part.labels]


def _has_index(rhess, up):
    """Whether exactly up.sum() eigenvalues of rhess exceed ZERO_EIG.

    up marks the delta_s = -1 coordinates, which should carry them.  By
    Haynsworth, In(A) = In(A_pp) + In(A/A_pp) for A = rhess - ZERO_EIG I
    and a definite pivot block: Cholesky tests the delta_s = +1 block for
    negative and its Schur complement for positive definiteness, or the
    delta_s = -1 block for positive and its complement for negative
    definiteness, the smaller pivot block first (_pivots); eigvalsh
    decides when neither block is definite.  Each block is read in place,
    a slice where its coordinates are contiguous; only the pivot and
    complement copies carry the ZERO_EIG shift.
    """
    for sign, p, q in _pivots(up):
        try:
            L = np.linalg.cholesky(_shifted(rhess, p, sign))
        except np.linalg.LinAlgError:
            continue
        A_pq = _block(rhess, p, q)
        # solve would factor L even for an empty right-hand side
        K = np.linalg.solve(L, A_pq) if A_pq.size else A_pq
        S = _shifted(rhess, q, sign)
        try:
            np.linalg.cholesky(np.subtract(K.T @ K, S, out=S))
        except np.linalg.LinAlgError:
            return False
        return True
    return bool(np.count_nonzero(np.linalg.eigvalsh(rhess) > ZERO_EIG) == up.sum())


def _pivots(up):
    """_has_index's (sign, pivot, complement) tries, smaller pivot first:
    numpy has no triangular solve, so solve(L, A_pq) factors L again by LU
    (59 rows, not 139, on skew N=200 delta = (-1, 1)).  Ties keep the
    delta_s = +1 block first."""
    plus, minus = _coords(~up), _coords(up)
    tries = [(-1.0, plus, minus), (1.0, minus, plus)]
    return tries[::-1] if 2 * np.count_nonzero(up) < up.size else tries


def _coords(mask):
    """The coordinates where mask holds: a slice if they are contiguous."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return slice(0, 0)
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] < idx.size else idx


def _block(A, p, q):
    """A[p, q] for slices or index arrays p and q."""
    if isinstance(p, slice) or isinstance(q, slice):
        return A[p, q]
    return A[np.ix_(p, q)]


def _shifted(A, p, sign):
    """A copy of sign (A - ZERO_EIG I)[p, p]."""
    out = sign * _block(A, p, p)
    out.flat[::out.shape[0] + 1] -= sign * ZERO_EIG
    return out


def _soft_hop(instance, sigma, accept):
    """Escape a fold by stepping along the softest Hessian mode.

    Near a fold the branch point and a partner of neighboring index sit
    a soft-mode hop apart, and a stalled homotopy can end on either side.
    Returns the first Newton-refined candidate that accept passes, or None.
    """
    part = instance.partition
    ld = local_data(instance, sigma, want_hessian=True)
    eigs, vecs = np.linalg.eigh(ld.rhess)
    soft = vecs[:, int(np.argmin(np.abs(eigs)))]
    direction = ld.ambient(soft)
    for amp in (0.3, 1.0, 3.0, 6.0):
        for sign in (1.0, -1.0):
            start = retract(part, sigma + sign * amp * direction)
            cand = newton_refine(instance, start, max_iters=40,
                                 raise_on_fail=False)
            if accept(cand):
                return cand
    return None
