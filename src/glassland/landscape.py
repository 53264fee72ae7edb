"""Finite-N critical points of sampled Hamiltonians.

Homotopy following from the pure external-field landscape, with a first
t-step of a quarter of the grid along the exact t = 0 tangent, a t-step
that doubles after easy corrections and halves when a long step
converges slowly, jumps or changes the predicted index, and each
endpoint labelled by the paper's predicted index and radial derivative;
damped tangent-space Newton refinement.
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
# intermediate homotopy points only seed the next prediction; at 1e-6 they
# sit about 1e-6 sqrt(N)/gap off the branch, far inside DEDUP_RADIUS sqrt(N)
STEP_TOL = 1e-6
# homotopy steps longer than one grid unit (_long_step): a corrector that
# needs more iterations than this means the branch bends within the step
LONG_STEP_ITERS = 6
# a jump beyond this times sqrt(N) from the Euler prediction can land on a
# neighbouring critical point of the same index and radial label
LONG_STEP_JUMP = 0.2
# a step whose corrector converged this fast doubles the next one
EASY_ITERS = 2
# the first step spans this share of the t-grid, predicted along the exact
# t = 0 tangent.  Over the 96 follows of the finite-n benchmark's seeds 1-12
# it made 2004 local_data calls (28 long steps rejected), against 2142 at
# 1/8, 2804 (124 rejected) at 1/2, 2892 (155 rejected) at 1/4 with no t = 0
# tangent, and 2652 for a first step of one grid unit with none
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


def _reduced(refl, partition, vec):
    V, X = refl
    return (vec - X @ (V.T @ vec))[partition._tangent_mask]


def _ambient(refl, partition, red):
    V, X = refl
    out = np.zeros(partition.N)
    out[partition._tangent_mask] = red
    return out - X @ (V.T @ out)


def _try_step(instance, sig, ld, h, gn, t, halvings):
    """Backtracking search along the reduced step h from sig.

    The step is capped at 0.5 sqrt(N) and halved until the gradient norm
    falls to (1 - alpha/10) gn.  Only the full-length trial (alpha = 1)
    carries its Hessian.  Returns the accepted (sigma, LocalData) or None.
    """
    part = instance.partition
    step = _ambient(ld.reflectors, part, h)
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


def _newton(instance, sig, max_iters, tol, t, raise_on_fail, ld=None):
    """The Newton loop of newton_refine on an on-manifold sig, for H_t.

    ld, if given, is the LocalData with Hessian at sig and t.
    Returns (sigma, LocalData with Hessian, grad_norm history, iterations,
    singular), singular meaning the eigh ladder dropped a soft mode.
    """
    part = instance.partition
    sqrt_n = np.sqrt(part.N)
    history = []
    singular = False
    iterations = 0
    if ld is None:
        ld = local_data(instance, sig, want_hessian=True, t=t)
    while True:
        gn = float(np.linalg.norm(ld.rgrad)) / sqrt_n
        if not np.isfinite(gn):
            raise MaxIters("newton reached a non-finite gradient")
        history.append(gn)
        if gn <= tol:
            break
        if iterations >= max_iters:
            if raise_on_fail:
                raise MaxIters(
                    f"no convergence in {max_iters} newton iterations")
            break
        g_red = _reduced(ld.reflectors, part, ld.rgrad)
        accepted = None
        try:
            h = -np.linalg.solve(ld.rhess, g_red)
        except np.linalg.LinAlgError:
            h = None
        if h is not None and np.all(np.isfinite(h)):
            accepted = _try_step(instance, sig, ld, h, gn, t, 1)
        if accepted is None:
            eigs, vecs = np.linalg.eigh(ld.rhess)
            scale_w = float(np.max(np.abs(eigs)))
            if scale_w < SINGULAR_EIG:
                raise MaxIters("hessian numerically zero, no newton step")
            coef = vecs.T @ g_red
            # mu=0 is the pseudo-inverse step; soft hessian modes overshoot
            # when the spectral gap pinches, so failures escalate the damping
            for mu in (0.0, 1e-3 * scale_w, 1e-2 * scale_w, 0.1 * scale_w,
                       scale_w):
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
            if raise_on_fail:
                raise MaxIters("newton line search stalled")
            break
        sig, ld = accepted
        if ld.rhess is None:
            ld = local_data(instance, sig, want_hessian=True, t=t)
        iterations += 1
    return sig, ld, history, iterations, singular


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
    1e-6, then four increasing damping levels, each backtracked up to 20
    times.  Steps are capped at 0.5 sqrt(N).  The accepted full-length
    trial carries its Hessian into the next iteration; an accepted
    backtracked one is evaluated again with it.  The final spectrum and
    index come from eigvalsh (the homotopy's long steps test only for
    their predicted index, by Cholesky: _has_index).  ill_conditioned is
    set when that spectrum has an |eigenvalue| < 1e-6 or the ladder
    dropped a mode on the way.  Raises MaxIters when the budget runs out
    or the search stalls, unless raise_on_fail is off, in which case the
    best iterate is returned with its unconverged grad_norm.
    """
    part = instance.partition
    sig = _as_sigma(sigma0)
    try:
        check_on_manifold(part, sig)
    except OffManifold:
        sig = retract(part, sig).sigma
    return _result(instance, *_newton(instance, sig, max_iters, tol, 1.0,
                                      raise_on_fail))


def _result(instance, sig, ld, history, iterations, singular):
    """The CriticalPointResult of a finished _newton run."""
    part = instance.partition
    spectrum = np.linalg.eigvalsh(ld.rhess)
    min_abs = float(np.min(np.abs(spectrum)))
    return CriticalPointResult(
        sigma_star=StatePoint(sigma=sig),
        grad_norm=history[-1],
        energy=ld.value / part.N,
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


def _tangent(instance, sig, ld, t):
    """d sigma/dt of the homotopy branch through the critical point sig.

    With the degree >= 2 parts weighted by t > 0, differentiating
    rgrad(sigma(t), t) = 0 gives rhess d = -P_sigma grad H_{>=2}(sigma),
    with ld the local data at sig and weights t.  Since ld.egrad is
    grad H_1 + t grad H_{>=2}, the degree >= 2 gradient is read off it
    without contracting the tensors again.  Returns the ambient vector;
    raises LinAlgError when rhess is singular.
    """
    part = instance.partition
    g_red = _reduced(ld.reflectors, part,
                     (ld.egrad - instance.external_field) / t)
    return _ambient(ld.reflectors, part, np.linalg.solve(ld.rhess, -g_red))


def follow_critical_points(instance: HamiltonianInstance, delta,
                           steps: int = 40) -> CriticalPointResult:
    """Track the type-delta critical point while the disorder switches on.

    At t = 0 only the degree-1 part acts and the critical point is the
    signed alignment with its coefficient field; the degree >= 2 parts are
    scaled by t, which walks the grid k/steps: steps is the finest
    resolution, and t = 1 is reached exactly.  The walk is an Euler-Newton
    predictor-corrector (Allgower-Georg, Numerical Continuation Methods,
    1990): each step of m grid units is predicted along the branch tangent,
    in closed form at t = 0 (_start_tangent) and by one solve after it
    (_tangent), and corrected by Newton to STEP_TOL.  The first step is
    m = max(1, steps // 4) units (FIRST_STEP).  A one-unit step always
    advances, with up to 40 corrector iterations and the best iterate
    carried forward.  A longer step advances only if its corrector
    converges within LONG_STEP_ITERS, lands within LONG_STEP_JUMP sqrt(N)
    of the prediction and keeps the predicted index sum_{delta_s = -1}
    (N_s - 1); otherwise m is halved and the step retried from the last
    accepted point.  A step whose corrector converged within EASY_ITERS
    iterations doubles m.  At t = 1 Newton
    polishes to NEWTON_TOL, and the endpoint counts as the type-delta
    point only if it converged, has the predicted index, and its radial
    derivative lies nearest the ideal_stats prediction for delta.
    Otherwise one soft-mode hop (_soft_hop) looks for such a point beside
    it; if none passes, LostTrack.

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
        pred = sigma
        if tangent is not None:
            pred = retract(part, sigma + tangent * m / steps).sigma
        if m == 1:
            # a fold can briefly swallow the branch mid-path, so stalls
            # carry the best iterate forward; only the endpoint is judged
            sigma, ld, history, iters, _ = _newton(instance, pred, 40,
                                                   STEP_TOL, t, False)
        else:
            step = _long_step(instance, pred, t, up)
            if step is None:
                m //= 2
                continue
            sigma, ld, history, iters = step
        k += m
        if iters <= EASY_ITERS and history[-1] <= STEP_TOL:
            m *= 2
        if k < steps:
            try:
                tangent = _tangent(instance, sigma, ld, k / steps)
            except np.linalg.LinAlgError:
                tangent = None
            # the next step needs only the tangent, so this point's Hessian
            # is freed before the next corrector builds its own
            ld = step = None
    # the last corrector ran at t = 1: its LocalData starts the polish
    res = _result(instance, *_newton(instance, sigma, 40, NEWTON_TOL, t,
                                     False, ld))
    if not is_type_delta(res):
        res = _soft_hop(instance, res.sigma_star.sigma, is_type_delta)
        if res is None:
            raise LostTrack(f"homotopy for delta={ints} ended off the "
                            "type-delta critical point")
    return replace(res, delta=ints)


def _start_tangent(instance, sig):
    """_tangent at t = 0, where sig is a signed alignment with the field.

    H_0 = H_1 is linear, so the reduced Hessian there is -theta_0 on each
    species' tangent space, theta_0 = <sig_s, g_1>/N_s its curvature with
    g_1 the external_field, and rhess d = -P grad H_{>=2} solves in closed
    form.  P g_1 = 0 at sig, so P grad H_{>=2} is the Riemannian gradient
    of H at sig: one contraction and no Hessian.
    """
    part = instance.partition
    theta = part.block_sums(sig * instance.external_field) / part.sizes
    return local_data(instance, sig).rgrad / theta[part.labels]


def _long_step(instance, pred, t, up):
    """Correct a homotopy step longer than one grid unit, if it is safe.

    Returns (sigma, LocalData, grad_norm history, iterations) when Newton
    reaches STEP_TOL within LONG_STEP_ITERS, lands within LONG_STEP_JUMP
    sqrt(N) of the prediction pred and the Hessian there has the index
    up.sum(); otherwise None, and the caller shortens the step.
    """
    try:
        sig, ld, history, iters, _ = _newton(instance, pred, LONG_STEP_ITERS,
                                             STEP_TOL, t, True)
    except MaxIters:
        return None
    jump = np.linalg.norm(sig - pred) / np.sqrt(instance.partition.N)
    if jump > LONG_STEP_JUMP or not _has_index(ld.rhess, up):
        return None
    return sig, ld, history, iters


def _has_index(rhess, up):
    """Whether exactly up.sum() eigenvalues of rhess exceed ZERO_EIG.

    up marks the delta_s = -1 coordinates, which should carry them.  By
    Haynsworth, In(A) = In(A_pp) + In(A/A_pp) for A = rhess - ZERO_EIG I
    and a definite pivot block: Cholesky tests the delta_s = +1 block for
    negative and its Schur complement for positive definiteness, else the
    delta_s = -1 block for positive and its complement for negative
    definiteness; eigvalsh decides when neither block is definite.  Each
    block is read in place, a slice where its coordinates are contiguous;
    only the pivot and complement copies carry the ZERO_EIG shift.
    """
    plus, minus = _coords(~up), _coords(up)
    for sign, p, q in ((-1.0, plus, minus), (1.0, minus, plus)):
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
    return np.count_nonzero(np.linalg.eigvalsh(rhess) > ZERO_EIG) == up.sum()


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
    direction = _ambient(ld.reflectors, part, soft)
    for amp in (0.3, 1.0, 3.0, 6.0):
        for sign in (1.0, -1.0):
            start = retract(part, sigma + sign * amp * direction)
            cand = newton_refine(instance, start, max_iters=40,
                                 raise_on_fail=False)
            if accept(cand):
                return cand
    return None
