"""Finite-N critical points of sampled Hamiltonians.

Homotopy following from the pure external-field landscape, with each
endpoint labelled by the paper's predicted index and radial derivative,
damped tangent-space Newton refinement, classification against the
closed-form predictions, spectrum comparison, and random-start surveys
for approximate critical points.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dyson import SpectralMeasure, spectral_measure
from .errors import (LostTrack, MaxIters, NumericalError, OffManifold,
                     ValidationError, ZeroComponent)
from .hamiltonian import (HamiltonianInstance, StatePoint, _as_sigma,
                          check_on_manifold, g1_overlap, local_data,
                          random_state, retract)
from .mixture import (MixtureSpec, all_sign_patterns, classify_solvability,
                      ideal_stats)
from .mixture import stats as mixture_stats

UNCLASSIFIED = "unclassified"
NEWTON_TOL = 1e-10
# intermediate homotopy points only seed the next prediction; at 1e-6 they
# sit about 1e-6 sqrt(N)/gap off the branch, far inside DEDUP_RADIUS sqrt(N)
STEP_TOL = 1e-6
SINGULAR_EIG = 1e-6
ZERO_EIG = 1e-8
DEDUP_RADIUS = 1e-4
W2_NODES = 10000
SUPPORT_NODES = 2000


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


@dataclass(frozen=True)
class ComparisonReport:
    w2: float
    hausdorff: float
    gap_at_zero: float


@dataclass(frozen=True)
class TypicalityFlags:
    energy: bool
    overlap: bool
    bulk: bool


@dataclass(frozen=True)
class SurveyReport:
    """Counts per sign pattern plus the distinct exact points found."""

    counts: dict
    n_exact: int
    unclassified: int
    max_dist_to_followed: object
    points: tuple


def _as_delta(delta, r: int):
    arr = np.asarray(delta, dtype=float)
    if arr.shape != (r,) or not np.all(np.abs(arr) == 1.0):
        raise ValidationError(f"delta must be a vector of +-1 of length {r}")
    return tuple(int(v) for v in arr), arr


def scale(vec, delta, q, partition):
    """Species-wise signed rescaling of vec to radii q.

    Block s becomes delta_s sqrt(q_s N_s) vec_s/||vec_s||, so its squared
    norm over N_s is exactly q_s.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (partition.N,):
        raise ValidationError(f"vec must have shape ({partition.N},)")
    _, arr = _as_delta(delta, partition.r)
    q = np.asarray(q, dtype=float)
    if q.shape != (partition.r,) or np.any(q < 0):
        raise ValidationError("q must be a nonnegative vector of length r")
    out = np.empty(partition.N)
    for s, sl in enumerate(partition.slices()):
        nrm = float(np.linalg.norm(vec[sl]))
        if nrm < 1e-300:
            raise ZeroComponent(f"species {s} block of vec vanishes")
        out[sl] = (arr[s] * np.sqrt(q[s] * partition.sizes[s]) / nrm) * vec[sl]
    return out


def _reduced(blocks, partition, vec):
    return np.concatenate([blocks[s].T @ vec[sl]
                           for s, sl in enumerate(partition.slices())])


def _ambient(blocks, partition, red):
    out = np.zeros(partition.N)
    off = 0
    for s, sl in enumerate(partition.slices()):
        w = int(partition.sizes[s]) - 1
        out[sl] = blocks[s] @ red[off:off + w]
        off += w
    return out


def _try_step(instance, sig, ld, h, gn, degree_weights, halvings):
    """Backtracking search along the reduced step h from sig.

    The step is capped at 0.5 sqrt(N) and halved until the gradient norm
    falls to (1 - alpha/10) gn.  Only the full-length trial (alpha = 1)
    carries its Hessian.  Returns the accepted (sigma, LocalData) or None.
    """
    part = instance.partition
    step = _ambient(ld.basis, part, h)
    cap = 0.5 * np.sqrt(part.N)
    snorm = float(np.linalg.norm(step))
    if snorm > cap:
        step *= cap / snorm
    alpha = 1.0
    for _ in range(halvings):
        cand = retract(part, sig + alpha * step).sigma
        trial = local_data(instance, cand, want_hessian=alpha == 1.0,
                           degree_weights=degree_weights)
        gn2 = float(np.linalg.norm(trial.rgrad)) / np.sqrt(part.N)
        if np.isfinite(gn2) and gn2 <= (1.0 - 0.1 * alpha) * gn:
            return cand, trial
        alpha *= 0.5
    return None


def _newton(instance, sig, max_iters, tol, degree_weights, raise_on_fail):
    """The Newton loop of newton_refine on an on-manifold sig.

    Returns (sigma, LocalData with Hessian, grad_norm history, iterations,
    singular), singular meaning the eigh ladder dropped a soft mode.
    """
    part = instance.partition
    sqrt_n = np.sqrt(part.N)
    history = []
    singular = False
    iterations = 0
    ld = local_data(instance, sig, want_hessian=True,
                    degree_weights=degree_weights)
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
        g_red = _reduced(ld.basis, part, ld.rgrad)
        accepted = None
        try:
            h = -np.linalg.solve(ld.rhess, g_red)
        except np.linalg.LinAlgError:
            h = None
        if h is not None and np.all(np.isfinite(h)):
            accepted = _try_step(instance, sig, ld, h, gn, degree_weights, 1)
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
                accepted = _try_step(instance, sig, ld, h, gn,
                                     degree_weights, 20)
                if accepted is not None:
                    break
        if accepted is None:
            if raise_on_fail:
                raise MaxIters("newton line search stalled")
            break
        sig, ld = accepted
        if ld.rhess is None:
            ld = local_data(instance, sig, want_hessian=True,
                            degree_weights=degree_weights)
        iterations += 1
    return sig, ld, history, iterations, singular


def newton_refine(instance: HamiltonianInstance, sigma0, max_iters: int = 50,
                  tol: float = NEWTON_TOL, degree_weights=None,
                  raise_on_fail: bool = True) -> CriticalPointResult:
    """Tangent-space Newton for the Riemannian gradient.

    The convergence test runs before any step, so a point already at
    tolerance comes back unchanged with 0 iterations.  Each iteration
    first tries the plain step, an LU solve with the reduced Hessian, at
    full length.  Only if the solve fails or that trial does not cut the
    gradient norm by 10% does it fall back to an eigh ladder: the
    pseudo-inverse step without the modes of |eigenvalue| < 1e-6, then
    four increasing damping levels, each backtracked up to 20 times.
    Steps are capped at 0.5 sqrt(N).  The accepted full-length trial
    carries its Hessian into the next iteration; an accepted backtracked
    one is evaluated again with it.  ill_conditioned is set when the
    final spectrum has an |eigenvalue| < 1e-6 or the ladder dropped a
    mode on the way.  Raises MaxIters when the budget runs out or the
    search stalls, unless raise_on_fail is off, in which case the best
    iterate is returned with its unconverged grad_norm.
    """
    part = instance.partition
    sig = _as_sigma(sigma0)
    try:
        check_on_manifold(part, sig)
    except OffManifold:
        sig = retract(part, sig).sigma
    sig, ld, history, iterations, singular = _newton(
        instance, sig, max_iters, tol, degree_weights, raise_on_fail)
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
    g1 = instance.gamma_tables[1][part.labels] * instance.tensors[1]
    g_red = _reduced(ld.basis, part, (ld.egrad - g1) / t)
    return _ambient(ld.basis, part, np.linalg.solve(ld.rhess, -g_red))


def follow_critical_points(instance: HamiltonianInstance, delta,
                           steps: int = 40) -> CriticalPointResult:
    """Track the type-delta critical point while the disorder switches on.

    At t=0 only the degree-1 part acts and the critical point is the
    signed alignment with its coefficient field; the degree >= 2 parts are
    scaled by t over a uniform grid of steps points, walked once.  From
    the second point on, each step is predicted along the branch tangent
    (an Euler step, see _tangent) and corrected by Newton, to STEP_TOL for
    t < 1 and to NEWTON_TOL at t = 1.  The endpoint counts as the
    type-delta point only if it converged, has the predicted index
    sum_{delta_s = -1} (N_s - 1), and its radial derivative lies nearest
    the ideal_stats prediction for delta.  Otherwise one soft-mode hop
    (_soft_hop) looks for such a point beside it; if none passes, LostTrack.
    """
    part = instance.partition
    ints, arr = _as_delta(delta, part.r)
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if 1 not in instance.tensors or np.any(instance.mixture.gamma1 <= 0):
        raise ValidationError(
            "homotopy needs a degree-1 component in every species")
    label = classify_solvability(instance.mixture).label
    if label != "strictly_super_solvable":
        warnings.warn("mixture is not strictly super-solvable; the homotopy "
                      "path is not guaranteed to stay on one branch")
    degrees = sorted(instance.tensors)
    expected = int(np.sum((part.sizes - 1)[arr < 0]))
    predictions = [ideal_stats(instance.mixture, d)
                   for d in all_sign_patterns(part.r)]

    def is_type_delta(res):
        return (res.grad_norm <= NEWTON_TOL and res.index == expected
                and _assign_delta(predictions, res.radial, np.inf) == ints)

    sigma = scale(instance.tensors[1], arr, np.ones(part.r), part)
    ld = None
    for i in range(1, steps + 1):
        wts = {k: (1.0 if k == 1 else i / steps) for k in degrees}
        if ld is not None:
            try:
                d = _tangent(instance, sigma, ld, (i - 1) / steps)
                sigma = retract(part, sigma + d / steps).sigma
            except np.linalg.LinAlgError:
                pass
        # a fold can briefly swallow the branch mid-path, so stalls carry
        # the best iterate forward; only the endpoint is judged
        if i < steps:
            sigma, ld, _, _, _ = _newton(instance, sigma, 40, STEP_TOL, wts,
                                         False)
    res = newton_refine(instance, sigma, max_iters=40, degree_weights=wts,
                        raise_on_fail=False)
    if not is_type_delta(res):
        res = _soft_hop(instance, res.sigma_star.sigma, is_type_delta)
        if res is None:
            raise LostTrack(f"homotopy for delta={ints} ended off the "
                            "type-delta critical point")
    return replace(res, delta=ints)


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
    direction = _ambient(ld.basis, part, soft)
    for amp in (0.3, 1.0, 3.0, 6.0):
        for sign in (1.0, -1.0):
            start = retract(part, sigma + sign * amp * direction)
            cand = newton_refine(instance, start, max_iters=40,
                                 raise_on_fail=False)
            if accept(cand):
                return cand
    return None


def _assign_delta(predictions, radial, eps: float):
    dists = [float(np.max(np.abs(radial - p.radial))) for p in predictions]
    best = int(np.argmin(dists))
    if dists[best] <= eps:
        return tuple(int(v) for v in predictions[best].delta)
    return UNCLASSIFIED


def classify_point(instance: HamiltonianInstance, predictions, result,
                   eps: float = 0.15):
    """Nearest-prediction label and three typicality flags.

    The radial-derivative vector picks the sign pattern; energy and
    degree-1 overlap are then tested against their conditional means
    given that vector, and the spectrum against the predicted limit
    measure, all with the species proportions N_s/N of the instance.
    """
    predictions = list(predictions)
    if not predictions:
        raise ValidationError("need at least one prediction")
    label = _assign_delta(predictions, np.asarray(result.radial, float), eps)
    part = instance.partition
    spec = instance.mixture
    spec_n = MixtureSpec(r=spec.r, lam=part.lam_N, coeffs=spec.coeffs,
                         max_degree=spec.max_degree)
    st = mixture_stats(spec_n)
    lam = part.lam_N
    x = np.asarray(result.radial, float)
    pulled = np.linalg.solve(st.A, np.sqrt(lam) * x)
    energy_target = float(st.xi_prime @ pulled)
    overlap_target = spec.gamma1 * pulled / np.sqrt(lam)
    energy_ok = bool(abs(result.energy - energy_target) <= eps)
    overlap_ok = bool(
        np.max(np.abs(result.g1_overlap - overlap_target)) <= eps)
    measure = spectral_measure(st, x, sizes=part.sizes)
    rep = spectrum_compare(instance, result, measure)
    bulk_ok = bool(rep.w2 <= eps and rep.hausdorff <= eps)
    return label, TypicalityFlags(energy=energy_ok, overlap=overlap_ok,
                                  bulk=bulk_ok)


def _quantiles_from_atoms(atoms, probs):
    idx = np.minimum((probs * atoms.shape[0]).astype(int),
                     atoms.shape[0] - 1)
    return atoms[idx]


def _quantiles_from_measure(measure: SpectralMeasure, probs):
    wgt = measure.density * np.gradient(measure.grid)
    total = float(wgt.sum())
    if total <= 0:
        raise NumericalError("spectral measure carries no mass")
    cum = np.cumsum(wgt) / total
    idx = np.clip(np.searchsorted(cum, probs, side="left"), 0,
                  measure.grid.shape[0] - 1)
    return measure.grid[idx]


def _directed_set_dist(points, targets):
    pos = np.searchsorted(targets, points)
    lo = np.abs(points - targets[np.clip(pos - 1, 0, targets.shape[0] - 1)])
    hi = np.abs(points - targets[np.clip(pos, 0, targets.shape[0] - 1)])
    return float(np.max(np.minimum(lo, hi)))


def spectrum_compare(instance, result, measure) -> ComparisonReport:
    """Quantile W2, support Hausdorff distance, and the gap at zero.

    result may be a CriticalPointResult or a plain array of eigenvalues;
    measure a SpectralMeasure or a second eigenvalue array (then both
    sides are treated as atomic).  The instance is not consulted.
    """
    if isinstance(result, CriticalPointResult):
        eigs = np.asarray(result.spectrum, dtype=float)
    else:
        eigs = np.sort(np.asarray(result, dtype=float).ravel())
    if eigs.size == 0:
        raise ValidationError("empty spectrum")
    probs = (np.arange(W2_NODES) + 0.5) / W2_NODES
    q_emp = _quantiles_from_atoms(eigs, probs)
    if isinstance(measure, SpectralMeasure):
        q_ref = _quantiles_from_measure(measure, probs)
        if not measure.support:
            raise NumericalError("spectral measure has empty support")
        to_support = np.full(eigs.shape, np.inf)
        chunks = []
        for lo, hi in measure.support:
            to_support = np.minimum(
                to_support, np.maximum.reduce([lo - eigs, eigs - hi,
                                               np.zeros_like(eigs)]))
            chunks.append(np.linspace(lo, hi, SUPPORT_NODES))
        haus = max(float(np.max(to_support)),
                   _directed_set_dist(np.concatenate(chunks), eigs))
    else:
        ref = np.sort(np.asarray(measure, dtype=float).ravel())
        if ref.size == 0:
            raise ValidationError("empty reference spectrum")
        q_ref = _quantiles_from_atoms(ref, probs)
        haus = max(_directed_set_dist(eigs, ref),
                   _directed_set_dist(ref, eigs))
    w2 = float(np.sqrt(np.mean((q_emp - q_ref) ** 2)))
    return ComparisonReport(w2=w2, hausdorff=haus,
                            gap_at_zero=float(np.min(np.abs(eigs))))


def _descend_grad_norm(instance: HamiltonianInstance, sig, iters: int):
    # minimizes ||rgrad||^2; the direction rhess @ g_red is its reduced
    # gradient up to curvature terms, which a line search absorbs
    part = instance.partition
    sqrt_n = np.sqrt(part.N)
    ld = local_data(instance, sig, want_hessian=True)
    val = float(ld.rgrad @ ld.rgrad)
    eta = 0.02 * sqrt_n
    floor = 1e-9 * sqrt_n
    for _ in range(iters):
        g_red = _reduced(ld.basis, part, ld.rgrad)
        direction = ld.rhess @ g_red
        dn = float(np.linalg.norm(direction))
        if dn < 1e-14 or val < 1e-28:
            break
        step = _ambient(ld.basis, part, direction) * (-1.0 / dn)
        moved = False
        while eta > floor:
            cand = retract(part, sig + eta * step).sigma
            trial = local_data(instance, cand)
            v2 = float(trial.rgrad @ trial.rgrad)
            if np.isfinite(v2) and v2 < val:
                sig, val, moved = cand, v2, True
                eta = min(eta * 1.3, 0.2 * sqrt_n)
                break
            eta *= 0.5
        if not moved:
            break
        ld = local_data(instance, sig, want_hessian=True)
    return sig


def survey_approx_crits(instance: HamiltonianInstance, predictions,
                        n_starts: int, eps: float, seed=0, followed=None,
                        descent_iters: int = 60) -> SurveyReport:
    """Hunt for approximate critical points from random starts.

    Each start descends the squared gradient norm and then attempts a
    Newton refinement; a point counts when its scaled gradient norm ends
    below max(eps, 1e-10), so eps=0 keeps only Newton-converged points.
    Counted points are classified by radial derivative at tolerance eps,
    exact ones deduplicated at radius 1e-4 sqrt(N).  Start i uses the
    seed pair (seed, i), so starts are independent and reorderable.
    """
    part = instance.partition
    predictions = list(predictions)
    if not predictions:
        raise ValidationError("need at least one prediction")
    if n_starts < 1:
        raise ValidationError("n_starts must be >= 1")
    if eps < 0:
        raise ValidationError("eps must be >= 0")
    sqrt_n = np.sqrt(part.N)
    thresh = max(eps, NEWTON_TOL)
    counts = {tuple(int(v) for v in p.delta): 0 for p in predictions}
    unclassified = 0
    exact_sigmas = []
    exact_points = []
    max_dist = 0.0 if followed else None
    for i in range(n_starts):
        sig = random_state(part, np.random.default_rng((seed, i))).sigma
        sig = _descend_grad_norm(instance, sig, descent_iters)
        converged = False
        try:
            res = newton_refine(instance, sig, max_iters=40)
            converged = True
            sig = res.sigma_star.sigma
            gn, radial = res.grad_norm, res.radial
        except (MaxIters, NumericalError):
            ld = local_data(instance, sig)
            gn = float(np.linalg.norm(ld.rgrad)) / sqrt_n
            radial = ld.radial
        if gn > thresh:
            continue
        label = _assign_delta(predictions, radial, eps)
        if label == UNCLASSIFIED:
            unclassified += 1
        else:
            counts[label] += 1
        if converged:
            if all(float(np.linalg.norm(sig - known)) > DEDUP_RADIUS * sqrt_n
                   for known in exact_sigmas):
                exact_sigmas.append(sig)
                exact_points.append(replace(res, delta=label))
        if followed:
            pool = [f for f in followed if f.delta == label] or list(followed)
            dist = min(float(np.linalg.norm(sig - f.sigma_star.sigma))
                       for f in pool)
            max_dist = max(max_dist, dist)
    return SurveyReport(counts=counts, n_exact=len(exact_points),
                        unclassified=unclassified,
                        max_dist_to_followed=max_dist,
                        points=tuple(exact_points))

