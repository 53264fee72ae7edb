"""Finite-N critical points of sampled Hamiltonians.

Homotopy following from the pure external-field landscape, damped
tangent-space Newton refinement, classification against the closed-form
predictions, spectrum comparison, recursive band construction, and
random-start surveys for approximate critical points.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dyson import SpectralMeasure, spectral_measure
from .errors import (DegenerateGradient, LostTrack, MaxIters, NumericalError,
                     OffManifold, ValidationError, ZeroComponent)
from .hamiltonian import (HamiltonianInstance, StatePoint, _as_sigma,
                          check_on_manifold, g1_overlap, local_data,
                          random_state, raw_gradient, retract, tangent_basis)
from .mixture import MixtureSpec, classify_solvability, recursion_radii
from .mixture import stats as mixture_stats

UNCLASSIFIED = "unclassified"
NEWTON_TOL = 1e-10
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
    1e-8; any eigenvalue inside that window sets ill_conditioned instead
    of guessing a sign.  delta is a sign tuple once classified.
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
class BandState:
    k: int
    R_k: np.ndarray
    m_k: np.ndarray
    U_k: np.ndarray
    g_k: np.ndarray


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


def newton_refine(instance: HamiltonianInstance, sigma0, max_iters: int = 50,
                  tol: float = NEWTON_TOL, degree_weights=None,
                  raise_on_fail: bool = True) -> CriticalPointResult:
    """Damped tangent-space Newton for the Riemannian gradient.

    The convergence test runs before any step, so a point already at
    tolerance comes back unchanged with 0 iterations.  Hessian modes with
    |eigenvalue| < 1e-6 are dropped from the solve (a pseudo-inverse
    step) and the point is flagged ill conditioned rather than rejected.
    Steps are capped at 0.5 sqrt(N) and backtracked on the residual norm.
    A full-length trial (alpha = 1) carries its Hessian, so when it is
    accepted, as it nearly always is near a critical point, it is the next
    iterate's local data as it stands.  Backtracked trials skip the
    Hessian and an accepted one is evaluated again with it; a rejected
    full-length trial pays for a Hessian it does not use.
    Raises MaxIters when the budget runs out or the search stalls, unless
    raise_on_fail is off, in which case the best iterate is returned with
    its unconverged grad_norm.
    """
    part = instance.partition
    sig = _as_sigma(sigma0)
    try:
        check_on_manifold(part, sig)
    except OffManifold:
        sig = retract(part, sig).sigma
    sqrt_n = np.sqrt(part.N)
    cap = 0.5 * sqrt_n
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
        blocks = tangent_basis(part, sig)
        g_red = _reduced(blocks, part, ld.rgrad)
        eigs, vecs = np.linalg.eigh(ld.rhess)
        scale_w = float(np.max(np.abs(eigs)))
        if scale_w < SINGULAR_EIG:
            raise MaxIters("hessian numerically zero, no newton step")
        coef = vecs.T @ g_red
        accepted = None
        # mu=0 is the plain newton step; soft hessian modes overshoot when
        # the spectral gap pinches, so failures escalate the damping
        for mu in (0.0, 1e-3 * scale_w, 1e-2 * scale_w, 0.1 * scale_w,
                   scale_w):
            if mu == 0.0:
                keep = np.abs(eigs) >= SINGULAR_EIG
                if not np.all(keep):
                    singular = True
                h = -(vecs[:, keep] @ (coef[keep] / eigs[keep]))
            else:
                h = -(vecs @ (coef * eigs / (eigs ** 2 + mu ** 2)))
            step = _ambient(blocks, part, h)
            snorm = float(np.linalg.norm(step))
            if snorm > cap:
                step *= cap / snorm
            alpha = 1.0
            for _ in range(20):
                cand = retract(part, sig + alpha * step).sigma
                trial = local_data(instance, cand, want_hessian=alpha == 1.0,
                                   degree_weights=degree_weights)
                gn2 = float(np.linalg.norm(trial.rgrad)) / sqrt_n
                if np.isfinite(gn2) and gn2 <= (1.0 - 0.1 * alpha) * gn:
                    accepted = cand
                    break
                alpha *= 0.5
            if accepted is not None:
                break
        if accepted is None:
            if raise_on_fail:
                raise MaxIters("newton line search stalled")
            break
        sig, ld = accepted, trial
        if ld.rhess is None:
            ld = local_data(instance, sig, want_hessian=True,
                            degree_weights=degree_weights)
        iterations += 1
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
        ill_conditioned=bool(min_abs < ZERO_EIG or singular),
        iterations=iterations,
        grad_history=tuple(history),
    )


def follow_critical_points(instance: HamiltonianInstance, delta,
                           steps: int = 40) -> CriticalPointResult:
    """Track the type-delta critical point while the disorder switches on.

    At t=0 only the degree-1 part acts and the critical point is the
    signed alignment with its coefficient field; the degree >= 2 parts are
    scaled by t over a uniform grid with a Newton polish per step.  Losing
    the sign pattern of the degree-1 overlap, or a Newton failure,
    triggers one restart with four times the steps before LostTrack.
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

    def attempt(n_steps):
        sigma = scale(instance.tensors[1], arr, np.ones(part.r), part)
        res = None
        for i in range(1, n_steps + 1):
            t = i / n_steps
            wts = {k: (1.0 if k == 1 else t) for k in degrees}
            # a fold can briefly swallow the branch mid-path, so stalls
            # carry the best iterate forward; only t=1 must converge
            res = newton_refine(instance, sigma, max_iters=40,
                                degree_weights=wts, raise_on_fail=False)
            if np.any(np.sign(res.g1_overlap) != arr):
                raise LostTrack(f"overlap sign pattern left {ints} "
                                f"at t={t:.4f}")
            sigma = res.sigma_star.sigma
        if res.grad_norm > NEWTON_TOL:
            res = _soft_hop(instance, arr, expected, sigma)
            if res is None:
                raise MaxIters("homotopy endpoint not converged")
        return res

    try:
        res = attempt(steps)
    except (MaxIters, LostTrack):
        try:
            res = attempt(4 * steps)
        except (MaxIters, LostTrack) as exc:
            raise LostTrack(f"homotopy for delta={ints} failed even with "
                            f"{4 * steps} steps") from exc
    if res.index != expected:
        hopped = _soft_hop(instance, arr, expected, res.sigma_star.sigma)
        if hopped is not None and hopped.index == expected:
            res = hopped
    return replace(res, delta=ints)


def _soft_hop(instance, arr, expected, sigma):
    """Escape a fold by stepping along the softest Hessian mode.

    Near a fold the branch point and a partner of neighboring index sit
    a soft-mode hop apart, and a stalled homotopy can end on either side.
    Returns a converged critical point with the right overlap signs,
    preferring the expected index, or None.
    """
    part = instance.partition
    ld = local_data(instance, sigma, want_hessian=True)
    eigs, vecs = np.linalg.eigh(ld.rhess)
    soft = vecs[:, int(np.argmin(np.abs(eigs)))]
    direction = _ambient(tangent_basis(part, sigma), part, soft)
    fallback = None
    for amp in (0.3, 1.0, 3.0, 6.0):
        for sign in (1.0, -1.0):
            start = retract(part, sigma + sign * amp * direction)
            cand = newton_refine(instance, start, max_iters=40,
                                 raise_on_fail=False)
            if (cand.grad_norm <= NEWTON_TOL
                    and np.all(np.sign(cand.g1_overlap) == arr)):
                if cand.index == expected:
                    return cand
                if fallback is None:
                    fallback = cand
    return fallback


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


def recursive_bands(instance: HamiltonianInstance, delta,
                    k_max: int) -> list:
    """Nested band centers by species-wise rescaling of projected gradients.

    Returns BandStates for k = 0 .. k_max.  The center moves from m_{k-1}
    along the projected gradient, per species, by exactly the radius
    increment from mixture.recursion_radii; U_k accumulates the used unit
    directions, and g_k is the gradient at m_k with those stripped off.
    """
    part = instance.partition
    _, arr = _as_delta(delta, part.r)
    if not 1 <= k_max <= 30:
        raise ValidationError("k_max must be between 1 and 30")
    if np.any(instance.mixture.gamma1 <= 0):
        raise ValidationError("recursive bands need gamma^(1) > 0 "
                              "in every species")
    radii = recursion_radii(instance.mixture, k_max)
    N = part.N
    mk = np.zeros(N)
    U = np.zeros((N, 0))
    gk = raw_gradient(instance, mk)
    states = [BandState(k=0, R_k=radii[0], m_k=mk, U_k=U, g_k=gk)]
    for k in range(1, k_max + 1):
        q = radii[k] - radii[k - 1]
        if np.any(q < -1e-12):
            raise NumericalError("band radii decreased along the recursion")
        q = np.maximum(q, 0.0)
        cols = np.empty((N, part.r))
        m_new = mk.copy()
        for s, sl in enumerate(part.slices()):
            if float(np.linalg.norm(gk[sl])) < 1e-10:
                raise DegenerateGradient(
                    f"projected gradient vanished in species {s} at k={k}")
            col = np.zeros(N)
            col[sl] = gk[sl]
            # strip residual components twice before trusting the norm
            for _ in range(2):
                if U.shape[1]:
                    col -= U @ (U.T @ col)
            nrm = float(np.linalg.norm(col))
            if nrm < 1e-10:
                raise DegenerateGradient(
                    f"gradient direction fell inside U in species {s}")
            col /= nrm
            m_new[sl] = mk[sl] + arr[s] * np.sqrt(q[s] * part.sizes[s]) * col[sl]
            cols[:, s] = col
        U = np.concatenate([U, cols], axis=1)
        mk = m_new
        gk = raw_gradient(instance, mk)
        for _ in range(2):
            gk = gk - U @ (U.T @ gk)
        states.append(BandState(k=k, R_k=radii[k], m_k=mk, U_k=U, g_k=gk))
    return states


def band_distance(state: BandState, sigma) -> float:
    """Distance from sigma to the band through m_k along U_k."""
    sig = _as_sigma(sigma)
    if state.U_k.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(state.U_k.T @ (sig - state.m_k)))


def _descend_grad_norm(instance: HamiltonianInstance, sig, iters: int):
    # minimizes ||rgrad||^2; the direction rhess @ g_red is its reduced
    # gradient up to curvature terms, which a line search absorbs
    part = instance.partition
    sqrt_n = np.sqrt(part.N)
    ld = local_data(instance, sig, want_hessian=True)
    blocks = tangent_basis(part, sig)
    val = float(ld.rgrad @ ld.rgrad)
    eta = 0.02 * sqrt_n
    floor = 1e-9 * sqrt_n
    for _ in range(iters):
        g_red = _reduced(blocks, part, ld.rgrad)
        direction = ld.rhess @ g_red
        dn = float(np.linalg.norm(direction))
        if dn < 1e-14 or val < 1e-28:
            break
        step = _ambient(blocks, part, direction) * (-1.0 / dn)
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
        blocks = tangent_basis(part, sig)
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

