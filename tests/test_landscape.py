import dataclasses
import itertools

import numpy as np
import pytest

from glassland import hamiltonian as ham
from glassland import landscape as ls
from glassland.dyson import spectral_measure
from glassland.errors import LostTrack, MaxIters, ValidationError
from glassland.mixture import (MixtureSpec, all_sign_patterns,
                               classify_solvability, ideal_stats, stats)
from glassland.presets import get_preset

SYM = get_preset("symmetric-pair")
N = 60
# the smallest |eigenvalue| seen was 0.27 on symmetric-pair seeds 0-2, 0.12
# on cubic-pair seed 0 and 0.30 on skew-pair N=40 seed 1
MIN_GAP = 0.1


def _expected_index(inst, delta):
    return int(np.sum((inst.partition.sizes - 1)[np.asarray(delta) < 0]))


def _weights(inst, t):
    return {k: (1.0 if k == 1 else t) for k in inst.tensors}


def _uniform_follow(inst, delta, steps=40):
    # oracle: the homotopy walk with every step one grid unit long, each
    # corrector run to its 40-iteration budget, then the t = 1 polish
    part = inst.partition
    sigma = ls.scale(inst.tensors[1], delta, np.ones(part.r), part)
    ld = None
    for i in range(1, steps + 1):
        wts = _weights(inst, i / steps)
        if ld is not None:
            d = ls._tangent(inst, sigma, ld, (i - 1) / steps)
            sigma = ham.retract(part, sigma + d / steps).sigma
        if i < steps:
            sigma, ld, _, _, _ = ls._newton(inst, sigma, 40, ls.STEP_TOL, wts,
                                            False)
    return ls.newton_refine(inst, sigma, max_iters=40, degree_weights=wts,
                            raise_on_fail=False)


def _assert_same_point(res, oracle):
    assert oracle.grad_norm <= ls.NEWTON_TOL
    assert np.max(np.abs(res.sigma_star.sigma
                         - oracle.sigma_star.sigma)) <= 1e-8


# cubic-pair seed 0 lost its delta=(1,-1) branch before the Euler predictor;
# skew-pair N=40 seed 1 (N_0 = 12) lost two branches to an overlap-sign check
# while every endpoint had its predicted index
@pytest.fixture(scope="module", params=[("symmetric-pair", N, 0),
                                        ("symmetric-pair", N, 1),
                                        ("symmetric-pair", N, 2),
                                        ("cubic-pair", N, 0),
                                        ("skew-pair", 40, 1)],
                ids=["0", "1", "2", "cubic-pair-0", "skew-pair-40-1"])
def followed(request):
    preset, n, seed = request.param
    inst = ham.sample(get_preset(preset), n, seed=seed)
    return inst, [ls.follow_critical_points(inst, delta)
                  for delta in all_sign_patterns(inst.mixture.r)]


def test_trivialization_in_miniature(followed):
    # strictly super-solvable: one well-conditioned critical point per sign
    # pattern, of index sum_{delta_s = -1} (N_s - 1), whose radial
    # derivative lies nearest the prediction for its own pattern
    inst, results = followed
    patterns = all_sign_patterns(inst.mixture.r)
    predictions = [ideal_stats(inst.mixture, d) for d in patterns]
    assert len(results) == len(patterns)
    for res in results:
        assert res.grad_norm <= ls.NEWTON_TOL
        assert res.index == _expected_index(inst, res.delta)
        assert res.min_abs_eig >= MIN_GAP
        assert not res.ill_conditioned
        dists = [np.max(np.abs(res.radial - p.radial)) for p in predictions]
        assert tuple(predictions[int(np.argmin(dists))].delta) == res.delta


def test_followed_points_match_uniform_walk(followed):
    # the adaptive step must end where the uniform walk ends, which checks
    # the branch independently of the endpoint acceptance rule
    inst, results = followed
    for res in results:
        _assert_same_point(res, _uniform_follow(inst, res.delta))


# a weaker step control switched branch on each: a step guarded only by the
# jump from its prediction took skew-pair N=60 seed 1 from index 17 to 16 and
# then lost track (the index guard is needed); a step guarded only by the
# index ended cubic-pair N=120 seed 3 at another critical point of the same
# index and radial label, 3.65 away in max abs (the jump guard is needed)
@pytest.mark.parametrize("preset,n,seed,delta",
                         [("skew-pair", 60, 1, (-1, 1)),
                          ("cubic-pair", 120, 3, (-1, -1))],
                         ids=["skew-pair-60-1", "cubic-pair-120-3"])
def test_long_steps_stay_on_branch(preset, n, seed, delta):
    inst = ham.sample(get_preset(preset), n, seed=seed)
    _assert_same_point(ls.follow_critical_points(inst, delta),
                       _uniform_follow(inst, delta))


def test_adaptive_step_halves_the_work(monkeypatch):
    # 80 local_data calls against the uniform walk's 328 over the four
    # patterns; a step control that fell back to uniform steps would fail
    inst = ham.sample(SYM, N, seed=0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return ham.local_data(*args, **kwargs)

    monkeypatch.setattr(ls, "local_data", counted)
    counts = []
    for follow in (ls.follow_critical_points, _uniform_follow):
        calls.clear()
        for delta in all_sign_patterns(inst.mixture.r):
            follow(inst, delta)
        counts.append(len(calls))
    assert counts[0] <= counts[1] / 2


def test_follow_evaluates_endpoint_once(monkeypatch):
    # the walk's last corrector ran at the full weights, so the t = 1
    # polish starts from its LocalData instead of evaluating it again
    inst = ham.sample(SYM, N, seed=1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return ham.local_data(*args, **kwargs)

    monkeypatch.setattr(ls, "local_data", counted)
    newton = ls._newton
    counts, points = [], []
    for handed in (True, False):
        if not handed:
            monkeypatch.setattr(ls, "_newton", lambda *args: newton(*args[:6]))
        for delta in all_sign_patterns(inst.mixture.r):
            calls.clear()
            points.append(ls.follow_critical_points(inst, delta))
            counts.append(len(calls))
    half = len(counts) // 2
    assert [c + 1 for c in counts[:half]] == counts[half:]
    for once, twice in zip(points[:half], points[half:]):
        assert np.array_equal(once.sigma_star.sigma, twice.sigma_star.sigma)


def test_followed_points_are_distinct(followed):
    inst, results = followed
    radius = ls.DEDUP_RADIUS * np.sqrt(inst.N)
    for a, b in itertools.combinations(results, 2):
        dist = np.linalg.norm(a.sigma_star.sigma - b.sigma_star.sigma)
        assert dist > radius


def test_hessian_spectrum_approaches_dyson_measure():
    # at each critical point the reduced Hessian's empirical spectrum tends
    # to the finite-size Dyson measure at its radial derivative; W2 was
    # 0.069-0.135 at N=60 and 0.032-0.050 at N=200 on seed 0, and at most
    # 0.054 at N=200 on seeds 1-2
    w2 = []
    for n in (60, 200):
        inst = ham.sample(SYM, n, seed=0)
        part = inst.partition
        st = stats(dataclasses.replace(SYM, lam=part.lam_N))
        row = []
        for delta in all_sign_patterns(SYM.r):
            res = ls.follow_critical_points(inst, delta)
            measure = spectral_measure(st, res.radial, sizes=part.sizes)
            row.append(ls.spectrum_compare(inst, res, measure).w2)
        w2.append(row)
    small, large = np.array(w2)
    assert np.all(large < small)
    assert large.max() <= 0.07


def test_follow_validation():
    inst = ham.sample(SYM, 20, seed=0)
    with pytest.raises(ValidationError):
        ls.follow_critical_points(inst, (1, 1), steps=0)
    no_field = ham.sample(get_preset("pure3"), 20, seed=0)
    with pytest.raises(ValidationError):
        ls.follow_critical_points(no_field, (1,))


def _homotopy_mixture(spec, t):
    # H_1 + t H_{>=2}, the Hamiltonian at weight t on the homotopy path, has
    # covariance xi_1 + t^2 xi_{>=2}: every coefficient of degree >= 2 times t
    return MixtureSpec(r=spec.r, lam=spec.lam, max_degree=spec.max_degree,
                       coeffs=tuple((deg, idx, g if deg == 1 else t * g)
                                    for deg, idx, g in spec.coeffs))


@pytest.mark.parametrize("preset", ["skew-pair", "cubic-pair",
                                    "symmetric-pair", "three-species"])
def test_homotopy_path_stays_strictly_super_solvable(preset):
    # xi_1 has no second derivative, so with s = t^2
    #   diag(xi_t') - xi_t'' = (1 - s) diag(xi_1') + s (diag(xi') - xi''),
    # a convex combination of two positive definite matrices when every
    # gamma_{1,s} > 0 and xi is strictly super-solvable.  Its smallest
    # eigenvalue is concave in s, so it stays above the chord: every mixture
    # on the path is strictly super-solvable, which is what keeps the
    # critical points of follow_critical_points apart from t = 0 to t = 1
    spec = get_preset(preset)
    assert np.all(spec.gamma1 > 0)
    full = classify_solvability(spec)
    assert full.label == "strictly_super_solvable"
    end = np.diag(stats(spec).xi_prime) - stats(spec).xi_dprime
    start = np.diag(stats(_homotopy_mixture(spec, 0.0)).xi_prime)
    for t in np.linspace(0.0, 1.0, 21):
        path = stats(_homotopy_mixture(spec, t))
        s = t * t
        assert np.allclose(np.diag(path.xi_prime) - path.xi_dprime,
                           (1 - s) * start + s * end, rtol=0, atol=1e-12)
        report = classify_solvability(_homotopy_mixture(spec, t))
        assert report.label == "strictly_super_solvable"
        chord = (1 - s) * start.diagonal().min() + s * full.min_eig
        assert report.min_eig >= chord - 1e-12


def test_small_species_follows_to_predicted_index():
    # the degree-1 overlap of species 0 (N_0 = 12) is small enough to flip
    # sign on the way; the branch still ends at its predicted point
    inst = ham.sample(get_preset("skew-pair"), 40, seed=4)
    res = ls.follow_critical_points(inst, (1, 1))
    assert res.grad_norm <= ls.NEWTON_TOL
    assert res.index == _expected_index(inst, (1, 1))
    assert res.delta == (1, 1)


def test_wrong_endpoint_raises_lost_track():
    # a one-step path from the t = 0 alignment converges to a critical point
    # of index 11, not the predicted 0; it must not come back labelled (1, 1)
    inst = ham.sample(get_preset("skew-pair"), 40, seed=0)
    with pytest.raises(LostTrack):
        ls.follow_critical_points(inst, (1, 1), steps=1)


# both paths end beside a fold: the t = 1 Newton line search stalls at scaled
# gradient 8e-4 and 1e-3, where the smallest |hessian eigenvalue| is 3e-5 and
# 2e-4, and only the soft-mode hop reaches the predicted point
@pytest.mark.parametrize("preset,n,seed,delta",
                         [("skew-pair", 60, 5, (1, -1)),
                          ("cubic-pair", 40, 19, (1, 1))],
                         ids=["skew-pair-60-5", "cubic-pair-40-19"])
def test_soft_hop_rescues_endpoint(monkeypatch, preset, n, seed, delta):
    inst = ham.sample(get_preset(preset), n, seed=seed)
    res = ls.follow_critical_points(inst, delta)
    assert res.grad_norm <= ls.NEWTON_TOL
    assert res.index == _expected_index(inst, delta)
    assert res.delta == delta
    monkeypatch.setattr(ls, "_soft_hop", lambda *args: None)
    with pytest.raises(LostTrack):
        ls.follow_critical_points(inst, delta)


def test_tangent_is_difference_quotient():
    # smooth branch: sigma(t + eps) - sigma(t) = eps * tangent + O(eps^2)
    inst = ham.sample(SYM, N, seed=0)
    end = ls.follow_critical_points(inst, (1, -1)).sigma_star.sigma
    t, eps = 0.5, 1e-4
    at_t = ls.newton_refine(inst, end, degree_weights=_weights(inst, t))
    after = ls.newton_refine(inst, at_t.sigma_star,
                             degree_weights=_weights(inst, t + eps))
    assert not at_t.ill_conditioned
    sig = at_t.sigma_star.sigma
    ld = ham.local_data(inst, sig, want_hessian=True,
                        degree_weights=_weights(inst, t))
    tangent = ls._tangent(inst, sig, ld, t)
    quotient = (after.sigma_star.sigma - sig) / eps
    # the O(eps) term |sigma''| eps/2 measured 0.92 eps |tangent| here
    assert (np.linalg.norm(quotient - tangent)
            <= 2 * eps * np.linalg.norm(tangent))


def test_ladder_fallback_reaches_same_point(monkeypatch):
    inst = ham.sample(SYM, N, seed=1)
    end = ls.follow_critical_points(inst, (1, 1)).sigma_star.sigma
    noise = np.random.default_rng(0).standard_normal(inst.N)
    start = ham.retract(inst.partition, end + 0.05 * noise).sigma
    direct = ls.newton_refine(inst, start)
    calls = []

    def no_solve(*args):
        calls.append(args)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(ls.np.linalg, "solve", no_solve)
    ladder = ls.newton_refine(inst, start)
    assert calls and ladder.iterations == len(calls)
    assert ladder.grad_norm <= ls.NEWTON_TOL
    assert np.max(np.abs(ladder.sigma_star.sigma
                         - direct.sigma_star.sigma)) <= 1e-12


def test_converged_point_returns_unchanged():
    inst = ham.sample(SYM, N, seed=2)
    res = ls.follow_critical_points(inst, (-1, 1))
    again = ls.newton_refine(inst, res.sigma_star)
    assert again.iterations == 0
    assert np.array_equal(again.sigma_star.sigma, res.sigma_star.sigma)
    assert again.grad_history == (res.grad_norm,)


def test_newton_budget_exhausted_raises_max_iters():
    inst = ham.sample(SYM, N, seed=0)
    start = ham.random_state(inst.partition, np.random.default_rng(0))
    with pytest.raises(MaxIters):
        ls.newton_refine(inst, start, max_iters=0)
    res = ls.newton_refine(inst, start, max_iters=0, raise_on_fail=False)
    assert res.iterations == 0
    assert res.grad_norm > ls.NEWTON_TOL
