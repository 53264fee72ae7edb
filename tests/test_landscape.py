import dataclasses
import itertools

import numpy as np
import pytest

from glassland import hamiltonian as ham
from glassland import landscape as ls
from glassland import mixture as mx
from glassland.dyson import spectral_measure
from glassland.errors import LostTrack, MaxIters, OffManifold, ValidationError
from glassland.mixture import (MixtureSpec, all_sign_patterns,
                               classify_solvability, ideal_stats, stats)
from glassland.presets import PRESETS, get_preset

from test_complexity import _cubic_mixture, _relabel

SYM = get_preset("symmetric-pair")
N = 60
# the smallest |eigenvalue| seen was 0.27 on symmetric-pair seeds 0-2, 0.12
# on cubic-pair seed 0 and 0.30 on skew-pair N=40 seed 1
MIN_GAP = 0.1


def _expected_index(inst, delta):
    return int(np.sum((inst.partition.sizes - 1)[np.asarray(delta) < 0]))


def _tangent(inst, sig, ld, t):
    # d sigma/dt at the point of ld, solved on its own from the walk's one
    # right-hand side
    return ld.ambient(np.linalg.solve(ld.rhess, ls._tangent_rhs(inst, ld, t)))


def _uniform_follow(inst, delta, steps=40):
    # oracle: the homotopy walk with every step one grid unit long, each
    # corrector run to 1e-6 within its 40-iteration budget and each tangent
    # solved at the corrected point, then the t = 1 polish.  At the walk's
    # STEP_TOL = 1e-4 this walk lost cubic-pair N=60 seed 0's delta = (1, -1)
    # branch (its endpoint stalled at grad_norm 0.045)
    part = inst.partition
    sigma = ham.retract(part, np.asarray(delta)[part.labels]
                        * inst.tensors[1]).sigma
    ld = None
    for i in range(1, steps + 1):
        t = i / steps
        if ld is not None:
            d = _tangent(inst, sigma, ld, (i - 1) / steps)
            sigma = ham.retract(part, sigma + d / steps).sigma
        if i < steps:
            sigma, ld = ls._newton(inst, sigma, 40, 1e-6, t)[:2]
    return ls._result(inst, *ls._newton(inst, sigma, 40, ls.NEWTON_TOL, t)[:5])


# an ascent stops at this scaled gradient |rgrad|/sqrt(N)
ASCENT_STOP = 1e-3
# Newton-Kantorovich (Blum-Cucker-Shub-Smale 1998): a point of scaled
# gradient g lies about g sqrt(N)/mu from the critical point whose Hessian
# has smallest |eigenvalue| mu; the factor 2 is slack for the change of the
# Hessian over that distance
CERTIFY_SLACK = 2.0


def _ascend(inst, i, sign):
    # oracle: Armijo ascent of sign * H along rgrad from random start i,
    # stopped at ASCENT_STOP or after 300 steps, then polished by Newton;
    # returns the stopped point, its scaled gradient and the polished result
    part = inst.partition
    sig = ham.random_state(part, np.random.default_rng((inst.seed, i))).sigma
    ld = ham.local_data(inst, sig)
    eta = 0.1
    for _ in range(300):
        g2 = float(ld.rgrad @ ld.rgrad)
        if g2 <= ASCENT_STOP ** 2 * part.N:
            break
        cand = ham.retract(part, sig + sign * eta * ld.rgrad).sigma
        trial = ham.local_data(inst, cand)
        if sign * (trial.value - ld.value) >= 0.25 * eta * g2:
            sig, ld, eta = cand, trial, 1.5 * eta
        else:
            eta *= 0.5
    g = float(np.linalg.norm(ld.rgrad)) / np.sqrt(part.N)
    return sig, g, ls.newton_refine(inst, sig, max_iters=40,
                                    raise_on_fail=False)


def _assert_same_point(res, oracle):
    assert oracle.grad_norm <= ls.NEWTON_TOL
    assert np.max(np.abs(res.sigma_star.sigma
                         - oracle.sigma_star.sigma)) <= 1e-8


# unwrapped: both_pivot_orders wraps ls._has_index for the whole module
_has_index = ls._has_index


@pytest.fixture(scope="module", autouse=True)
def both_pivot_orders():
    # every index test made by a follow in this module must come out the
    # same with the larger pivot block tried first
    pivots = ls._pivots

    def checked(rhess, up):
        got = _has_index(rhess, up)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ls, "_pivots", lambda mask: pivots(mask)[::-1])
            assert _has_index(rhess, up) == got
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ls, "_has_index", checked)
        yield


# cubic-pair seed 0 lost its delta=(1,-1) branch before the Euler predictor;
# skew-pair N=40 seed 1 (N_0 = 12) lost two branches to an overlap-sign check
# while every endpoint had its predicted index; both are finite-N
# non-trivial instances with a second critical point (EXTRA_POINTS)
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


# finite-N counterexamples to the count: a second critical point of the
# followed point's index, which the homotopy never visits
EXTRA_POINTS = {
    "cubic-pair-0": "ascent 11 polishes to a second index-0 point, radial "
                    "(1.98, 2.09), 10.97 from the followed all-plus point",
    "skew-pair-40-1": "descents 4, 6, 7, 9, 10 and 11 polish to a second "
                      "minimum, index 38, radial (-3.99, -3.01), 9.82 from "
                      "the followed all-minus point",
}


def test_ascents_end_on_followed_points(request, followed):
    # strictly super-solvable: exactly 2^r critical points, so the all-plus
    # point is the only maximum and the all-minus point the only minimum.
    # 12 ascents and 12 descents must polish to them, and each stopped point,
    # an approximate critical point of scaled gradient g, must already lie
    # within CERTIFY_SLACK g sqrt(N)/mu of it (distance / radius <= 0.50 on
    # symmetric-pair seeds 0-2)
    reason = EXTRA_POINTS.get(request.node.callspec.id)
    if reason:
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason,
                                              raises=AssertionError))
    inst, results = followed
    sqrt_n = np.sqrt(inst.N)
    for sign in (1, -1):
        target = next(res for res in results
                      if res.delta == (sign,) * inst.mixture.r)
        end = target.sigma_star.sigma
        for i in range(12):
            stop, g, res = _ascend(inst, i, sign)
            assert (np.linalg.norm(res.sigma_star.sigma - end)
                    <= ls.DEDUP_RADIUS * sqrt_n)
            assert (np.linalg.norm(stop - end)
                    <= CERTIFY_SLACK * g * sqrt_n / target.min_abs_eig)


def test_ascents_find_many_maxima_without_field():
    # negative control: pure3 is not trivial, and 12 ascents at N=60 reach
    # more than 2^r = 2 distinct maxima (10 were seen)
    inst = ham.sample(get_preset("pure3"), N, seed=0)
    radius = ls.DEDUP_RADIUS * np.sqrt(inst.N)
    maxima = []
    for i in range(12):
        res = _ascend(inst, i, 1)[2]
        sig = res.sigma_star.sigma
        if (res.grad_norm <= ls.NEWTON_TOL and res.index == 0
                and all(np.linalg.norm(sig - m) > radius for m in maxima)):
            maxima.append(sig)
    assert len(maxima) > 2


# a weaker step control switched branch on each: a step guarded only by the
# jump from its prediction took skew-pair N=60 seed 1 from index 17 to 16 and
# then lost track (the index guard is needed); a step guarded only by the
# index ended cubic-pair N=120 seed 3 at another critical point of the same
# index and radial label, 3.65 away in max abs (the jump guard is needed);
# unguarded one-unit steps corrected only to STEP_TOL drifted off the
# cubic-pair N=40 seed 5 branch near t = 0.55 and lost track (UNIT_STEP_TOL
# is needed)
@pytest.mark.parametrize("preset,n,seed,delta",
                         [("skew-pair", 60, 1, (-1, 1)),
                          ("cubic-pair", 120, 3, (-1, -1)),
                          ("cubic-pair", 40, 5, (-1, -1))],
                         ids=["skew-pair-60-1", "cubic-pair-120-3",
                              "cubic-pair-40-5"])
def test_long_steps_stay_on_branch(preset, n, seed, delta):
    inst = ham.sample(get_preset(preset), n, seed=seed)
    _assert_same_point(ls.follow_critical_points(inst, delta),
                       _uniform_follow(inst, delta))


@pytest.mark.parametrize("preset,seed", [("symmetric-pair", 0),
                                         ("symmetric-pair", 1),
                                         ("symmetric-pair", 2),
                                         ("skew-pair", 1), ("cubic-pair", 0)])
def test_loose_correctors_keep_the_endpoints(monkeypatch, preset, seed):
    # intermediate correctors stop at STEP_TOL and a step doubles after one
    # iteration; tight ones (1e-6, doubling after two) must end on the same
    # critical points
    inst = ham.sample(get_preset(preset), 40, seed=seed)
    patterns = all_sign_patterns(inst.mixture.r)
    loose = [ls.follow_critical_points(inst, delta) for delta in patterns]
    monkeypatch.setattr(ls, "STEP_TOL", 1e-6)
    monkeypatch.setattr(ls, "EASY_ITERS", 2)
    for res, delta in zip(loose, patterns):
        tight = ls.follow_critical_points(inst, delta)
        assert np.max(np.abs(res.sigma_star.sigma
                             - tight.sigma_star.sigma)) <= 1e-8
        assert (res.index, res.delta) == (tight.index, tight.delta)


def test_adaptive_step_halves_the_work(monkeypatch):
    # 56 local_data calls against the uniform walk's 328 over the four
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


# not every draw: some patterns halve the first step, on skew-pair at N=40,
# 60, 150 and 200 and on cubic-pair N=40 seeds 0, 1, 10 and 18
@pytest.mark.parametrize("preset,seed", [("symmetric-pair", 0),
                                         ("symmetric-pair", 1),
                                         ("symmetric-pair", 2),
                                         ("three-species", 0)])
def test_first_step_is_a_quarter_of_the_grid(monkeypatch, preset, seed):
    # predicted along the exact t = 0 tangent, the first step reaches
    # t = 1/4 at once: no corrector runs at a t in (0, 1/4)
    inst = ham.sample(get_preset(preset), N, seed=seed)
    weights = []

    def recorded(*args, t=1.0, **kwargs):
        weights.append(t)
        return ham.local_data(*args, t=t, **kwargs)

    monkeypatch.setattr(ls, "local_data", recorded)
    for delta in all_sign_patterns(inst.mixture.r):
        weights.clear()
        ls.follow_critical_points(inst, delta)
        assert ls.FIRST_STEP in weights
        assert not any(0 < t < ls.FIRST_STEP for t in weights)


def test_follow_computes_stats_once(monkeypatch):
    # the solvability label and the 2^r radial predictions share one stats
    inst = ham.sample(SYM, 20, seed=0)
    calls = []

    def counted(spec):
        calls.append(spec)
        return stats(spec)

    monkeypatch.setattr(ls, "stats", counted)
    monkeypatch.setattr(mx, "stats", counted)
    ls.follow_critical_points(inst, (1, -1))
    assert calls == [inst.mixture]


@pytest.mark.parametrize("preset", [name for name in PRESETS
                                    if np.all(get_preset(name).gamma1 > 0)])
def test_start_tangent_is_the_t0_solve(preset):
    # at t = 0 the reduced Hessian is -theta_0 on each species, so the closed
    # form must match the tangent equation rhess d = -P grad H_{>=2} solved
    # with the t = 0 Hessian (they differed by at most 1.2e-15 here)
    inst = ham.sample(get_preset(preset), 40, seed=0)
    part = inst.partition
    for delta in all_sign_patterns(part.r):
        sig = ham.retract(part, delta[part.labels] * inst.tensors[1]).sigma
        ld = ham.local_data(inst, sig, want_hessian=True, t=0.0)
        rest = ham.local_data(inst, sig).egrad - inst.external_field
        solved = ld.ambient(np.linalg.solve(ld.rhess, -ld.tangent(rest)))
        assert (np.abs(ls._start_tangent(inst, sig) - solved).max()
                <= 1e-13)


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
            monkeypatch.setattr(ls, "_newton", lambda *args: newton(
                *args[:5], None, *args[6:]))
        for delta in all_sign_patterns(inst.mixture.r):
            calls.clear()
            points.append(ls.follow_critical_points(inst, delta))
            counts.append(len(calls))
    half = len(counts) // 2
    assert [c + 1 for c in counts[:half]] == counts[half:]
    for once, twice in zip(points[:half], points[half:]):
        assert np.array_equal(once.sigma_star.sigma, twice.sigma_star.sigma)


def test_tangent_shares_the_newton_lu(monkeypatch):
    # no tangent has an LU of its own: below t = 1 each plain Newton step
    # solves its step and the branch tangent as two columns of one LU, so
    # the (N - r)-sized solves pair off with the plain steps in order
    inst = ham.sample(SYM, N, seed=0)
    n = inst.N - inst.mixture.r
    solve, try_step = np.linalg.solve, ls._try_step
    solves, plain = [], []

    def counted_solve(a, b):
        if a.shape[0] == n:
            solves.append(np.shape(b)[1:] == (2,))
        return solve(a, b)

    def counted_try(*args):
        if args[6] == 1:
            plain.append(args[5] < 1)
        return try_step(*args)

    monkeypatch.setattr(ls.np.linalg, "solve", counted_solve)
    monkeypatch.setattr(ls, "_try_step", counted_try)
    for delta in all_sign_patterns(inst.mixture.r):
        ls.follow_critical_points(inst, delta)
    assert solves == plain
    assert any(plain) and not all(plain)


def test_followed_points_are_distinct(followed):
    inst, results = followed
    radius = ls.DEDUP_RADIUS * np.sqrt(inst.N)
    for a, b in itertools.combinations(results, 2):
        dist = np.linalg.norm(a.sigma_star.sigma - b.sigma_star.sigma)
        assert dist > radius


def _quantile_w2(eigs, measure, nodes=10000):
    # W2 between a sorted spectrum and a grid measure from their quantiles at
    # nodes midpoint probabilities: steps of the atoms, and of the density's
    # cumulative weight on the grid
    probs = (np.arange(nodes) + 0.5) / nodes
    q_emp = eigs[(probs * eigs.size).astype(int)]
    wgt = measure.density * np.gradient(measure.grid)
    cum = np.cumsum(wgt) / wgt.sum()
    q_ref = measure.grid[np.minimum(np.searchsorted(cum, probs),
                                    measure.grid.size - 1)]
    return float(np.sqrt(np.mean((q_emp - q_ref) ** 2)))


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
            row.append(_quantile_w2(res.spectrum, measure))
        w2.append(row)
    small, large = np.array(w2)
    assert np.all(large < small)
    assert large.max() <= 0.07


def test_follow_is_seed_deterministic():
    # two draws from one seed, the second made while other buffers hold the
    # heap: the in-place pack must not depend on where the allocator puts
    # the draw
    preset = get_preset("cubic-pair")
    first = ham.sample(preset, 40, seed=0)
    held = [np.ones(n) for n in (3, 1000, 40 ** 3 + 5)]
    second = ham.sample(preset, 40, seed=0)
    del held
    for k in first.tensors:
        assert np.array_equal(second.tensors[k], first.tensors[k])
    for delta in all_sign_patterns(2):
        ends = [ls.follow_critical_points(inst, delta).sigma_star.sigma
                for inst in (first, second)]
        assert np.max(np.abs(ends[1] - ends[0])) <= 1e-14


def test_follow_permutes_with_the_species():
    # relabel the species of one skew-pair draw by permuting its coordinates,
    # not by sampling again: every followed endpoint permutes with them
    spec, perm = get_preset("skew-pair"), [1, 0]
    inst = ham.sample(spec, 40, seed=0)
    idx = np.concatenate([np.arange(inst.N)[inst.partition.slices()[s]]
                          for s in perm])
    relabelled = _relabel(spec, perm)
    moved = ham.HamiltonianInstance(
        mixture=relabelled, N=inst.N,
        tensors={1: inst.tensors[1][idx],
                 2: inst.tensors[2][np.ix_(idx, idx)]},
        seed=inst.seed)
    assert np.array_equal(moved.partition.sizes, inst.partition.sizes[perm])
    for delta in all_sign_patterns(2):
        res = ls.follow_critical_points(inst, delta)
        got = ls.follow_critical_points(moved, np.asarray(delta)[perm])
        assert (np.abs(got.sigma_star.sigma - res.sigma_star.sigma[idx]).max()
                <= 1e-10 * np.sqrt(inst.N))
        assert np.abs(got.radial - res.radial[perm]).max() <= 1e-10
        assert got.index == res.index == _expected_index(inst, delta)
        assert abs(got.energy - res.energy) <= 1e-12


def test_follow_validation():
    inst = ham.sample(SYM, 20, seed=0)
    with pytest.raises(ValidationError):
        ls.follow_critical_points(inst, (1, 1), steps=0)
    no_field = ham.sample(get_preset("pure3"), 20, seed=0)
    with pytest.raises(ValidationError):
        ls.follow_critical_points(no_field, (1,))


def test_follow_warns_off_strict_super_solvability():
    # c = 1.2 < sqrt(3) is strictly sub-solvable: the follow warns that its
    # path may change branch, and here it still ends on the all-plus point
    inst = ham.sample(_cubic_mixture(1.2), N, seed=2)
    with pytest.warns(UserWarning, match="not strictly super-solvable"):
        res = ls.follow_critical_points(inst, (1, 1))
    assert res.grad_norm <= ls.NEWTON_TOL
    assert res.index == 0 and res.delta == (1, 1)


def _homotopy_mixture(spec, t):
    # H_1 + t H_{>=2}, the Hamiltonian at weight t on the homotopy path, has
    # covariance xi_1 + t^2 xi_{>=2}: every coefficient of degree >= 2 times t
    return MixtureSpec(r=spec.r, lam=spec.lam,
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
    at_t = ls._result(inst, *ls._newton(inst, end, 50, ls.NEWTON_TOL, t)[:5])
    sig = at_t.sigma_star.sigma
    after = ls._result(inst, *ls._newton(inst, sig, 50, ls.NEWTON_TOL,
                                         t + eps)[:5])
    assert max(at_t.grad_norm, after.grad_norm) <= ls.NEWTON_TOL
    assert not at_t.ill_conditioned
    ld = ham.local_data(inst, sig, want_hessian=True, t=t)
    tangent = _tangent(inst, sig, ld, t)
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


def test_newton_refine_retracts_an_off_manifold_start():
    inst = ham.sample(SYM, N, seed=1)
    end = ls.follow_critical_points(inst, (1, 1)).sigma_star.sigma
    start = end + 0.05 * np.random.default_rng(0).standard_normal(inst.N)
    with pytest.raises(OffManifold):
        ham.check_on_manifold(inst.partition, start)
    res = ls.newton_refine(inst, start)
    on = ls.newton_refine(inst, ham.retract(inst.partition, start))
    assert res.grad_norm <= ls.NEWTON_TOL
    assert np.array_equal(res.sigma_star.sigma, on.sigma_star.sigma)


def test_converged_point_returns_unchanged():
    inst = ham.sample(SYM, N, seed=2)
    res = ls.follow_critical_points(inst, (-1, 1))
    again = ls.newton_refine(inst, res.sigma_star)
    assert again.iterations == 0
    assert np.array_equal(again.sigma_star.sigma, res.sigma_star.sigma)
    assert again.grad_history == (res.grad_norm,)


def test_newton_corrector_work_is_bounded(monkeypatch):
    # when no trial is accepted, one _newton call tries the plain step once
    # and then the eigh ladder's three levels of 20 halvings each, and it
    # returns its start for the caller to judge instead of raising
    inst = ham.sample(SYM, N, seed=0)
    start = ham.random_state(inst.partition, np.random.default_rng(0)).sigma
    halvings = []

    def refused(*args):
        halvings.append(args[6])
        return None

    monkeypatch.setattr(ls, "_try_step", refused)
    sig, _, history, iterations = ls._newton(inst, start, 40, ls.NEWTON_TOL,
                                             1.0)[:4]
    assert halvings == [1, 20, 20, 20]
    assert iterations == 0 and history[-1] > ls.NEWTON_TOL
    assert np.array_equal(sig, start)


def test_newton_budget_exhausted_raises_max_iters():
    inst = ham.sample(SYM, N, seed=0)
    start = ham.random_state(inst.partition, np.random.default_rng(0))
    with pytest.raises(MaxIters):
        ls.newton_refine(inst, start, max_iters=0)
    res = ls.newton_refine(inst, start, max_iters=0, raise_on_fail=False)
    assert res.iterations == 0
    assert res.grad_norm > ls.NEWTON_TOL


def _inertia_case(route, rng):
    # species sizes (5, 8, 7) with delta = (-1, 1, -1): the 12 "up"
    # coordinates of species 0 and 2 should carry the positive eigenvalues,
    # and the 8 others make the smaller pivot block, tried first.  The
    # spectrum is put on nearly coordinate eigenvectors (a small random
    # rotation), and 45-degree planes that pair an up and a down coordinate
    # make a pivot block indefinite
    up = np.repeat([True, False, True], [5, 8, 7])
    eig = np.where(up, 1.0, -1.0) * (1.0 + rng.random(up.shape[0]))
    down_idx, up_idx = np.flatnonzero(~up), np.flatnonzero(up)
    planes = []
    if route in ("minus-pivot", "fallback"):
        # the delta=+1 block gets a positive diagonal entry 0.75
        planes.append((down_idx[0], up_idx[0], -0.5, 2.0))
    if route == "fallback":
        # and the delta=-1 block a negative one, -0.75
        planes.append((down_idx[-1], up_idx[-1], -2.0, 0.5))
    if route == "wrong-index":
        eig[up_idx[3]] = -0.3
    if route in ("zero-above", "zero-below"):
        eig[up_idx[2]] = ls.ZERO_EIG * (1.001 if route == "zero-above"
                                        else 0.999)
    n = up.shape[0]
    vecs = np.linalg.qr(np.eye(n) + 0.05 * rng.standard_normal((n, n)))[0]
    vecs *= np.sign(np.diag(vecs))
    for i, j, lo, hi in planes:
        eig[i], eig[j] = lo, hi
        rot = np.eye(n)
        rot[[i, i, j, j], [i, j, i, j]] = np.sqrt(0.5) * np.array(
            [1.0, -1.0, 1.0, 1.0])
        vecs = vecs @ rot
    A = (vecs * eig) @ vecs.T
    return 0.5 * (A + A.T), up


@pytest.mark.parametrize("route,factorizations", [
    ("plus-pivot", [True, True]), ("wrong-index", [True, False]),
    ("minus-pivot", [False, True, True]), ("fallback", [False, False]),
    ("zero-above", [True, True]), ("zero-below", [True, False])])
def test_inertia_check_matches_eigvalsh(monkeypatch, route, factorizations):
    A, up = _inertia_case(route, np.random.default_rng(7))
    expect = (np.count_nonzero(np.linalg.eigvalsh(A) > ls.ZERO_EIG)
              == np.count_nonzero(up))
    calls, cholesky, eigvalsh = [], np.linalg.cholesky, np.linalg.eigvalsh

    def counted(a):
        try:
            out = cholesky(a)
        except np.linalg.LinAlgError:
            calls.append(False)
            raise
        calls.append(True)
        return out

    monkeypatch.setattr(ls.np.linalg, "cholesky", counted)
    monkeypatch.setattr(ls.np.linalg, "eigvalsh",
                        lambda a: calls.append("eigvalsh") or eigvalsh(a))
    assert _has_index(A, up) == expect
    fell_back = ["eigvalsh"] if route == "fallback" else []
    assert calls == factorizations + fell_back
    assert expect == (route not in ("wrong-index", "zero-below"))


def test_inertia_fallback_returns_a_bool():
    # neither pivot block of diag(1, -1, 1, -1) is definite, so eigvalsh
    # decides, and its count comparison comes back as a Python bool
    A = np.diag([1.0, -1.0, 1.0, -1.0])
    for up, expect in (([False, False, True, True], True),
                       ([False, True, True, True], False)):
        got = _has_index(A, np.array(up))
        assert type(got) is bool and got is expect


def test_smaller_pivot_block_first():
    # skew-pair N=200, delta = (-1, 1): the delta_s = -1 block of 59
    # coordinates is the pivot before the 139 others; ties keep +1 first
    up = np.repeat([True, False], [59, 139])
    assert [sign for sign, _, _ in ls._pivots(up)] == [1.0, -1.0]
    assert [sign for sign, _, _ in ls._pivots(~up)] == [-1.0, 1.0]
    tie = np.repeat([True, False], [59, 59])
    assert [sign for sign, _, _ in ls._pivots(tie)] == [-1.0, 1.0]


def test_pivot_orders_agree_on_planted_inertia(monkeypatch):
    # random symmetric matrices with a planted inertia, some of it wrong by
    # one eigenvalue, on eigenvectors rotated enough that a pivot block is
    # sometimes indefinite: both pivot orders must match eigvalsh
    rng = np.random.default_rng(11)
    pivots, routes = ls._pivots, set()
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(ls.np.linalg, "eigvalsh",
                        lambda a: routes.add("eigvalsh") or eigvalsh(a))
    for _ in range(200):
        up = np.repeat(rng.random(3) < 0.5, rng.integers(1, 12, size=3))
        n = up.shape[0]
        eig = np.where(up, 1.0, -1.0) * (0.05 + rng.random(n))
        if rng.random() < 0.3:
            eig[rng.integers(n)] *= -1.0
        scale = rng.choice([0.05, 0.3, 1.0])
        vecs = np.linalg.qr(np.eye(n) + scale * rng.standard_normal((n, n)))[0]
        A = (vecs * eig) @ vecs.T
        A = 0.5 * (A + A.T)
        expect = np.count_nonzero(eigvalsh(A) > ls.ZERO_EIG) == up.sum()
        routes.add(expect)
        for order in (pivots, lambda mask: pivots(mask)[::-1]):
            monkeypatch.setattr(ls, "_pivots", order)
            assert _has_index(A, up) == expect
    assert routes == {True, False, "eigvalsh"}
