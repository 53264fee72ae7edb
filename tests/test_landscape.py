import itertools

import numpy as np
import pytest

from glassland import hamiltonian as ham
from glassland import landscape as ls
from glassland.errors import LostTrack, ValidationError
from glassland.mixture import all_sign_patterns, ideal_stats
from glassland.presets import get_preset

SYM = get_preset("symmetric-pair")
N = 60
# the smallest |eigenvalue| seen was 0.27 on symmetric-pair seeds 0-2 and
# 0.12 on cubic-pair seed 0
MIN_GAP = 0.1


# cubic-pair seed 0 lost its delta=(1,-1) branch before the Euler predictor
@pytest.fixture(scope="module", params=[("symmetric-pair", 0),
                                        ("symmetric-pair", 1),
                                        ("symmetric-pair", 2),
                                        ("cubic-pair", 0)],
                ids=["0", "1", "2", "cubic-pair-0"])
def followed(request):
    preset, seed = request.param
    inst = ham.sample(get_preset(preset), N, seed=seed)
    return inst, [ls.follow_critical_points(inst, delta)
                  for delta in all_sign_patterns(inst.mixture.r)]


def test_trivialization_in_miniature(followed):
    # strictly super-solvable: one well-conditioned critical point per sign
    # pattern, of index sum_{delta_s = -1} (N_s - 1), whose radial
    # derivative lies nearest the prediction for its own pattern
    inst, results = followed
    part = inst.partition
    patterns = all_sign_patterns(inst.mixture.r)
    predictions = [ideal_stats(inst.mixture, d) for d in patterns]
    assert len(results) == len(patterns)
    for res in results:
        delta = np.asarray(res.delta)
        assert res.grad_norm <= ls.NEWTON_TOL
        assert res.index == int(np.sum((part.sizes - 1)[delta < 0]))
        assert res.min_abs_eig >= MIN_GAP
        assert not res.ill_conditioned
        dists = [np.max(np.abs(res.radial - p.radial)) for p in predictions]
        assert tuple(predictions[int(np.argmin(dists))].delta) == res.delta


def test_followed_points_are_distinct(followed):
    inst, results = followed
    radius = ls.DEDUP_RADIUS * np.sqrt(inst.N)
    for a, b in itertools.combinations(results, 2):
        dist = np.linalg.norm(a.sigma_star.sigma - b.sigma_star.sigma)
        assert dist > radius


def test_follow_validation():
    inst = ham.sample(SYM, 20, seed=0)
    with pytest.raises(ValidationError):
        ls.follow_critical_points(inst, (1, 1), steps=0)
    no_field = ham.sample(get_preset("pure3"), 20, seed=0)
    with pytest.raises(ValidationError):
        ls.follow_critical_points(no_field, (1,))


# Known defect: every branch ends at its predicted index, but the degree-1
# overlap of species 0 (N_0 = 12) flips sign on the way (|overlap| 0.10 and
# 0.19), and the sign check reads that as a lost branch
@pytest.mark.xfail(strict=True, raises=LostTrack,
                   reason="overlap-sign check mislabels a small species")
def test_known_lost_track():
    inst = ham.sample(get_preset("skew-pair"), 40, seed=1)
    ls.follow_critical_points(inst, (1, -1))


def _weights(inst, t):
    return {k: (1.0 if k == 1 else t) for k in inst.tensors}


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
    tangent = ls._tangent(inst, sig, ld)
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
