import itertools

import numpy as np
import pytest

from glassland import hamiltonian as ham
from glassland import landscape as ls
from glassland.errors import LostTrack, ValidationError
from glassland.mixture import all_sign_patterns
from glassland.presets import get_preset

SYM = get_preset("symmetric-pair")
N = 60
# the smallest |eigenvalue| seen over seeds 0-2 was 0.27
MIN_GAP = 0.1


@pytest.fixture(scope="module", params=[0, 1, 2])
def followed(request):
    inst = ham.sample(SYM, N, seed=request.param)
    return inst, [ls.follow_critical_points(inst, delta)
                  for delta in all_sign_patterns(SYM.r)]


def test_trivialization_in_miniature(followed):
    # strictly super-solvable: one well-conditioned critical point per sign
    # pattern, of index sum_{delta_s = -1} (N_s - 1)
    inst, results = followed
    part = inst.partition
    assert len(results) == 2 ** SYM.r
    for res in results:
        delta = np.asarray(res.delta)
        assert res.grad_norm <= ls.NEWTON_TOL
        assert res.index == int(np.sum((part.sizes - 1)[delta < 0]))
        assert res.min_abs_eig >= MIN_GAP
        assert not res.ill_conditioned


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


# Known defect: on these instances the delta=(1,-1) branch is lost at the
# default step count, so follow_critical_points does not find all 2^r points
@pytest.mark.xfail(strict=True, raises=LostTrack,
                   reason="homotopy loses the delta=(1,-1) branch")
@pytest.mark.parametrize("preset,n,seed", [("skew-pair", 40, 1),
                                           ("cubic-pair", 60, 0)])
def test_known_lost_track(preset, n, seed):
    inst = ham.sample(get_preset(preset), n, seed=seed)
    ls.follow_critical_points(inst, (1, -1))
