"""Tests for mixture evaluation, classification, and band recursion."""

import json

import numpy as np
import pytest

from glassland import mixture as mx
from glassland import presets
from glassland.errors import BadMixture, DegreeTooHigh, ValidationError


def test_eval_xi_quadratic_at_one():
    spec = presets.one_species_quadratic()
    value, grad, hess = mx.eval_xi(spec, [1.0])
    assert value == pytest.approx(2.5, abs=1e-12)
    assert grad[0] == pytest.approx(3.0, abs=1e-12)
    assert hess[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_eval_xi_orders():
    spec = presets.cubic_pair()
    v0, g0, h0 = mx.eval_xi(spec, [0.7, 1.3], order=0)
    assert g0 is None and h0 is None
    v1, g1, h1 = mx.eval_xi(spec, [0.7, 1.3], order=1)
    assert h1 is None
    v2, g2, h2 = mx.eval_xi(spec, [0.7, 1.3], order=2)
    assert v0 == pytest.approx(v2) and np.allclose(g1, g2)


def test_cubic_pair_stats():
    st = mx.stats(presets.cubic_pair())
    assert np.allclose(st.xi_prime, [1.56, 1.56], atol=1e-12)
    assert np.allclose(st.xi_dprime, 0.56 * np.ones((2, 2)), atol=1e-12)
    assert st.xi_one == pytest.approx(2.04, abs=1e-12)
    assert np.allclose(st.A, [[2.12, 0.56], [0.56, 2.12]], atol=1e-12)
    assert np.allclose(st.xi_species, [3.12, 3.12], atol=1e-12)


def test_finite_difference_consistency():
    # grad and hess of eval_xi against central differences on [0, 2]^r
    rng = np.random.default_rng(7)
    for spec in (presets.cubic_pair(), presets.skew_pair(),
                 presets.single_species([1.0, 0.5, 0.25, 0.1])):
        for _ in range(5):
            x = rng.uniform(0.1, 2.0, size=spec.r)
            value, grad, hess = mx.eval_xi(spec, x)
            eps = 1e-6
            for s in range(spec.r):
                xp, xm = x.copy(), x.copy()
                xp[s] += eps
                xm[s] -= eps
                fd = (mx.eval_xi(spec, xp, order=0)[0]
                      - mx.eval_xi(spec, xm, order=0)[0]) / (2 * eps)
                assert fd == pytest.approx(grad[s], rel=1e-6, abs=1e-8)
                gp = mx.eval_xi(spec, xp, order=1)[1]
                gm = mx.eval_xi(spec, xm, order=1)[1]
                assert np.allclose((gp - gm) / (2 * eps), hess[s],
                                   rtol=1e-6, atol=1e-7)


def test_permutation_symmetry():
    # relabeling species permutes xi and its derivatives accordingly
    spec = presets.skew_pair()
    perm = [1, 0]
    swapped = mx.MixtureSpec(
        r=2,
        lam=spec.lam[perm],
        coeffs=tuple((d, tuple(sorted(perm.index(s) for s in idx)), g)
                     for d, idx, g in spec.coeffs),
        max_degree=spec.max_degree,
    )
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.0, 2.0, size=2)
        v1, g1, h1 = mx.eval_xi(spec, x)
        v2, g2, h2 = mx.eval_xi(swapped, x[perm])
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert np.allclose(g1, g2[perm])
        assert np.allclose(h1, h2[np.ix_(perm, perm)])


def test_classify_solvability_labels():
    cases = [
        (presets.one_species_quadratic(), "strictly_super_solvable"),
        (presets.symmetric_pair(), "strictly_super_solvable"),
        (presets.skew_pair(), "strictly_super_solvable"),
        (presets.cubic_pair(), "strictly_super_solvable"),
        (presets.single_species([2.0, 1.0, 1.0]), "strictly_super_solvable"),
        (presets.single_species([1.0, 1.0, 1.0]), "strictly_sub_solvable"),
        (presets.pure(3), "strictly_sub_solvable"),
    ]
    for spec, label in cases:
        assert mx.classify_solvability(spec).label == label


def test_classify_solvable_boundary():
    # the pure 2-spin has xi' = xi'' = 2, exactly on the boundary
    spec = presets.pure(2)
    rep = mx.classify_solvability(spec)
    assert rep.label == "solvable"
    assert abs(rep.min_eig) <= rep.tol


def test_ideal_stats_cubic_pair():
    spec = presets.cubic_pair()
    p = mx.ideal_stats(spec, [1, 1])
    assert p.energy == pytest.approx(2 * np.sqrt(0.78), abs=1e-12)
    assert np.allclose(p.radial, 2.1457172640, atol=1e-9)
    q = mx.ideal_stats(spec, [1, -1])
    assert q.energy == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(q.radial, [1.2489996, -1.2489996], atol=1e-6)


def test_ideal_stats_v_equals_minus_Au():
    rng = np.random.default_rng(11)
    for spec in (presets.cubic_pair(), presets.one_species_quadratic(),
                 presets.skew_pair()):
        st = mx.stats(spec)
        for delta in mx.all_sign_patterns(spec.r):
            p = mx.ideal_stats(spec, delta)
            assert np.allclose(p.v, -st.A @ p.u, atol=1e-12)


def test_ideal_stats_energy_antisymmetry():
    spec = presets.cubic_pair()
    patterns = mx.all_sign_patterns(spec.r)
    energies = [mx.ideal_stats(spec, d).energy for d in patterns]
    for d, e in zip(patterns, energies):
        assert mx.ideal_stats(spec, -d).energy == pytest.approx(-e, abs=1e-12)
    assert max(energies) == pytest.approx(
        mx.ideal_stats(spec, np.ones(spec.r)).energy)


def test_ideal_stats_rejects_bad_delta():
    spec = presets.cubic_pair()
    with pytest.raises(ValidationError):
        mx.ideal_stats(spec, [1, 0])
    with pytest.raises(ValidationError):
        mx.ideal_stats(spec, [1.0])


def test_recursion_radii_closed_form():
    # xi = 2x + x^2/2 gives R^k = 1 - 3^{-k}
    spec = presets.one_species_quadratic()
    radii = mx.recursion_radii(spec, 8)
    for k, R in enumerate(radii):
        assert R[0] == pytest.approx(1 - 3.0 ** -k, abs=1e-12)


def test_recursion_radii_monotone_convergent():
    for spec in (presets.cubic_pair(), presets.skew_pair()):
        radii = mx.recursion_radii(spec, 200)
        for k in range(len(radii) - 1):
            assert np.all(radii[k + 1] >= radii[k] - 1e-15)
            assert np.all(radii[k + 1] <= 1.0)
        assert np.all(1.0 - radii[200] <= 1e-6)


def test_band_mixture_derivatives():
    spec = presets.one_species_quadratic()
    radii = mx.recursion_radii(spec, 3)
    band = mx.band_mixture(spec, 2)
    shrink = 1 - radii[2][0]
    assert band.xi_prime_one[0] == pytest.approx(shrink ** 2 * 3.0, abs=1e-12)
    assert band.xi_dprime_one[0, 0] == pytest.approx(shrink ** 2 * 1.0, abs=1e-12)
    val, grad, hess = band.eval(np.ones(1))
    assert grad[0] == pytest.approx(band.xi_prime_one[0], abs=1e-12)
    assert hess[0, 0] == pytest.approx(band.xi_dprime_one[0, 0], abs=1e-12)
    # the band of a strictly super-solvable mixture is strictly super-solvable
    assert band.solvability_min_eig() > 1e-9


def test_band_mixture_rejects_trivial_band():
    spec = presets.one_species_quadratic()
    for k in (0, -1):
        with pytest.raises(ValidationError):
            mx.band_mixture(spec, k)


def test_band_centered_covariance_matches_original():
    # xi_k agrees with xi((1-R)x + R) up to an affine function of x
    spec = presets.cubic_pair()
    radii = mx.recursion_radii(spec, 2)
    band = mx.band_mixture(spec, 1)
    shrink = 1 - radii[1]
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.uniform(0.0, 1.5, size=2)
        _, _, h_band = band.eval(x)
        _, _, h_full = mx.eval_xi(spec, shrink * x + radii[1])
        assert np.allclose(h_band, np.outer(shrink, shrink) * h_full)


def test_v_star_pure_three():
    assert mx.v_star(presets.pure(3), [1.0])[0] == pytest.approx(
        2 * np.sqrt(6.0), abs=1e-12)


def test_v_star_single_species_closed_form():
    # for r = 1 the formula collapses to 2 sqrt(xi''(1))
    for spec in (presets.one_species_quadratic(),
                 presets.single_species([1.0, 1.0, 0.3])):
        dd = mx.stats(spec).xi_dprime[0, 0]
        assert mx.v_star(spec, [1.0])[0] == pytest.approx(
            2 * np.sqrt(dd), abs=1e-10)


def test_v_star_validation():
    spec = presets.cubic_pair()
    with pytest.raises(ValidationError):
        mx.v_star(spec, [1.0, 3.0])
    with pytest.raises(ValidationError):
        mx.v_star(spec, [-1.0, 3.0])


def test_nondegenerate():
    assert presets.cubic_pair().nondegenerate()
    assert not presets.symmetric_pair().nondegenerate()
    assert not presets.pure(3).nondegenerate()


def test_json_round_trip(tmp_path):
    spec = presets.cubic_pair()
    data = mx.mixture_to_dict(spec)
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(data))
    loaded = mx.load_mixture(str(path))
    assert loaded.r == spec.r
    assert np.allclose(loaded.lam, spec.lam)
    assert loaded.coeffs == spec.coeffs


def test_loader_rejections(tmp_path):
    good = mx.mixture_to_dict(presets.cubic_pair())

    def reject(mutate, exc=BadMixture):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(exc):
            mx.mixture_from_dict(data)

    reject(lambda d: d.__setitem__("lambda", [0.5, 0.6]))
    reject(lambda d: d.__setitem__("lambda", [1.5, -0.5]))
    reject(lambda d: d["gammas"][0].__setitem__("gamma", -1.0))
    reject(lambda d: d["gammas"].append(dict(d["gammas"][0])))
    reject(lambda d: d["gammas"][0].__setitem__("index", [2, 1]))
    reject(lambda d: d["gammas"][0].__setitem__("index", [1, 3]))
    reject(lambda d: d["gammas"].append(
        {"degree": 7, "index": [1] * 7, "gamma": 0.1}), DegreeTooHigh)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BadMixture):
        mx.load_mixture(str(bad))


def test_all_sign_patterns():
    pats = mx.all_sign_patterns(2)
    assert len(pats) == 4
    assert np.allclose(pats[0], [1, 1])
    assert np.allclose(pats[-1], [-1, -1])
    assert len({tuple(p) for p in pats}) == 4
