"""Tests for mixture evaluation, solvability classification and the
closed-form critical-point predictions."""

import itertools
import json
import math

import numpy as np
import pytest

from glassland import mixture as mx
from glassland import presets
from glassland.errors import (BadMixture, DegreeTooHigh, NegativeRadicand,
                              ValidationError)


def test_eval_xi_quadratic_at_one():
    spec = presets.one_species_quadratic()
    value, grad, hess = mx.eval_xi(spec, [1.0])
    assert value == pytest.approx(2.5, abs=1e-12)
    assert grad[0] == pytest.approx(3.0, abs=1e-12)
    assert hess[0, 0] == pytest.approx(1.0, abs=1e-12)


def _loop_eval_xi(spec, x):
    # reference: xi and its derivatives term by term from spec.coeffs, one
    # species at a time, never forming a power with a negative exponent
    y = spec.lam * np.asarray(x, dtype=float)
    r = spec.r
    value, grad, hess = 0.0, np.zeros(r), np.zeros((r, r))

    def pow_(base, exp):
        return 1.0 if exp == 0 else base ** exp

    for degree, index, gamma in spec.coeffs:
        counts = [index.count(s) for s in range(r)]
        orbit = math.factorial(degree) // math.prod(math.factorial(c) for c in counts)
        weight = gamma * gamma * orbit
        term = weight
        for s in range(r):
            if counts[s]:
                term *= y[s] ** counts[s]
        value += term
        for s in range(r):
            cs = counts[s]
            if cs == 0:
                continue
            dterm = weight * cs * spec.lam[s] * pow_(y[s], cs - 1)
            for t in range(r):
                if t != s and counts[t]:
                    dterm *= y[t] ** counts[t]
            grad[s] += dterm
            for t in range(s, r):
                ct = counts[t]
                if t == s:
                    if cs < 2:
                        continue
                    h = weight * cs * (cs - 1) * spec.lam[s] ** 2 * pow_(y[s], cs - 2)
                    others = [w for w in range(r) if w != s]
                else:
                    if ct == 0:
                        continue
                    h = (weight * cs * ct * spec.lam[s] * spec.lam[t]
                         * pow_(y[s], cs - 1) * pow_(y[t], ct - 1))
                    others = [w for w in range(r) if w != s and w != t]
                for w in others:
                    if counts[w]:
                        h *= y[w] ** counts[w]
                hess[s, t] += h
                if t != s:
                    hess[t, s] += h
    return value, grad, hess


def _assert_matches_loop(spec, x):
    got = mx.eval_xi(spec, x)
    for out, ref in zip(got, _loop_eval_xi(spec, x)):
        out, ref = np.asarray(out), np.asarray(ref)
        assert np.all(np.abs(out - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    # the loop mirrors each off-diagonal entry; the contraction must agree
    assert np.array_equal(got[2], got[2].T)


def test_eval_xi_matches_loop_on_presets():
    # x = 0 and negative coordinates are where a zero or negative base meets
    # a clipped exponent
    grid = (-1.0, -0.37, 0.0, 0.5, 1.0)
    with np.errstate(all="raise"):
        for name in presets.PRESETS:
            spec = presets.get_preset(name)
            for x in itertools.product(grid, repeat=spec.r):
                _assert_matches_loop(spec, np.array(x))


def test_eval_xi_matches_loop_on_random_mixtures():
    # every coefficient up to each degree, x in [-1, 1]^r with exact zeros
    rng = np.random.default_rng(21)
    with np.errstate(all="raise"):
        for r in (1, 2, 3, 6):
            for degree in range(1, mx.MAX_DEGREE + 1):
                lam = rng.uniform(0.5, 1.5, r)
                coeffs = tuple(
                    (k, idx, float(rng.uniform(0.0, 1.0)))
                    for k in range(1, degree + 1)
                    for idx in itertools.combinations_with_replacement(range(r), k))
                spec = mx.MixtureSpec(r=r, lam=lam / lam.sum(), coeffs=coeffs)
                for _ in range(3):
                    x = rng.uniform(-1.0, 1.0, r) * (rng.random(r) < 0.7)
                    _assert_matches_loop(spec, x)


def test_max_degree_is_largest_coefficient_degree():
    for name in presets.PRESETS:
        spec = presets.get_preset(name)
        assert spec.max_degree == max(d for d, _, _ in spec.coeffs)
        back = mx.mixture_from_dict(mx.mixture_to_dict(spec))
        assert back.max_degree == spec.max_degree
    empty = mx.MixtureSpec(r=1, lam=np.array([1.0]), coeffs=())
    assert empty.max_degree == 1


def test_spec_compares_and_hashes_by_identity():
    # a field-wise == would compare the lam arrays and raise
    a, b = presets.cubic_pair(), presets.cubic_pair()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert isinstance(hash(a), int)
    assert len({a, a, b}) == 2


def test_spec_keeps_its_own_lam():
    # the spec copies lam: the caller's array changed afterwards must not
    # change a validated spec, and the spec's own copy is read-only
    lam = np.array([0.5, 0.5])
    spec = mx.MixtureSpec(r=2, lam=lam, coeffs=((1, (0,), 1.0),))
    lam[0] = 7.0
    assert np.array_equal(spec.lam, [0.5, 0.5])
    with pytest.raises(ValueError):
        spec.lam[0] = 7.0


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
                fd = (mx.eval_xi(spec, xp)[0]
                      - mx.eval_xi(spec, xm)[0]) / (2 * eps)
                assert fd == pytest.approx(grad[s], rel=1e-6, abs=1e-8)
                gp = mx.eval_xi(spec, xp)[1]
                gm = mx.eval_xi(spec, xm)[1]
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
        # a caller holding the stats passes them instead of the spec
        assert mx.classify_solvability(mx.stats(spec)) == \
            mx.classify_solvability(spec)


def test_classify_solvable_boundary():
    # the pure 2-spin has xi' = xi'' = 2, exactly on the boundary
    spec = presets.pure(2)
    rep = mx.classify_solvability(spec)
    assert rep.label == "solvable"
    assert abs(rep.min_eig) <= mx.SOLVABLE_TOL


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


def test_v_star_zero_coupling_row_raises():
    # species 0 has only an external field, so its xi'' row and the slope
    # <xi''_0, phi> / lambda_0 are zero: f_0 = sqrt(phi_0 / slope_0) has no
    # finite value, which must raise before any division warns
    spec = mx.MixtureSpec(r=2, lam=np.array([0.5, 0.5]),
                          coeffs=((1, (0,), 1.0), (1, (1,), 1.0),
                                  (2, (1, 1), 1.0)))
    with pytest.raises(NegativeRadicand):
        mx.v_star(spec, [1.0, 1.0])


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
    # every comparison with NaN is False, so each check must be one NaN fails
    reject(lambda d: d.__setitem__("lambda", [math.nan, 0.7]))
    reject(lambda d: d.__setitem__("lambda", [math.inf, 0.7]))
    reject(lambda d: d["gammas"][0].__setitem__("gamma", math.nan))
    reject(lambda d: d["gammas"][0].__setitem__("gamma", math.inf))
    reject(lambda d: d.__setitem__("gammas", None))
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
