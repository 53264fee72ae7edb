import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy import ndimage
from scipy.optimize import minimize

from glassland import complexity as cx
from glassland import dyson as dy
from glassland import mixture as mx
from glassland import singlespecies as ss
from glassland.errors import (DegenerateU, DegenerateVariance, NonConvergence,
                              NumericalError, ValidationError)
from glassland.presets import PRESETS, get_preset, single_species
from test_singlespecies import F_sy

SC = mx.stats(get_preset("one-species-quadratic"))
P3 = mx.stats(get_preset("pure3"))
FB = mx.stats(get_preset("symmetric-pair"))
FC = mx.stats(get_preset("skew-pair"))
TS = mx.stats(get_preset("three-species"))

# hand-evaluated closed forms for the symmetric-pair census
FB_MIXED_F = -0.5 * np.log(8.0) + 0.25 * np.log(52.0 / 3.0)
FB_CENTER_F = 0.5 * np.log(3.0 / 8.0)
# how far the oracle ascent may land from the census maximum
ORACLE_TOL = 1e-6
ORACLE_STARTS = 8


def ascent_oracle(stats):
    """Maximise F by multistart L-BFGS-B in the box of radius _r_auto.

    The starts are the origin, the ideal points of every sign pattern (when
    there are few enough) and uniform draws; no census value is used.
    """
    r = stats.r
    radius = cx._r_auto(stats)
    rng = np.random.default_rng(0)

    def negative(xv):
        try:
            pt = cx.F_point(stats, xv)
        except NumericalError:
            return 1e10, np.zeros(r)
        return -pt.F, -pt.gradF_x

    starts = [np.zeros(r)]
    if 2 ** r <= ORACLE_STARTS:
        starts += [np.clip(mx.ideal_radial(stats, d), -radius, radius)
                   for d in mx.all_sign_patterns(r)]
    while len(starts) < ORACLE_STARTS:
        starts.append(rng.uniform(-radius, radius, r))
    best = None
    for start in starts:
        res = minimize(negative, start, jac=True, method="L-BFGS-B",
                       bounds=[(-radius, radius)] * r,
                       options={"ftol": 1e-14, "gtol": 1e-12, "maxiter": 500})
        if best is None or res.fun < best.fun:
            best = res
    return -float(best.fun), best.x


def uncoupled(r):
    """r species, each with its own quadratic and linear term."""
    spec = mx.MixtureSpec(
        r=r, lam=np.full(r, 1.0 / r),
        coeffs=tuple((2, (s, s), 1.0) for s in range(r)) + tuple(
            (1, (s,), 1.0) for s in range(r)))
    return mx.stats(spec)


def test_F_at_ideal_points_one_species():
    for sign in (1.0, -1.0):
        pt = cx.F_point(SC, np.array([sign * 4 / np.sqrt(3)]))
        assert abs(pt.F) < 1e-10
        assert np.abs(pt.gradF).max() < 1e-10
        assert pt.u_real


def test_F_pure3_center_and_edge():
    assert abs(cx.F_point(P3, np.zeros(1)).F - 0.5 * np.log(2)) < 1e-6
    pt = cx.F_point(P3, np.array([2 * np.sqrt(6)]))
    assert abs(pt.F - (0.5 * np.log(2) - 1.0 / 3.0)) < 1e-9


def test_F_point_fields_consistent():
    x = np.array([0.3, -1.1])
    pt = cx.F_point(FB, x)
    assert np.allclose(pt.v, np.sqrt(FB.lam) * x)
    assert np.allclose(pt.gradF_x, np.sqrt(FB.lam) * pt.gradF)
    expect = -np.linalg.solve(FB.A, pt.v) - pt.u.real
    assert np.allclose(pt.gradF, expect)
    assert not cx.F_point(SC, np.zeros(1)).u_real


def test_F_point_validation():
    with pytest.raises(ValidationError):
        cx.F_point(FB, np.zeros(3))


def test_species_without_xi_prime_is_rejected_alike():
    # xi'_2 = 0: F, the census, the scan (through its radius) and the ideal
    # points all stop at the one check, with one message
    bare = mx.stats(mx.MixtureSpec(r=2, lam=np.array([0.5, 0.5]),
                                   coeffs=((2, (0, 0), 1.0),)))
    calls = [lambda: cx.F_point(bare, np.zeros(2)),
             lambda: cx.find_stationary_points(bare),
             lambda: cx.scan(bare, 5),
             lambda: mx.ideal_radial(bare, np.ones(2))]
    messages = set()
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    checked, h = 0, 1e-5
    while checked < 50:
        x = rng.uniform(-3.0, 3.0, 2)
        u = dy.boundary_u(FB, np.sqrt(FB.lam) * x)
        if np.min(np.abs(np.linalg.eigvals(dy.stability_matrices(FB, u).M))) <= 1e-3:
            continue
        pt = cx.F_point(FB, x)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (cx.F_point(FB, x + e).F - cx.F_point(FB, x - e).F) / (2 * h)
            rel = abs(fd - pt.gradF_x[j]) / max(1.0, abs(pt.gradF_x[j]))
            assert rel < 1e-4
        checked += 1


def test_F_symmetric_under_sign_flip():
    for x in (np.array([1.3, -0.4]), np.array([0.2, 2.5])):
        assert abs(cx.F_point(FB, x).F - cx.F_point(FB, -x).F) < 1e-12


def test_extended_equals_F_at_conditional_mean():
    x = np.array([0.7])
    mean = float(SC.xi_prime @ np.linalg.solve(SC.A, np.sqrt(SC.lam) * x))
    assert abs(cx.F_extended(SC, x, mean) - cx.F_point(SC, x).F) < 1e-12


def test_extended_zero_at_ideal_energy():
    x = np.array([4 / np.sqrt(3)])
    assert abs(cx.F_extended(SC, x, np.sqrt(3.0))) < 1e-10


def test_extended_mixed_oracle():
    st = mx.stats(single_species([0.0, np.sqrt(0.5), np.sqrt(0.5)]))
    want = np.log(2.0) - 0.5 * np.log(2.5) - 13.0
    assert abs(cx.F_extended(st, np.zeros(1), 1.0) - want) < 1e-6


def test_extended_degenerate_for_pure():
    with pytest.raises(DegenerateVariance):
        cx.F_extended(P3, np.zeros(1), 1.0)


def test_census_one_species():
    pts = cx.find_stationary_points(SC)
    assert len(pts) == 3
    maxima = [p for p in pts if p.is_global_max]
    assert len(maxima) == 2
    assert sorted(float(p.v[0]) for p in maxima) == pytest.approx(
        [-4 / np.sqrt(3), 4 / np.sqrt(3)], abs=1e-8)
    assert all(abs(p.F) < 1e-12 for p in maxima)
    center = next(p for p in pts if p.pattern == ("imag",))
    assert abs(center.v[0]) < 1e-12
    assert abs(center.F + 0.5 * np.log(3.0)) < 1e-12


def test_census_pure3():
    pts = cx.find_stationary_points(P3)
    assert len(pts) == 1
    only = pts[0]
    assert only.pattern == ("imag",)
    assert only.is_global_max
    assert abs(only.F - 0.5 * np.log(2.0)) < 1e-12
    assert only.residual < 1e-6


def test_census_symmetric_pair():
    pts = cx.find_stationary_points(FB)
    assert len(pts) == 9
    zeros = [p for p in pts if p.is_global_max]
    others = [p for p in pts if not p.is_global_max]
    assert len(zeros) == 4 and len(others) == 5
    assert all(abs(p.F) < 1e-12 for p in zeros)
    assert all("imag" not in p.pattern for p in zeros)
    mixed = [p for p in others if p.pattern != ("imag", "imag")]
    assert len(mixed) == 4
    assert all(abs(p.F - FB_MIXED_F) < 1e-10 for p in mixed)
    center = next(p for p in others if p.pattern == ("imag", "imag"))
    assert abs(center.F - FB_CENTER_F) < 1e-12
    assert all(p.residual < 1e-6 for p in pts)


def test_census_skew_pair_pattern_dropout():
    pts = cx.find_stationary_points(FC)
    assert len(pts) == 7
    assert sum(p.is_global_max for p in pts) == 4
    present = {p.pattern for p in pts}
    # the modulus cap excludes the patterns with species 1 pinned
    assert ("plus", "imag") not in present
    assert ("minus", "imag") not in present
    assert ("imag", "plus") in present and ("imag", "minus") in present


def test_census_three_species_full():
    pts = cx.find_stationary_points(TS)
    assert len(pts) == 27
    maxima = [p for p in pts if p.is_global_max]
    assert len(maxima) == 8
    assert all(abs(p.F) < 1e-12 for p in maxima)
    assert all(p.residual < 1e-6 for p in pts)


def test_census_points_satisfy_pattern_pins():
    rho = np.sqrt(FB.lam / FB.xi_prime)
    for p in cx.find_stationary_points(FB):
        u = dy.boundary_u(FB, p.v)
        for s, tag in enumerate(p.pattern):
            if tag == "imag":
                assert abs(u[s].real) < 1e-6
            else:
                assert abs(abs(u[s]) - rho[s]) < 1e-6
                assert (u[s].real < 0) == (tag == "plus")


def _relabel(spec, perm):
    # new species i is old species perm[i]
    return mx.MixtureSpec(
        r=spec.r, lam=spec.lam[perm],
        coeffs=tuple((deg, tuple(sorted(perm.index(s) for s in idx)), g)
                     for deg, idx, g in spec.coeffs))


@pytest.mark.parametrize("name, perm", [
    ("three-species", [2, 0, 1]), ("three-species", [1, 0, 2]),
    ("skew-pair", [1, 0]), ("symmetric-pair", [1, 0]),
])
def test_census_is_label_invariant(name, perm):
    # relabelling the species permutes every stationary point's v and
    # pattern and leaves F unchanged
    spec = get_preset(name)
    st, st_perm = mx.stats(spec), mx.stats(_relabel(spec, perm))
    pts, pts_perm = cx.find_stationary_points(st), cx.find_stationary_points(st_perm)
    assert len(pts_perm) == len(pts)
    relabelled = {p.pattern: p for p in pts_perm}
    for p in pts:
        q = relabelled[tuple(p.pattern[s] for s in perm)]
        assert np.abs(q.v - p.v[perm]).max() <= 1e-10
        assert abs(q.F - p.F) <= 1e-12
    rng = np.random.default_rng(len(perm))
    for x in [p.v / np.sqrt(st.lam) for p in pts] + [rng.uniform(-2, 2, st.r)]:
        assert abs(cx.F_point(st_perm, x[perm]).F - cx.F_point(st, x).F) <= 1e-12


def _per_pattern_census(stats):
    """(pattern, v, F) of the census, solving _census_b for every pattern.

    F comes from one batched _F_rows call over the kept rows, as in the
    census: batched and one-row F differ in the last bits.
    """
    rho = np.sqrt(stats.lam / stats.xi_prime)
    kept = []
    for pattern in itertools.product(("plus", "minus", "imag"), repeat=stats.r):
        tags = np.array(pattern)
        sign = tags != "imag"
        b = cx._census_b(stats, ~sign)
        if b is None or np.any(rho[sign] - b[sign] <= 1e-9):
            continue
        re = np.zeros(stats.r)
        re[sign] = np.where(tags == "plus", -1.0, 1.0)[sign] * np.sqrt(
            rho[sign] ** 2 - b[sign] ** 2)
        u = re + 1j * b
        v = -stats.A @ re
        if (dy.feasibility(stats, u).case == "infeasible"
                or any(np.abs(v - w).max() <= cx.DEDUP_TOL for _, w, _ in kept)):
            continue
        kept.append((pattern, v, u))
    if not kept:
        return []
    patterns, V, U = zip(*kept)
    F = cx._F_rows(stats, np.array(V), np.array(U))[0]
    return list(zip(patterns, V, map(float, F)))


def _census_key(points):
    return sorted((p.pattern, p.v.tobytes(), p.F) for p in points)


def _oracle_key(oracle):
    return sorted((pattern, v.tobytes(), F) for pattern, v, F in oracle)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_census_solves_each_imag_mask_once(name, monkeypatch):
    # the imaginary-part system reads no plus/minus tag, so the 3^r patterns
    # share 2^r solves, and the census is bitwise the per-pattern one
    stats = mx.stats(get_preset(name))
    oracle = _per_pattern_census(stats)
    solve = cx._census_b
    masks = []

    def counted(st, imag_mask, *args, **kwargs):
        masks.append(tuple(imag_mask))
        return solve(st, imag_mask, *args, **kwargs)

    monkeypatch.setattr(cx, "_census_b", counted)
    pts = cx.find_stationary_points(stats)
    assert len(masks) == len(set(masks)) == 2 ** stats.r
    assert _census_key(pts) == _oracle_key(oracle)


def _seeded_mixtures(count, seed, min_degree=2, drop=0.0):
    """count random mixtures: r = 1-3, degree min_degree-3, each coupling
    omitted with probability drop."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r, degree = rng.integers(1, 4), rng.integers(min_degree, 4)
        weights = rng.uniform(0.2, 1.0, r)
        coeffs = [(1, (s,), rng.uniform(0.0, 2.0)) for s in range(r)]
        coeffs += [(p, idx, rng.uniform(0.1, 1.5)) for p in range(2, degree + 1)
                   for idx in itertools.combinations_with_replacement(range(r), p)
                   if not drop or rng.uniform() >= drop]
        yield mx.MixtureSpec(r=int(r), lam=weights / weights.sum(),
                             coeffs=tuple(coeffs))


def test_census_matches_per_pattern_oracle_on_random_mixtures():
    # the batched census (one stacked feasibility call, deduplication
    # against the kept rows) lists bitwise the per-pattern census
    sizes = []
    for spec in _seeded_mixtures(40, 17):
        stats = mx.stats(spec)
        pts = cx.find_stationary_points(stats)
        assert _census_key(pts) == _oracle_key(_per_pattern_census(stats))
        sizes.append((stats.r, len(pts)))
    # every species count occurs, and the censuses are not all trivial
    assert {r for r, _ in sizes} == {1, 2, 3}
    assert sum(n for _, n in sizes) > 3 * len(sizes)


@pytest.mark.parametrize("name, tol", [("three-species", 0.3),
                                       ("cubic-pair", 1.0)])
def test_census_keeps_the_first_of_close_points(name, tol, monkeypatch):
    # no two preset candidates come within DEDUP_TOL, so widen it until
    # some do: the census still keeps, in pattern order, the first of each
    stats = mx.stats(get_preset(name))
    full = len(cx.find_stationary_points(stats))
    monkeypatch.setattr(cx, "DEDUP_TOL", tol)
    pts = cx.find_stationary_points(stats)
    assert len(pts) < full
    assert _census_key(pts) == _oracle_key(_per_pattern_census(stats))


def test_F_point_and_psi_raise_degenerate_u():
    # far out, u(v) ~ -1/v: log|u_s| is unstable and both callers say so
    x = np.array([1e9])
    with pytest.raises(DegenerateU):
        cx.F_point(SC, x)
    with pytest.raises(DegenerateU):
        dy.psi(SC, x)


def test_census_rejects_large_r():
    with pytest.raises(ValidationError):
        cx.find_stationary_points(uncoupled(7))


def test_imag_pattern_points_are_not_local_maxima():
    for st in (SC, FB, FC):
        for p in cx.find_stationary_points(st):
            if "imag" not in p.pattern:
                continue
            u = dy.boundary_u(st, p.v)
            if np.min(np.abs(np.linalg.eigvals(
                    dy.stability_matrices(st, u).M))) <= 1e-3:
                continue
            x = p.v / np.sqrt(st.lam)
            assert np.linalg.eigvalsh(cx.fd_hessian(st, x)).max() > 1e-6


def test_sup_one_species():
    value, arg = cx.sup_F(SC, multistart=8)
    assert abs(value) < 1e-6
    assert abs(abs(arg[0]) - 4 / np.sqrt(3)) < 1e-6


def test_sup_pure3():
    value, arg = cx.sup_F(P3, multistart=8)
    assert abs(value - 0.5 * np.log(2.0)) < 1e-4
    assert abs(arg[0]) < 1e-4
    assert value > 1e-3


def test_sup_super_solvable_cubic():
    value, _ = cx.sup_F(mx.stats(single_species([2.0, 1.0, 1.0])),
                        multistart=8)
    assert abs(value) < 1e-6


def test_sup_validation():
    with pytest.raises(ValidationError):
        cx.sup_F(SC, multistart=0)


# a sparse three-species mixture whose maximisers, a +- pair of pattern
# (imag, imag, pinned), were missed by a Newton iteration in b itself: its
# sup F read 0.1728 against the ascent's 0.1912
SPARSE_TRIPLE = mx.MixtureSpec(r=3, lam=np.array([0.506, 0.322, 0.172]), coeffs=(
    (1, (0,), 0.44), (1, (1,), 0.64), (1, (2,), 0.88), (2, (0, 0), 0.87),
    (2, (0, 1), 0.15), (2, (1, 1), 0.14), (2, (1, 2), 0.77), (2, (2, 2), 0.57),
    (3, (0, 0, 1), 1.37), (3, (0, 2, 2), 0.54), (3, (1, 1, 2), 1.28),
    (3, (1, 2, 2), 0.31), (3, (2, 2, 2), 0.47)))


# survey mixtures at r = 4: sub-solvable, super-solvable, and sparse
# (sub-solvable, with some xi''_ss = 0)
ORACLE_SURVEY = {"survey-8-sub": 8, "survey-4-super": 4,
                 "survey-81-sparse": 81}


@pytest.mark.parametrize("spec", [
    get_preset("one-species-quadratic"), get_preset("pure3"),
    single_species([2.0, 1.0, 1.0]), get_preset("symmetric-pair"),
    SPARSE_TRIPLE, *ORACLE_SURVEY.values(),
], ids=["one-species-quadratic", "pure3", "cubic-single", "symmetric-pair",
        "sparse-triple", *ORACLE_SURVEY])
def test_sup_matches_ascent_oracle(spec):
    # an int spec is the index of a survey mixture
    st = _survey()[spec][0] if isinstance(spec, int) else mx.stats(spec)
    value, arg = cx.sup_F(st)
    oracle, _ = ascent_oracle(st)
    # the ascent reaches the census value ...
    assert value - oracle < ORACLE_TOL
    # ... and finds nothing higher, which a stationary point the census
    # missed would show
    assert oracle - value < ORACLE_TOL
    assert abs(cx.F_point(st, arg).F - value) < ORACLE_TOL


def test_sup_is_census_maximum_exactly():
    for name in PRESETS:
        st = mx.stats(get_preset(name))
        value, arg = cx.sup_F(st)
        best = cx.find_stationary_points(st)[0]
        assert value == best.F
        assert np.array_equal(arg, best.v / np.sqrt(st.lam))
        assert np.abs(arg).max() <= cx._r_auto(st)
        if name.startswith("pure"):
            # total complexity of the pure p-spin model
            p = int(name[len("pure"):])
            assert abs(value - 0.5 * np.log(p - 1.0)) < 1e-12
        else:
            label = mx.classify_solvability(get_preset(name)).label
            assert label == "strictly_super_solvable"
            assert abs(value) < 1e-12


def _cubic_mixture(c):
    # r = 2, lambda = (0.3, 0.7), external field c*(1, 1), every degree-2
    # and degree-3 coefficient 1; diag(xi') - xi'' is singular at c = sqrt(3)
    coeffs = [(1, (0,), c), (1, (1,), c)]
    coeffs += [(2, idx, 1.0) for idx in ((0, 0), (0, 1), (1, 1))]
    coeffs += [(3, idx, 1.0)
               for idx in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))]
    return mx.MixtureSpec(r=2, lam=np.array([0.3, 0.7]),
                          coeffs=tuple(coeffs))


def test_sup_is_positive_exactly_when_sub_solvable():
    # the annealed phase boundary: exponentially many critical points
    # (sup F > 0) exactly on the strictly sub-solvable side
    sides = set()
    for c in np.r_[0.0, 0.3, 0.5, 0.7, np.linspace(0.8, 3.0, 23)]:
        spec = _cubic_mixture(c)
        min_eig = mx.classify_solvability(spec).min_eig
        assert abs(min_eig) > 1e-3
        value, _ = cx.sup_F(mx.stats(spec))
        assert (value > 1e-9) == (min_eig < 0)
        if min_eig > 0:
            assert abs(value) <= 1e-12
        sides.add(bool(min_eig < 0))
    assert sides == {True, False}


# a support edge is read where the density crosses TAU_SUPP: a square-root
# edge c sqrt(|t - e|) hides (TAU_SUPP / c)^2 of the support, under 3e-6 for
# the c >= 0.06 of the edges below, so a gap above this is no threshold
# artefact; the smallest gap below is 0.030
GAP_FLOOR = 1e-3


def _gap_at_zero(spec, delta):
    x = mx.ideal_stats(spec, delta).radial
    support = dy.spectral_measure(mx.stats(spec), x).support
    return min(max(lo, -hi, 0.0) for lo, hi in support)


def test_hessian_gap_at_ideal_points_tracks_the_phase_boundary():
    # strictly super-solvable: the N = infinity Hessian spectrum at each of
    # the 2^r predicted critical points stays away from 0; strictly
    # sub-solvable: 0 lies inside it at the mixed-sign points
    names = ("one-species-quadratic", "symmetric-pair", "skew-pair",
             "cubic-pair", "three-species")
    for spec in ([get_preset(name) for name in names]
                 + [_cubic_mixture(2.2), _cubic_mixture(3.0)]):
        assert mx.classify_solvability(spec).label == "strictly_super_solvable"
        for delta in mx.all_sign_patterns(spec.r):
            assert _gap_at_zero(spec, delta) > GAP_FLOOR
    for c in (0.7, 1.2):
        spec = _cubic_mixture(c)
        assert mx.classify_solvability(spec).label == "strictly_sub_solvable"
        for delta in ((1.0, -1.0), (-1.0, 1.0)):
            assert _gap_at_zero(spec, delta) == 0.0


@pytest.fixture
def solves(monkeypatch):
    """A list that gains one entry per np.linalg.solve call."""
    solve = np.linalg.solve
    calls = []

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_census_skips_patterns_without_admissible_root(solves):
    # pattern (imag, pinned) in the cubic pair: the pinned row reads
    # (xi'_1 - xi''_11) b_1 = xi''_10 b_0 with xi''_10 > 0, so b_0 > 0 and
    # b_1 >= 0 need xi'_1 > xi''_11.  Below that (c < 0.77) Newton ran all
    # 200 iterations before giving up; now it does not start.
    rootless = []
    for c in np.linspace(0.0, 1.0, 11):
        stats = mx.stats(_cubic_mixture(c))
        solves.clear()
        b = cx._census_b(stats, np.array([True, False]))
        rootless.append(bool(stats.xi_prime[1] <= stats.xi_dprime[1, 1]))
        assert (b is None) == rootless[-1] == (not solves)
        if b is not None:
            assert b[0] > 0 and b[1] >= 0
    assert rootless == [True] * 8 + [False] * 3


def test_census_lists_the_origin():
    # F is even, so v = 0 is stationary, and u(0) = -conj u(0) is
    # imaginary: in the bulk, v = 0 is the all-imag pattern's point, whose
    # b solves lambda_s / b_s = (xi'' b)_s.  The root exists whenever every
    # xi''_ss > 0 (in y = log b the system is the gradient of a coercive
    # convex function); a Newton iteration in b itself stalled at
    # max|g| ~ 0.1 on this quadratic pair, as on 67 of 2000 random mixtures
    spec = mx.MixtureSpec(r=2, lam=np.array([0.75, 0.25]), coeffs=(
        (1, (0,), 1.0), (1, (1,), 0.1), (2, (0, 0), 0.9), (2, (0, 1), 1.3),
        (2, (1, 1), 0.2)))
    stats = mx.stats(spec)
    u0 = dy.boundary_u(stats, np.zeros(2))
    b = u0.imag
    # the boundary value at eta = 1e-7 is O(eta) off the limit
    assert np.all(u0.real == 0.0) and np.all(b > 0.0)
    assert np.abs(stats.lam / b - stats.xi_dprime @ b).max() <= 1e-6
    assert any(np.all(p.v == 0.0) for p in cx.find_stationary_points(stats))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_census_of_a_linear_mixture_is_the_ideal_points(r):
    # no term of degree >= 2: xi'' = 0, H is linear, and an imag row
    # lambda_s / b_s = (xi'' b)_s = 0 has no root, so the census is the 2^r
    # ideal points, each with F = 0
    spec = mx.MixtureSpec(
        r=r, lam=np.arange(1.0, r + 1) / (r * (r + 1) / 2),
        coeffs=tuple((1, (s,), 1.0 + 0.5 * s) for s in range(r)))
    stats = mx.stats(spec)
    pts = cx.find_stationary_points(stats)
    assert sorted(p.pattern for p in pts) == sorted(
        itertools.product(("plus", "minus"), repeat=r))
    for p in pts:
        delta = np.where(np.array(p.pattern) == "plus", 1.0, -1.0)
        x = p.v / np.sqrt(stats.lam)
        assert np.abs(x - mx.ideal_radial(stats, delta)).max() <= 1e-12
        assert abs(p.F) <= 1e-12 and p.is_global_max
    value, arg = cx.sup_F(stats)
    assert abs(value) <= 1e-12
    assert np.array_equal(arg, pts[0].v / np.sqrt(stats.lam))


def test_census_b_is_bounded_and_admissible_on_every_mask(solves):
    # every mask of 200 mixtures of degree 1-3, half with each coupling
    # omitted with probability 0.4: each solve makes at most 50 LU solves,
    # returns an admissible root, and finds the all-imag root whenever
    # every xi''_ss > 0, where it exists
    roots = coercive = none = 0
    for drop in (0.0, 0.4):
        for spec in _seeded_mixtures(100, 7, min_degree=1, drop=drop):
            stats = mx.stats(spec)
            lam, xp, xpp = stats.lam, stats.xi_prime, stats.xi_dprime
            for mask in itertools.product((False, True), repeat=stats.r):
                imag = np.array(mask)
                solves.clear()
                b = cx._census_b(stats, imag)
                assert len(solves) <= 50
                if imag.all() and (np.diag(xpp) > 0).all():
                    assert b is not None
                    coercive += 1
                if b is None:
                    none += 1
                    continue
                roots += 1
                g = np.where(imag, lam / np.where(imag, b, 1.0), xp * b) - xpp @ b
                assert np.abs(g).max() <= 1e-12
                assert (b[imag] > 0).all() and (b[~imag] >= 0).all()
    assert min(coercive, none) > 50 and roots > 400


# gamma^2 of two one-species mixtures without a field, xi(1) = 1: degrees
# 2 and 3, and degrees 2 and 4
ONE_SPECIES = [(0.0, 0.6, 0.4), (0.0, 0.9, 0.0, 0.1)]


def _one_species_gap(gamma_sq, s, E):
    """F_extended - F_sy at s = x / sqrt(2 xi'') and energy E."""
    spec = single_species(np.sqrt(gamma_sq))
    stats = mx.stats(spec)
    x = s * np.sqrt(2.0 * stats.xi_dprime[0, 0])
    return (cx.F_extended(stats, [x], E)
            - F_sy(ss.thresholds_from_mixture(spec), s, E))


@pytest.mark.parametrize("gamma_sq", ONE_SPECIES)
def test_F_extended_is_the_one_species_formula_in_the_bulk(gamma_sq):
    # |s| < sqrt 2, where F_sy has no Theta term: the z = 0 certificate
    # takes the Dyson boundary value to the eta -> 0 limit, so the two
    # agree to rounding
    for s in np.linspace(-1.4, 1.4, 8):
        for E in (-1.0, 0.0, 1.2):
            assert abs(_one_species_gap(gamma_sq, s, E)) <= 1e-12


@pytest.mark.parametrize("gamma_sq", ONE_SPECIES)
def test_F_extended_is_the_one_species_formula_outside_the_bulk(gamma_sq):
    # |s| > sqrt 2, where both weigh Theta(s) by 1
    for s in (1.5, 2.236, -2.6):
        for E in (-1.0, 0.7):
            assert abs(_one_species_gap(gamma_sq, s, E)) <= 1e-12


@hst.composite
def _random_mixtures(draw):
    r = draw(hst.integers(1, 3))
    degree = draw(hst.integers(2, 3))
    weights = np.array(draw(hst.lists(hst.floats(0.2, 1.0), min_size=r,
                                      max_size=r)))
    # no external field in some species, but every coupling present: a
    # vanishing xi''-row leaves the Dyson equation without its continuum
    coeffs = [(1, (s,), draw(hst.floats(0.0, 2.0))) for s in range(r)]
    coeffs += [(p, idx, draw(hst.floats(0.1, 1.5)))
               for p in range(2, degree + 1)
               for idx in itertools.combinations_with_replacement(range(r), p)]
    return mx.MixtureSpec(r=r, lam=weights / weights.sum(),
                          coeffs=tuple(coeffs))


# derandomized, so that every run draws the same 40 mixtures
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_random_mixtures())
def test_sup_sign_matches_solvability_on_random_mixtures(spec):
    # the paper's dichotomy: exponentially many critical points exactly
    # when diag(xi') - xi'' has a negative eigenvalue
    stats = mx.stats(spec)
    min_eig = mx.classify_solvability(spec).min_eig
    assume(abs(min_eig) > 1e-3 and np.all(stats.xi_prime > 0))
    value, _ = cx.sup_F(stats)
    assert (value > 1e-9) == (min_eig < 0)


@functools.cache
def _survey():
    """240 seeded mixtures at r = 4-6, half of them sparse.

    Each draw takes r in [4, 6], a degree in [2, 3], lambda proportional to
    U(0.2, 1), fields U(0.1, 2) and couplings U(0.1, 1.5); every other draw
    drops each coupling with probability 0.4, which can leave xi''_ss = 0.
    A draw is kept when |min_eig| > 1e-3.  Returns (stats, min_eig) pairs.
    """
    rng = np.random.default_rng(5)
    kept, draws = [], 0
    while len(kept) < 240:
        sparse, draws = draws % 2 == 1, draws + 1
        r, degree = int(rng.integers(4, 7)), int(rng.integers(2, 4))
        weights = rng.uniform(0.2, 1.0, r)
        coeffs = [(1, (s,), rng.uniform(0.1, 2.0)) for s in range(r)]
        for p in range(2, degree + 1):
            for idx in itertools.combinations_with_replacement(range(r), p):
                gamma = rng.uniform(0.1, 1.5)
                if not (sparse and rng.uniform() < 0.4):
                    coeffs.append((p, idx, gamma))
        spec = mx.MixtureSpec(r=r, lam=weights / weights.sum(),
                              coeffs=tuple(coeffs))
        min_eig = mx.classify_solvability(spec).min_eig
        if abs(min_eig) > 1e-3:
            kept.append((mx.stats(spec), min_eig))
    return kept


# the survey mixtures whose census raised NonConvergence when a polished
# boundary solve took two eta levels and checked their drift; all four are
# strictly super-solvable, with some xi''_ss = 0
DRIFT_RAISED = (87, 173, 213, 237)
# survey mixture 173's census holds 8 points with |u_3| near 241, at a
# species with xi''_33 = 0: each u is a certified z = 0 root, yet with
# Re u_3 = -7.2e-9 where the pattern pins 0, their residual reads 7.2e-9 to
# 7.5e-9, above 1e-10
ILL_CONDITIONED = {173: 8}


@pytest.mark.parametrize("k", range(40))
def test_sup_sign_matches_solvability_at_r_4_to_6(k):
    stats, min_eig = _survey()[k]
    value, _ = cx.sup_F(stats)
    assert (value > 1e-9) == (min_eig < 0)


@pytest.mark.parametrize("k", DRIFT_RAISED)
def test_sup_vanishes_where_the_level_drift_raised(k):
    stats, min_eig = _survey()[k]
    assert min_eig > 0
    value, _ = cx.sup_F(stats)
    assert abs(value) <= 1e-12


@pytest.mark.parametrize("k", list(range(40)) + list(DRIFT_RAISED))
def test_census_residuals_at_r_4_to_6(k):
    # every census point's residual is at most 1e-10 through the Dyson
    # solve, apart from the named ill-conditioned ones, none a maximiser;
    # each of those is a z = 0 root: the distance gate of the certificate
    # is relative, so a root 300 from a continued |u_3| of 1.8e4 passes
    stats, _ = _survey()[k]
    points = cx.find_stationary_points(stats)
    high = [p for p in points if p.residual > 1e-10]
    assert len(high) == ILL_CONDITIONED.get(k, 0)
    if high:
        assert not any(p.is_global_max for p in high)
        V = np.array([p.v for p in high])
        U = dy.boundary_values(stats, V)
        assert np.all(np.abs(U).max(axis=1) > 200.0)
        assert dy._resid(U.T, V.T / stats.lam[:, None], dy._coupling(stats),
                         0.0).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_census_residuals_on_presets(name):
    points = cx.find_stationary_points(mx.stats(get_preset(name)))
    assert max(p.residual for p in points) <= 1e-12


def test_sup_vanishes_linearly_at_the_solvable_boundary():
    # approaching c* = sqrt(3) from the sub-solvable side, sup F falls to 0
    # in proportion to the smallest eigenvalue of diag(xi') - xi''
    ratios = []
    for gap in np.geomspace(1e-4, 1e-2, 5):
        spec = _cubic_mixture(np.sqrt(3.0) - gap)
        min_eig = mx.classify_solvability(spec).min_eig
        assert min_eig < 0
        ratios.append(cx.sup_F(mx.stats(spec))[0] / abs(min_eig))
    assert max(ratios) - min(ratios) < 0.01 * min(ratios)


def test_sup_typed_errors(monkeypatch):
    with pytest.raises(ValidationError):
        cx.sup_F(uncoupled(7))
    # no imag mask solved: no candidate, an empty census
    monkeypatch.setattr(cx, "_census_b", lambda *args: None)
    assert cx.find_stationary_points(FB) == []
    with pytest.raises(NonConvergence):
        cx.sup_F(FB)


@pytest.mark.parametrize("name", ["three-species", "symmetric-pair"])
def test_sup_maximiser_does_not_read_the_last_bits_of_F(name, monkeypatch):
    # sup F = 0 is reached at all 2^r ideal points, which tie to within
    # rounding: nudging every F by 2 ulp, up where v_1 > 0 and down
    # elsewhere, then the other way round, must not move the maximiser
    stats = mx.stats(get_preset(name))
    rows = cx._F_rows
    args = []
    for up in (True, False):
        def nudged(st, V, U, up=up):
            values, grads = rows(st, V, U)
            toward = np.where((V[:, 0] > 0) == up, np.inf, -np.inf)
            return np.nextafter(np.nextafter(values, toward), toward), grads

        monkeypatch.setattr(cx, "_F_rows", nudged)
        args.append(cx.sup_F(stats)[1])
    assert np.array_equal(args[0], args[1])


def test_F_point_is_quadratic_part_plus_psi():
    for x in (np.array([0.4, -1.2]), np.array([2.5, 0.3]),
              np.array([-3.0, -2.0])):
        v = np.sqrt(FC.lam) * x
        want = (cx._quad_const(FC) - 0.5 * float(v @ np.linalg.solve(FC.A, v))
                + dy.psi(FC, x))
        assert cx.F_point(FC, x).F == want


def _mixture_r5():
    # every coupling of degree 2 present, with random fields and weights
    rng = np.random.default_rng(12)
    weights = rng.uniform(0.2, 1.0, 5)
    coeffs = [(1, (s,), rng.uniform(0.1, 2.0)) for s in range(5)]
    coeffs += [(2, idx, rng.uniform(0.1, 1.5))
               for idx in itertools.combinations_with_replacement(range(5), 2)]
    return mx.MixtureSpec(r=5, lam=weights / weights.sum(),
                          coeffs=tuple(coeffs))


@pytest.mark.parametrize("name", sorted(PRESETS) + ["r=5"])
def test_F_and_psi_rows_match_their_one_row_definitions(name):
    # _F_rows takes A^-1 v from one product with inv(A) and both quadratic
    # forms by einsum; each row against np.linalg.solve and the one-row
    # formula (1/2) Re(u xi'' u) - lambda . log|u|, relative to the terms
    st = mx.stats(_mixture_r5() if name == "r=5" else get_preset(name))
    V = np.random.default_rng(st.r).uniform(-3.0, 3.0, (40, st.r))
    U = dy.boundary_values(st, V)
    F, grad = cx._F_rows(st, V, U)
    psi = dy.psi_of_u(st, U)
    for v, u, f, g, p in zip(V, U, F, grad, psi):
        ainv_v = np.linalg.solve(st.A, v)
        quad = 0.5 * (u @ st.xi_dprime @ u).real
        logs = st.lam @ np.log(np.abs(u))
        assert abs(p - (quad - logs)) <= 1e-13 * (abs(quad) + abs(logs))
        terms = [cx._quad_const(st), 0.5 * v @ ainv_v, quad, logs]
        assert abs(f - (terms[0] - terms[1] + quad - logs)) <= (
            1e-13 * sum(map(abs, terms)))
        want = -ainv_v - u.real
        assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()


def test_r_auto_is_twice_the_ideal_radial_plus_four():
    for name in PRESETS:
        spec = get_preset(name)
        plus = mx.ideal_stats(spec, np.ones(spec.r)).radial
        assert abs(cx._r_auto(mx.stats(spec))
                   - (2.0 * np.max(plus) + 4.0)) < 1e-14


def test_decay_at_auto_radius():
    for st in (SC, FB, P3):
        radius = cx._r_auto(st)
        for delta in mx.all_sign_patterns(st.r):
            assert cx.F_point(st, radius * delta).F <= -1.0
        for j in range(st.r):
            e = np.zeros(st.r)
            e[j] = radius
            assert cx.F_point(st, e).F <= -1.0


def test_scan_one_species():
    sc = cx.scan(SC, (-6.0, 6.0, 1201))
    axis = sc.grid[0]
    assert sc.F_values.shape == (1201,)
    assert np.isfinite(sc.F_values).all()
    assert sc.F_values.max() < 1e-8
    assert sc.F_values.max() > -1e-5
    # one-species nonreal region is |x| < 2 sqrt(xi'')
    step = axis[1] - axis[0]
    masked = axis[sc.boundary_mask]
    assert masked.min() > -2.0 - 2 * step and masked.max() < 2.0 + 2 * step
    inner = np.abs(axis) < 2.0 - 2 * step
    assert sc.boundary_mask[inner].all()


def test_scan_pair_topology():
    sc = cx.scan(FB, (-6.0, 6.0, 61))
    assert np.isfinite(sc.F_values).all()
    _, n_components = ndimage.label(sc.boundary_mask)
    assert n_components == 1
    # scan fills one half of a symmetric grid by mirroring the other, so
    # these two hold by construction; the independent check of the mirror is
    # test_boundary_values_mirror_under_v_to_minus_v in tests/test_dyson.py
    assert np.array_equal(sc.boundary_mask, sc.boundary_mask[::-1, ::-1])
    assert np.allclose(sc.F_values, sc.F_values[::-1, ::-1], atol=1e-9)


def test_scan_matches_pointwise_F():
    sc = cx.scan(FB, (-3.0, 3.0, 7))
    for i in (0, 3, 5):
        for j in (1, 4, 6):
            x = np.array([sc.grid[0][i], sc.grid[1][j]])
            assert abs(sc.F_values[i, j] - cx.F_point(FB, x).F) < 1e-5


@pytest.mark.parametrize("st, grid_spec, solved", [
    (FB, (-3.0, 3.0, 7), 25), (TS, (-2.0, 2.0, 5), 63),
    (FB, (-3.0, 3.0, 8), 32), (FB, (-3.0, 2.0, 9), 81),
], ids=["pair-odd", "three-odd", "pair-even", "pair-asymmetric"])
def test_scan_solves_one_point_of_each_mirror_pair(st, grid_spec, solved,
                                                   monkeypatch):
    # F(-x) = F(x), so a grid with lo == -hi solves ceil(n^r / 2) rows and
    # an asymmetric grid solves all n^r
    rows, solve = [], dy.boundary_values

    def counted(stats, V, polish=True):
        rows.append(len(V))
        return solve(stats, V, polish)

    monkeypatch.setattr(cx.dyson, "boundary_values", counted)
    sc = cx.scan(st, grid_spec)
    assert sum(rows) == solved
    lo, hi, n = grid_spec
    axis = sc.grid[0]
    assert axis[0] == lo and axis[-1] == hi
    if lo == -hi:
        assert np.array_equal(axis, -axis[::-1])
        assert (0.0 in axis) == (n % 2 == 1)
    else:
        assert np.array_equal(axis, np.linspace(lo, hi, n))


def test_scan_asymmetric_grid_matches_pointwise_F():
    # every row of an asymmetric grid is solved: no mirror fills it
    sc = cx.scan(FB, (-3.0, 2.0, 9))
    for i, j in itertools.product((0, 2, 4, 6, 8), (0, 3, 5, 8)):
        x = np.array([sc.grid[0][i], sc.grid[1][j]])
        assert abs(sc.F_values[i, j] - cx.F_point(FB, x).F) < 1e-5


@pytest.mark.parametrize("name, grid_spec, calls, solved", [
    ("skew-pair", 101, 1, 5101), ("three-species", 21, 1, 4631),
    ("symmetric-pair", None, 11, 45301),
])
def test_scan_solves_balanced_batches(name, grid_spec, calls, solved,
                                      monkeypatch):
    # round(h / SCAN_CHUNK) batches, at least one, of sizes within 1
    rows, solve = [], dy.boundary_values

    def counted(stats, V, polish=True):
        rows.append(len(V))
        return solve(stats, V, polish)

    monkeypatch.setattr(cx.dyson, "boundary_values", counted)
    cx.scan(mx.stats(get_preset(name)), grid_spec)
    assert len(rows) == calls
    assert max(rows) - min(rows) <= 1 and sum(rows) == solved


def test_scan_chunking_consistent(monkeypatch):
    b = cx.scan(SC, (-3.0, 3.0, 101))
    monkeypatch.setattr(cx, "SCAN_CHUNK", 17)
    a = cx.scan(SC, (-3.0, 3.0, 101))
    assert np.allclose(a.F_values, b.F_values, atol=1e-9)
    assert np.array_equal(a.boundary_mask, b.boundary_mask)


def test_scan_validation():
    with pytest.raises(ValidationError):
        cx.scan(FB, (2.0, -2.0, 10))
    with pytest.raises(ValidationError):
        cx.scan(FB, (-2.0, 2.0, 1))
    with pytest.raises(ValidationError):
        cx.scan(uncoupled(4))
