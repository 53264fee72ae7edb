import itertools
import re

import numpy as np
import pytest
from scipy.optimize import fsolve

from glassland import complexity as cx
from glassland import dyson as dy
from glassland import mixture as mx
from glassland.errors import (DegenerateU, InconsistentProbes, MassDeficit,
                              NonConvergence, ValidationError, ZeroComponent)
from glassland.presets import PRESETS, get_preset

SC = mx.stats(get_preset("one-species-quadratic"))
P3 = mx.stats(get_preset("pure3"))
FB = mx.stats(get_preset("symmetric-pair"))
FC = mx.stats(get_preset("skew-pair"))
TC = mx.stats(get_preset("cubic-pair"))
T3 = mx.stats(get_preset("three-species"))


def test_boundary_semicircle_center():
    u = dy.boundary_u(SC, np.zeros(1))
    assert abs(u[0] - 1j) < 1e-6


def test_boundary_inside_support():
    u = dy.boundary_u(SC, np.array([1.0]))
    assert abs(u[0] - (-1 + 1j * np.sqrt(3)) / 2) < 1e-6


def test_boundary_fig1a_maximizer_is_real():
    u = dy.boundary_u(SC, np.array([4 / np.sqrt(3)]))
    assert u[0].imag == 0.0
    assert abs(u[0].real + 1 / np.sqrt(3)) < 1e-10


def test_boundary_pure3():
    u0 = dy.boundary_u(P3, np.zeros(1))
    assert abs(u0[0] - 1j / np.sqrt(6)) < 1e-6
    ue = dy.boundary_u(P3, np.array([2 * np.sqrt(6)]))
    assert ue[0].imag == 0.0
    assert abs(ue[0].real + 1 / np.sqrt(6)) < 1e-5


def test_solve_dyson_at_i():
    sol = dy.solve_dyson(SC, np.zeros(1), 1j)
    assert abs(sol.m[0] - 1j * (np.sqrt(5) - 1) / 2) < 1e-10
    assert sol.residual <= 1e-12
    assert sol.m[0].imag > 0
    # for r = 1 the cold start is the root itself: no Newton round
    assert sol.iterations == 0
    # for r = 2 Newton alone solves the point; its rounds count as work
    sol = dy.solve_dyson(FB, np.array([1.0, -0.5]), 1j)
    assert sol.residual <= 1e-12 and np.all(sol.m.imag > 0)
    assert sol.iterations >= 1


def test_solve_dyson_invariants_random():
    rng = np.random.default_rng(21)
    for stats in (FB, TC):
        for _ in range(10):
            x = rng.uniform(-4, 4, size=stats.r)
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.0))
            sol = dy.solve_dyson(stats, x, z)
            assert sol.residual <= 1e-12
            assert np.all(sol.m.imag > 0)
            # resolvent-type lower bound on |m_s|
            bound = abs(z) + np.abs(x / np.sqrt(stats.lam)).max() \
                + stats.xi_dprime.sum() / stats.lam.min()
            assert np.abs(sol.m).min() > 1.0 / (bound + 1.0)


def test_solve_dyson_validation():
    with pytest.raises(ValidationError):
        dy.solve_dyson(SC, np.zeros(1), 1.0 - 1j)
    with pytest.raises(ValidationError):
        dy.solve_dyson(SC, np.zeros(1), 1.0)
    warm = dy.solve_dyson(SC, np.zeros(1), 1e-7j).m
    sol = dy.solve_dyson(SC, np.zeros(1), 1e-12j, warm=warm)
    assert sol.residual <= 1e-12
    # non-finite input and a warm start of the wrong length
    for x, z, warm in (([np.nan, 0.0], 1j, None), ([np.inf, 0.0], 1j, None),
                       ([0.0, 0.0], np.nan + 1j, None),
                       ([0.0, 0.0], 1j, [np.nan, 1j]),
                       ([0.0, 0.0], 1j, [1j, 1j, 1j])):
        with pytest.raises(ValidationError):
            dy.solve_dyson(FB, x, z, warm=warm)


def test_solve_dyson_on_real_axis():
    # outside the semicircle support m is real: the root of 1 + (3 + m) m
    # nearer zero, reached by Newton from a warm start
    sol = dy.solve_dyson(SC, np.array([3.0]), 0.0, warm=[-0.4])
    assert abs(sol.m[0] - (np.sqrt(5) - 3) / 2) < 1e-12
    assert sol.residual <= 1e-12


def test_warm_start_continuation_agrees():
    z = 0.4 + 1e-6j
    cold = dy.solve_dyson(FB, np.array([1.0, -0.5]), z)
    warm0 = dy.solve_dyson(FB, np.array([1.0, -0.5]), 0.4 + 1e-4j).m
    hot = dy.solve_dyson(FB, np.array([1.0, -0.5]), z, warm=warm0)
    assert np.abs(cold.m - hot.m).max() < 1e-9


def test_stieltjes_transform_consistency():
    x = np.array([0.7, -0.4])
    meas = dy.spectral_measure(FB, x)
    for z in (0.3 + 0.7j, -1.1 + 0.5j):
        direct = dy.solve_dyson(FB, x, z).m
        for s in range(2):
            via_int = np.trapezoid(meas.density_s[s] / (meas.grid - z), meas.grid)
            assert abs(via_int - direct[s]) < 1e-3


def test_hoelder_ratio_bounded():
    rng = np.random.default_rng(5)
    a = rng.uniform(-5, 5, size=(1000, 2))
    b = rng.uniform(-5, 5, size=(1000, 2))
    K = FB.xi_dprime / FB.lam[:, None]
    ua = dy._boundary_batch(a / FB.lam, K, FB.lam)
    ub = dy._boundary_batch(b / FB.lam, K, FB.lam)
    dist = np.linalg.norm(a - b, axis=1)
    keep = dist > 1e-9
    ratio = np.linalg.norm(ua - ub, axis=1)[keep] / dist[keep] ** (1 / 3)
    assert ratio.max() < 10.0


def test_boundary_jacobian_is_inverse_stability_matrix():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        v = rng.uniform(-5, 5, size=2)
        u = dy.boundary_u(FB, v)
        M = np.diag(FB.lam / u ** 2) - FB.xi_dprime.astype(complex)
        if np.abs(np.linalg.eigvals(M)).min() <= 1e-3:
            continue
        h = 1e-4
        J = np.zeros((2, 2), complex)
        for t in range(2):
            e = np.zeros(2)
            e[t] = h
            J[:, t] = (dy.boundary_u(FB, v + e) - dy.boundary_u(FB, v - e)) / (2 * h)
        Minv = np.linalg.inv(M)
        assert np.linalg.norm(J - Minv) / np.linalg.norm(Minv) < 1e-4
        checked += 1
    assert checked >= 20


def test_boundary_values_rows_are_boundary_u():
    # rows in and out of the real region, so both the polished and the
    # continued values come back through one call
    V = np.random.default_rng(7).uniform(-5, 5, size=(40, 2))
    U = dy.boundary_values(FB, V)
    assert np.abs(U - [dy.boundary_u(FB, v) for v in V]).max() <= 1e-10
    real = np.abs(U.imag).max(axis=1) <= dy.REAL_TOL
    assert 0 < real.sum() < len(V)
    psi_rows = dy.psi_of_u(FB, U)
    assert psi_rows.shape == (40,)
    assert np.abs(psi_rows - [dy.psi_of_u(FB, u) for u in U]).max() <= 1e-13
    for bad in (V[0], V[None], np.array([[0.0, np.inf]])):
        with pytest.raises(ValidationError):
            dy.boundary_values(FB, bad)


def _scaled_step(K, w, denom):
    # the kernel's Newton step: J = diag(denom) + diag(w) K is
    # diag(w) (K + diag(denom/w)), and -F/w = -(1/w + denom)
    inv = 1.0 / w
    return np.linalg.solve(K + np.diag(denom * inv), -(inv + denom))


def _polish_real_row(shift_row, K, wgt, m_row):
    # reference: the real-root polish of one row, returning the root or None
    w = m_row.real.copy()
    if np.abs(w).min() < 1e-12:
        return None
    target = 5e-14
    for _ in range(200):
        denom = shift_row + K @ w
        F = 1.0 + denom * w
        base = np.abs(F).max()
        if base <= target:
            break
        try:
            d = _scaled_step(K, w, denom)
        except np.linalg.LinAlgError:
            J = np.diag(denom) + w[:, None] * K
            d = np.linalg.lstsq(J, -F, rcond=None)[0]
        t = 1.0
        for _bt in range(30):
            cand = w + t * d
            if np.abs(1.0 + (shift_row + K @ cand) * cand).max() < base:
                w = cand
                break
            t *= 0.5
        else:
            break
    for _ in range(12):
        denom = shift_row + K @ w
        F = 1.0 + denom * w
        base = np.abs(F).max()
        if base == 0.0:
            break
        try:
            d = _scaled_step(K, w, denom)
        except np.linalg.LinAlgError:
            break
        best = None
        for mult in (3.0, 2.0, 1.0):
            cand = w + mult * d
            rc = np.abs(1.0 + (shift_row + K @ cand) * cand).max()
            if rc < base and (best is None or rc < best[0]):
                best = (rc, cand)
        if best is None:
            break
        w = best[1]
    if np.abs(1.0 + (shift_row + K @ w) * w).max() > 1e-12:
        return None
    if np.any(np.abs(w - m_row) > dy.HOLDER_ALLOW * np.maximum(1.0, np.abs(m_row))):
        return None
    Mb = np.diag(wgt / w ** 2) - wgt[:, None] * K
    if np.linalg.eigvalsh(Mb)[0] < -1e-5:
        return None
    return w


def _assert_polish_matches_rows(shift, K, wgt, m):
    # shift and m are (r, n), one column per row, as the kernel takes them
    roots, ok = dy._polish_real(shift, K, wgt, m)
    want = [_polish_real_row(s, K, wgt, row) for s, row in zip(shift.T, m.T)]
    assert ok.tolist() == [w is not None for w in want]
    for root, w in zip(roots.T[ok], [w for w in want if w is not None]):
        assert np.abs(root - w).max() <= 1e-13
    return roots, ok


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_bulk_rows_match_richardson_extrapolation(name):
    # the continued value at z = i eta is off its eta -> 0 limit by O(eta),
    # which the extrapolation (10 m(1e-8 i) - m(1e-7 i)) / 9 cancels; the
    # z = 0 certificate lands on that limit, where the continued values at
    # ETA were up to 1.9e-6 off
    st = mx.stats(get_preset(name))
    V = np.random.default_rng(1).uniform(-1.5, 1.5, (600, st.r))
    U = dy.boundary_values(st, V)
    bulk = np.abs(U.imag).max(axis=1) > dy.REAL_TOL
    assert bulk.any()
    shift = np.ascontiguousarray((V[bulk] / st.lam).T)
    m7, m8 = (dy._solve_batch(shift, dy._coupling(st), 1j * eta)[0]
              for eta in (1e-7, 1e-8))
    assert np.abs(U[bulk] - (10.0 * m8 - m7).T / 9.0).max() <= 1e-10


def test_polish_gates_match_per_row_oracle():
    # 1 + (s + w) w = 0 has real roots (-s +- sqrt(s^2 - 4))/2 for |s| >= 2,
    # the one nearer zero stable (1/w^2 - 1 > 0), the other not
    K, wgt = np.ones((1, 1)), np.ones(1)
    shift, m = np.array([
        [3.0, -0.38 + 1e-9j],   # simple stable root
        [2.0, -0.99 + 1e-3j],   # band edge: the double root w = -1
        [1e6, 0.0 + 1e-9j],     # min |w| < 1e-12, though the root -1e-6
                                # would pass every gate
        [0.0, 0.3 + 1e-9j],     # no real root: residual gate
        [3.0, 0.3 + 1e-9j],     # the stable root, too far: Hoelder gate
        [3.0, -2.6 + 1e-9j],    # the unstable root nearby: eigenvalue gate
        [3.0, -1.5 + 1e-9j],    # J = s + 2w = 0: the singular fallback
    ]).T
    shift, m = shift.real[None, :], m[None, :]
    roots, ok = _assert_polish_matches_rows(shift, K, wgt, m)
    assert ok.tolist() == [True, True] + [False] * 5
    res = dy._resid(roots, shift, K, 0.0)
    drift = np.abs(roots - m).max(axis=0)
    # which gate turned down each of the last four rows
    assert res[3] > 1e-12 and res[6] > 1e-12
    assert res[4] <= 1e-12 and drift[4] > dy.HOLDER_ALLOW
    assert res[5] <= 1e-12 and drift[5] <= dy.HOLDER_ALLOW
    assert abs(roots[0, 1] + 1.0) < 1e-7


def test_polish_distance_gate_is_relative():
    # without coupling the root of 1 + s w = 0 is -1/s, stable at any size;
    # the eta bias grows with |m|, so the gate scales HOLDER_ALLOW by |m|
    K, wgt = np.zeros((1, 1)), np.ones(1)
    shift = np.full((1, 3), 1e-4)
    m = np.array([[-1e4 + 100.0 + 1e-9j, -1e4 * 1.1 + 1e-9j, -1e4 + 1e-9j]])
    roots, ok = _assert_polish_matches_rows(shift, K, wgt, m)
    assert ok.tolist() == [True, False, True]
    assert np.all(np.abs(roots + 1e4) <= 1e-8)
    # 100 from the root passes at |m| near 1e4, 1000 does not
    drift = np.abs(roots - m)[0]
    assert dy.HOLDER_ALLOW < drift[0] <= dy.HOLDER_ALLOW * 9.9e3 < drift[1]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_polish_matches_per_row_oracle_on_spectral_grid(name):
    st = mx.stats(get_preset(name))
    x = np.random.default_rng(len(name)).uniform(-2.0, 2.0, size=st.r)
    d = x / np.sqrt(st.lam)
    C = dy._grid_radius(st, d)
    shift = np.linspace(-C, C, 2001)[:, None] + d[None, :]
    K = dy._coupling(st)
    m = dy._boundary_batch(shift, K, st.lam, polish=False)
    near = m.imag.max(axis=1) <= dy.HOLDER_ALLOW
    assert near.sum() > 1
    _, ok = _assert_polish_matches_rows(shift[near].T, K, st.lam, m[near].T)
    assert ok.any()


def test_polished_batch_makes_one_polish_call(monkeypatch):
    polish = dy._polish_real
    rows = []

    def counted(shift, K, wgt, m):
        rows.append(shift.shape[1])
        return polish(shift, K, wgt, m)

    monkeypatch.setattr(dy, "_polish_real", counted)
    U = dy.boundary_values(FB, np.random.default_rng(7).uniform(-5, 5, (40, 2)))
    real = np.abs(U.imag).max(axis=1) <= dy.REAL_TOL
    assert len(rows) == 1 and rows[0] >= real.sum() > 1


# a dense continuation, each level warm-started from the one above: the
# reference that the solver's one cold level must match
DENSE_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def _dense_ladder_values(shift, K):
    # the last level of DENSE_LADDER, (n, r) rows in and (r, n) m out
    m = None
    for eta in DENSE_LADDER:
        m, _ = dy._solve_batch(np.ascontiguousarray(shift.T), K, 1j * eta,
                               warm=m)
    return m


def _radial_rows(stats, x, grid):
    # the radial points v = lambda * shift of a spectral grid at x
    return stats.lam * (grid[:, None] + x / np.sqrt(stats.lam))


def _all_pairs(lam, gamma):
    # every degree-2 coupling, the species' own ones gamma, the others 0.5
    r = len(lam)
    return mx.stats(mx.MixtureSpec(
        r=r, lam=np.asarray(lam),
        coeffs=tuple((2, (s, t), gamma if s == t else 0.5)
                     for s, t in itertools.combinations_with_replacement(
                         range(r), 2))))


def _hard_rows(case):
    if case in ("three-species", "skew-pair"):
        # spectral_measure's grid with the support endpoints it found: rows
        # in the bulk, in gaps, outside the support and at band edges
        st, x = {"three-species": (T3, np.array([0.1, -0.2, 0.3])),
                 "skew-pair": (FC, np.array([0.4, -0.7]))}[case]
        meas = dy.spectral_measure(st, x)
        return st, _radial_rows(st, x, np.r_[meas.grid, np.ravel(meas.support)])
    if case == "r=6":
        st = _all_pairs(np.arange(1.0, 7.0) / 21.0, 1.0)
    else:
        # lambda_0 = 1e-3 makes the coupling xi''/lambda stiff
        st = _all_pairs([1e-3, 0.4, 0.599], 1.2)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, st.r)
    C = dy._grid_radius(st, x / np.sqrt(st.lam))
    wide = rng.uniform(-8.0, 8.0, (300, st.r)) * st.lam
    return st, np.r_[_radial_rows(st, x, np.linspace(-C, C, 1001)), wide]


@pytest.mark.parametrize("case", ["three-species", "skew-pair", "r=6",
                                  "lambda=1e-3"])
def test_two_levels_match_dense_ladder(case, monkeypatch):
    # two levels, the solver's one cold level at ETA and the dense ladder's
    # last: the root with Im m >= 0 is unique for Im z > 0, so both reach
    # the same root, and the z = 0 certificate takes both to the same u
    st, V = _hard_rows(case)
    K = dy._coupling(st)
    fallbacks = _count_continuations(monkeypatch)
    ladder = _dense_ladder_values(V / st.lam, K)
    ref_fallbacks = sum(n for n, _, _ in fallbacks)
    fallbacks.clear()
    got = dy.boundary_values(st, V)
    # no more rows continued in eta than down the dense ladder
    assert sum(n for n, _, _ in fallbacks) <= ref_fallbacks
    # every row of these hard rows is certified, to the root from the ladder
    assert dy._resid(got.T, V.T / st.lam[:, None], K, 0.0).max() <= 1e-12
    monkeypatch.setattr(dy, "_solve_batch", lambda *args: (ladder.copy(), 0))
    assert np.abs(got - dy.boundary_values(st, V)).max() <= 1e-12


@pytest.mark.parametrize("polish", [False, True])
def test_boundary_batch_makes_one_solve(polish, monkeypatch):
    # polished or not, a batch is solved once, cold at z = i ETA
    solve, calls = dy._solve_batch, []

    def counted(shift, K, z, warm=None):
        calls.append((shift.shape[1], z, warm))
        return solve(shift, K, z, warm)

    monkeypatch.setattr(dy, "_solve_batch", counted)
    V = np.random.default_rng(8).uniform(-3.0, 3.0, (60, 3))
    dy.boundary_values(T3, V, polish=polish)
    assert calls == [(60, 1j * dy.ETA, None)]


# two solves that each stop somewhere below SOLVER_TOL in residual differ by
# up to the inverse Jacobian times that: near band edges the Jacobian is
# close to singular, and on _hard_rows the gap reached 1.4e-11 (lambda=1e-3)
ONE_LEVEL_TOL = 50.0 * dy.SOLVER_TOL


@pytest.mark.parametrize("case", ["three-species", "skew-pair", "r=6",
                                  "lambda=1e-3"])
def test_one_level_matches_dense_ladder(case, monkeypatch):
    # unpolished, the rows are solved once, cold at the last level, and
    # reach the root that the dense continuation reaches at that level
    st, V = _hard_rows(case)
    fallbacks = _count_continuations(monkeypatch)
    ref = _dense_ladder_values(V / st.lam, dy._coupling(st))
    ref_fallbacks = sum(n for n, _, _ in fallbacks)
    fallbacks.clear()
    got = dy.boundary_values(st, V, polish=False)
    assert np.abs(got - ref.T).max() <= ONE_LEVEL_TOL
    assert sum(n for n, _, _ in fallbacks) <= ref_fallbacks


@pytest.fixture(scope="module")
def edge_batch():
    """Rows outside the support, in the bulk and just below a band edge,
    continued through eta = 1e-2, 1e-3, 1e-4 to z = 1e-5j, every seventh row
    already solved there.  The levels are pinned here, apart from the
    solver's, so that many rows are still live at z.  shift and m0 are
    (r, n), one column per row, as the kernel takes them."""
    x = np.array([0.1, -0.2, 0.3])
    meas = dy.spectral_measure(T3, x)
    grid = meas.grid
    edge = np.searchsorted(grid, meas.support[0][0])
    mid = len(grid) // 2
    rows = np.r_[edge - 200:edge - 190, mid - 10:mid + 10, edge - 1]
    shift = (x / np.sqrt(T3.lam))[:, None] + grid[None, rows]
    K = dy._coupling(T3)
    m0 = None
    for eta in (1e-2, 1e-3, 1e-4):
        m0, _ = dy._solve_batch(shift, K, 1j * eta, warm=m0)
    z = 1e-5j
    m0[:, ::7] = dy._solve_batch(shift[:, ::7], K, z, warm=m0[:, ::7])[0]
    return shift, K, z, m0


def _no_newton(m, shift, K, z):
    return m, dy._resid(m, shift, K, z), 0


def test_newton_first_matches_the_continuation_down_the_ladder(
        edge_batch, monkeypatch):
    shift, K, _, _ = edge_batch
    # and rows outside the support [-2.49, 2.23]: far below, just above,
    # and far above it
    rows = np.c_[shift, shift[:, :1] + np.array([-20.0, 6.0, 9.0, 60.0])]
    continue_ = dy._continue
    fallbacks = _count_continuations(monkeypatch)
    m = None
    # a cold level, and a warm one below it as solve_dyson takes
    for eta in (10.0 * dy.ETA, dy.ETA):
        z = 1j * eta
        m, _ = dy._solve_batch(rows, K, z, warm=m)
        ref, _ = continue_(rows, K, z)
        assert np.abs(m - ref).max() <= 1e-10
        assert np.all(m.imag > 0)
    # Newton alone solved every row at every level
    assert fallbacks == []


def test_stalled_rows_raise_naming_z(monkeypatch):
    # Newton that never moves leaves the top level of the continuation
    # unsolved, and there is no level to continue from
    monkeypatch.setattr(dy, "_newton_rounds", _no_newton)
    z = 1j * dy.ETA
    with pytest.raises(NonConvergence, match=re.escape(f"to z={z}")):
        dy._solve_batch(np.array([[0.4], [-0.7]]), dy._coupling(FC), z)


def test_continue_shrinks_its_ratio_and_raises(monkeypatch):
    # Newton that solves only the top level: every step below it fails,
    # at the ratios 10, 10**(1/2), ..., 10**(1/128), until the ratio falls
    # to 1.01, and the error names the last level tried and z
    rounds, levels = dy._newton_rounds, []
    K, z = dy._coupling(FC), 1j * dy.ETA
    top = max(1.0, 2.0 * np.sqrt(K.sum(axis=1).max()))

    def top_only(m, shift, K, z, *args):
        levels.append(z)
        if z.imag >= top:
            return rounds(m, shift, K, z, *args)
        return _no_newton(m, shift, K, z)

    monkeypatch.setattr(dy, "_newton_rounds", top_only)
    with pytest.raises(NonConvergence, match=re.escape(f"to z={z}")) as err:
        dy._continue(np.array([[0.4], [-0.7]]), K, z)
    want = top / 10.0 ** 0.5 ** np.arange(8)
    assert levels[0] == 1j * top
    assert np.allclose(np.imag(levels[1:]), want, rtol=1e-14, atol=0.0)
    assert f"level z={levels[-1]}" in str(err.value)


def _count_continuations(monkeypatch):
    """Log each _continue call as (rows, z, its _newton_rounds calls)."""
    continue_, rounds, log, calls = dy._continue, dy._newton_rounds, [], []

    def newton(*args, **kwargs):
        calls.append(args[3])
        return rounds(*args, **kwargs)

    def counted(shift, K, z):
        calls.clear()
        out = continue_(shift, K, z)
        log.append((shift.shape[1], z, len(calls)))
        return out

    monkeypatch.setattr(dy, "_newton_rounds", newton)
    monkeypatch.setattr(dy, "_continue", counted)
    return log


def _ladder_calls(K, z):
    # _continue's _newton_rounds calls when no level fails: the top level,
    # then one per tenfold step of eta down to z, the bound on its work
    eta, calls = max(1.0, 2.0 * np.sqrt(K.sum(axis=1).max())), 1
    while eta > max(z.imag, dy.ETA_FLOOR):
        eta, calls = eta / 10.0, calls + 1
    return calls


# one tiny species weight makes the coupling stiff; from m = i, far below
# the support, Newton drives a component onto Im m_s = 0 and stops there,
# short of the root
STIFF_LAM = np.array([0.003, 0.2, 0.047, 0.75])
STIFF_XI2 = np.array([[0.6, 1.1, 1.1, 1.3], [1.1, 2.0, 1.4, 0.8],
                      [1.1, 1.4, 1.2, 1.7], [1.3, 0.8, 1.7, 2.0]])


@pytest.mark.parametrize("eta", [1e-2, dy.ETA])
def test_stalled_newton_rows_continue_in_eta(eta, monkeypatch):
    # a warm solve from m = i leaves two of the three rows to _continue,
    # which solves them in one Newton call per level
    K = STIFF_XI2 / STIFF_LAM[:, None]
    shift = np.ones((4, 1)) * np.array([-80.0, -70.0, -60.0])
    z = 1j * eta
    start = np.full(shift.shape, 1j)
    _, res, _ = dy._newton_rounds(start.copy(), shift, K, z)
    assert res[0] <= dy.SOLVER_TOL and np.all(res[1:] > dy.SOLVER_TOL)
    continued = _count_continuations(monkeypatch)
    m, _ = dy._solve_batch(shift, K, z, warm=start)
    assert [(n, at) for n, at, _ in continued] == [(2, z)]
    assert continued[0][2] <= _ladder_calls(K, z)
    ref, _ = dy._continue(shift, K, z)
    assert dy._resid(m, shift, K, z).max() <= dy.SOLVER_TOL
    assert np.all(m.imag > 0)
    assert np.abs(m - ref).max() <= 1e-10


# strictly super-solvable (min_eig 0.386), yet at STALLED_V Newton from the
# scalar start stalls at z = i ETA, as it does cold at every eta <= 1e-5
STALLED_PAIR = mx.MixtureSpec(r=2, lam=np.array([0.67, 0.33]), coeffs=(
    (1, (0,), 1.61), (1, (1,), 1.17), (2, (0, 1), 1.5), (3, (0, 1, 1), 1.26)))
STALLED_V = np.array([0.0018, 0.36])


def test_stalled_pair_continues_to_its_boundary_value(monkeypatch):
    st = mx.stats(STALLED_PAIR)
    K, V = dy._coupling(st), STALLED_V[None, :]
    continued = _count_continuations(monkeypatch)
    U = dy.boundary_values(st, V)
    assert [(n, z) for n, z, _ in continued] == [(1, 1j * dy.ETA)]
    assert continued[0][2] <= _ladder_calls(K, 1j * dy.ETA)
    # a certified real z = 0 root
    assert np.all(U.imag == 0.0)
    assert dy._resid(U.T, V.T / st.lam[:, None], K, 0.0).max() <= 1e-12
    ref = _dense_ladder_values(V / st.lam, K)
    got = dy.boundary_values(st, V, polish=False)
    assert np.abs(got - ref.T).max() <= ONE_LEVEL_TOL
    assert np.isfinite(cx.F_point(st, STALLED_V / np.sqrt(st.lam)).F)


def _recomputing_newton_rounds(m, shift, K, z, counts):
    # _newton_rounds as it was before it carried each row's denominator:
    # every round recomputes z + shift + K m on the carried rows; counts
    # the rows accepted at a halving of the step, and those that fail every
    # halving in a round that goes on
    tol = dy.SOLVER_TOL
    res = dy._resid(m, shift, K, z)
    idx = np.flatnonzero(res > tol)
    ml, sl, rl = m.take(idx, 1), shift.take(idx, 1), res[idx]
    used = 0
    while idx.size and used < 40:
        used += 1
        d = dy._newton_step(ml, dy._resid_denom(ml, sl, K, z)[1], K,
                            lstsq=True)
        cand, sp, rp, pend = ml + d, sl, rl, None
        for _ in range(10):
            if z.imag > 0:
                np.maximum(cand.imag, 0.0, out=cand.imag)
            rc = dy._resid(cand, sp, K, z)
            ok = rc < rp
            if pend is None:
                ml, rl = np.where(ok, cand, ml), np.where(ok, rc, rl)
                pend = np.flatnonzero(~ok)
            else:
                counts["halved"] += int(ok.sum())
                ml[:, pend[ok]], rl[pend[ok]] = cand.compress(ok, 1), rc[ok]
                pend = pend[~ok]
            if not pend.size:
                break
            d = 0.5 * d.compress(~ok, 1)
            cand, sp, rp = ml.take(pend, 1) + d, sl.take(pend, 1), rl[pend]
        if pend.size == idx.size:
            break
        counts["stuck"] += pend.size
        done = rl <= tol
        if done.any():
            m[:, idx[done]], res[idx[done]] = ml.compress(done, 1), rl[done]
            idx, rl = idx[~done], rl[~done]
            ml, sl = ml.compress(~done, 1), sl.compress(~done, 1)
    m[:, idx] = ml
    res[idx] = rl
    return m, res, used


def test_carried_denominators_match_recomputed_ones(monkeypatch):
    # numpy sends a one-column K @ m to BLAS gemv, whose last bits differ
    # from gemm's on the same column, and a carried denominator can cross
    # between the two when a halving or the carried set is one row wide;
    # with every product through gemm the carried denominators are the
    # recomputed ones, bit for bit
    resid_denom = dy._resid_denom

    def through_gemm(m, shift, K, z):
        if m.shape[1] != 1:
            return resid_denom(m, shift, K, z)
        res, denom = resid_denom(np.repeat(m, 2, 1), np.repeat(shift, 2, 1),
                                 K, z)
        return res[:1], np.ascontiguousarray(denom[:, :1])

    steps, newton_step = [], dy._newton_step

    def recorded(m, denom, K, lstsq=False):
        steps.append((m.copy(), denom.copy()))
        return newton_step(m, denom, K, lstsq)

    monkeypatch.setattr(dy, "_resid_denom", through_gemm)
    monkeypatch.setattr(dy, "_newton_step", recorded)
    rng = np.random.default_rng(17)
    counts = {kind: {"halved": 0, "stuck": 0}
              for kind in ("cold", "z=0", "stiff")}
    for name in sorted(PRESETS):
        st = mx.stats(get_preset(name))
        K = dy._coupling(st)
        V = rng.uniform(-4.0, 4.0, (300, st.r))
        shift = np.ascontiguousarray((V / st.lam).T)
        roots = dy.boundary_values(st, V).T
        noise = rng.standard_normal((2,) + roots.shape)
        starts = {
            "cold": (1j * dy.ETA, dy._scalar_start(shift, K, 1j * dy.ETA)),
            "z=0": (0.0, roots + 0.05 * (noise[0] + 1j * noise[1])),
        }
        for kind, (z, m0) in starts.items():
            _assert_rounds_match(m0, shift, K, z, counts[kind], steps)
    # the stiff coupling of test_stalled_newton_rows_continue_in_eta, from
    # m = i: some rows fail a whole line search while others go on
    shift = np.ones((4, 1)) * np.linspace(-100.0, 20.0, 25)
    for z in (1e-2j, 1j * dy.ETA):
        _assert_rounds_match(np.full(shift.shape, 1j), shift,
                             STIFF_XI2 / STIFF_LAM[:, None], z,
                             counts["stiff"], steps)
    # the where and compress branches carried some halved row's denominator,
    # and a row that failed every halving kept its last accepted one
    assert counts["cold"]["halved"] > 0 and counts["z=0"]["halved"] > 0
    assert counts["stiff"]["stuck"] > 0


def _assert_rounds_match(m0, shift, K, z, counts, steps):
    # the same m, res and rounds, and every step taken from the same m and
    # denominators; steps records each _newton_step call's m and denom
    steps.clear()
    want = _recomputing_newton_rounds(m0.copy(), shift, K, z, counts)
    want_steps = steps[:]
    steps.clear()
    got = dy._newton_rounds(m0.copy(), shift, K, z)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert len(steps) == len(want_steps)
    for (m, denom), (m_want, denom_want) in zip(steps, want_steps):
        assert np.array_equal(m, m_want) and np.array_equal(denom, denom_want)


def _step_case(rng, n, r, dtype):
    # a real coupling shared by the batch, and (r, n) rows m and shift
    K = rng.uniform(0.0, 1.5, (r, r))
    m = rng.standard_normal((r, n))
    shift = 2.0 + rng.standard_normal((r, n))
    if dtype is complex:
        m = m + 1j * rng.standard_normal((r, n))
        shift = shift + 1j * rng.standard_normal((r, n))
    return K, m, shift


def _jacobian(K, m, shift):
    # J = diag(denom) + diag(m) K per row as (n, r, r), and F as (r, n),
    # with denom formed as the kernel forms it at z = 0
    denom = 0.0 + shift + K @ m
    J = denom.T[:, :, None] * np.eye(len(K)) + m.T[:, :, None] * K
    return J, 1.0 + denom * m


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_solve_rows_matches_lapack(r, dtype):
    # _newton_step's rows against LAPACK on J: r <= 3 solves K + diag(denom/m)
    # by Cramer's rule, r = 4 through LAPACK
    K, m, shift = _step_case(np.random.default_rng(r), 200, r, dtype)
    d = dy._newton_step(m, dy._resid_denom(m, shift, K, 0.0)[1], K)
    J, F = _jacobian(K, m, shift)
    want = np.linalg.solve(J, -F.T[..., None])[..., 0]
    assert d.dtype == want.dtype
    scale = np.linalg.cond(J)[:, None] * np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(d.T - want) <= 1e-13 * scale)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_solve_rows_flags_only_the_singular_row(r):
    # the rows whose scaled system has no finite step, and no others
    K, m, shift = _step_case(np.random.default_rng(10 + r), 6, r, complex)
    m[0, 2] = 0.0                          # a zero component of m
    # K's last row vanishes off the diagonal; at m = 1 and this shift the
    # last row of K + diag(denom/m), and of J, is exactly 0
    K[-1, :-1] = 0.0
    m[:, 4] = 1.0
    shift[-1, 4] = -2.0 * K[-1, -1]
    d = dy._newton_step(m, dy._resid_denom(m, shift, K, 0.0)[1], K)
    # an unsolved row steps 0
    keep = [0, 1, 3, 5]
    assert np.all(d[:, [2, 4]] == 0.0) and np.all(d[:, keep] != 0.0)
    J, F = _jacobian(K, m, shift)
    assert np.allclose(d[:, keep].T,
                       np.linalg.solve(J[keep], -F.T[keep, :, None])[..., 0])
    # with lstsq the unsolved rows take the least-squares step on J
    d_ls = dy._newton_step(m, dy._resid_denom(m, shift, K, 0.0)[1], K,
                           lstsq=True)
    for i in (2, 4):
        assert np.allclose(d_ls[:, i],
                           np.linalg.lstsq(J[i], -F[:, i], rcond=None)[0])
    assert np.array_equal(d_ls[:, keep], d[:, keep])


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_empty_batches_pass_through(r):
    d = dy._newton_step(np.zeros((r, 0), complex), np.zeros((r, 0), complex),
                        np.eye(r))
    assert d.shape == (r, 0)
    K = np.eye(r)
    roots, ok = dy._polish_real(np.zeros((r, 0)), K, np.ones(r) / r,
                                np.zeros((r, 0), complex))
    assert roots.shape == (r, 0) and ok.shape == (0,)


@pytest.mark.parametrize("name", [n for n in sorted(PRESETS)
                                  if get_preset(n).r == 1])
def test_scalar_start_is_the_one_species_root(name):
    # for r = 1 the decoupled system is the system: the cold start is the
    # root, and no Newton round is needed
    st = mx.stats(get_preset(name))
    K = dy._coupling(st)
    shift = (np.linspace(-30.0, 30.0, 61) / np.sqrt(st.lam))[None, :]
    for z in (1e-7j, 1e-6j, 1e-2j, 1j, 0.7 + 1e-6j, -2.5 + 0.3j):
        m = dy._scalar_start(shift, K, z)
        assert dy._resid(m, shift, K, z).max() <= 1e-12
        assert np.all(m.imag >= 0.0)
        assert dy._solve_batch(shift, K, z)[1] == 0


def test_scalar_start_mirrors_under_shift_to_minus_shift():
    # the z = i eta system is invariant under (m, shift) -> (-conj m, -shift)
    # and so is its cold start, bitwise, as boundary_values' mirror needs;
    # a species with no coupling (k_s = 0) starts at -1/(z + shift_s)
    rng = np.random.default_rng(4)
    free = np.array([[0.0, 0.0], [0.7, 1.3]])
    for K in [dy._coupling(st) for st in (SC, FB, FC, TC, T3)] + [free]:
        S = rng.uniform(-6.0, 6.0, (len(K), 500))
        S[:, :3] = [0.0, 1e-9, 40.0]
        for eta in (dy.ETA, 1e-2, 1.0):
            z = 1j * eta
            m = dy._scalar_start(S, K, z)
            assert np.array_equal(dy._scalar_start(-S, K, z), -np.conj(m))
            assert np.all(m.imag >= 0.0)
            if K is free:
                assert np.allclose(m[0], -1.0 / (z + S[0]), rtol=1e-15)


def test_stalled_cold_rows_continue_in_eta_and_converge(monkeypatch):
    # the mirror test's random-1 rays hold rows where Newton stalls from the
    # scalar start; _continue solves them down from eta_top at the one
    # cold level, polished or not, in one Newton call per level
    st = mx.stats(_random_mixture(1))
    V = _rays_through_the_edge(st, seed=5)
    continued = _count_continuations(monkeypatch)
    for polish in (False, True):
        U = dy.boundary_values(st, V, polish=polish)
        assert np.all(np.isfinite(U)) and np.all(U.imag >= 0.0)
    z = 1j * dy.ETA
    assert [(n, at) for n, at, _ in continued] == [(2, z), (2, z)]
    assert max(calls for _, _, calls in continued) <= _ladder_calls(
        dy._coupling(st), z)


def test_boundary_values_are_label_invariant():
    # relabelling the species permutes lambda, xi'' and v, and so u
    spec = get_preset("three-species")
    V = np.random.default_rng(11).uniform(-4.0, 4.0, size=(50, 3))
    U = dy.boundary_values(T3, V)
    real = np.abs(U.imag).max(axis=1) <= dy.REAL_TOL
    assert 0 < real.sum() < len(V)
    for perm in itertools.permutations(range(3)):
        perm = list(perm)
        relabelled = mx.MixtureSpec(
            r=3, lam=spec.lam[perm],
            coeffs=tuple((deg, tuple(sorted(perm.index(s) for s in idx)), g)
                         for deg, idx, g in spec.coeffs))
        st = mx.stats(relabelled)
        assert np.allclose(st.xi_dprime, T3.xi_dprime[np.ix_(perm, perm)])
        assert np.abs(dy.boundary_values(st, V[:, perm]) - U[:, perm]).max() <= 1e-12


def _random_mixture(seed):
    # every coupling of degrees 2 and 3 present, some external fields near 0
    rng = np.random.default_rng(seed)
    r = 1 + seed % 3
    weights = rng.uniform(0.2, 1.0, r)
    coeffs = [(1, (s,), rng.uniform(0.0, 2.0)) for s in range(r)]
    coeffs += [(p, idx, rng.uniform(0.1, 1.5)) for p in (2, 3)
               for idx in itertools.combinations_with_replacement(range(r), p)]
    return mx.MixtureSpec(r=r, lam=weights / weights.sum(),
                          coeffs=tuple(coeffs))


def _rays_through_the_edge(st, seed, n_rays=8, n_radii=25):
    # points along rays out of v = 0: bulk rows near 0, real rows far out,
    # and eight more rows within 1e-6..1/2 of a step of each ray's first
    # real point, where the eta-ladder converges slowest
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n_rays, st.r))
    d = np.sqrt(st.lam) * d / np.linalg.norm(d, axis=1, keepdims=True)
    t = np.linspace(0.0, 3.0 * np.sqrt(st.r * st.xi_dprime.max()) + 2.0,
                    n_radii)
    V = (t[None, :, None] * d[:, None, :]).reshape(-1, st.r)
    U = dy.boundary_values(st, V, polish=False)
    real = (np.abs(U.imag).max(axis=1) <= dy.REAL_TOL).reshape(n_rays, -1)
    near = np.geomspace(1e-6, 0.5, 4)
    steps = np.r_[near, 1.0 - near] * (t[1] - t[0])
    edge = [(t[j - 1] + steps)[:, None] * d[k]
            for k, j in enumerate(real.argmax(axis=1)) if real[k, j]]
    return np.vstack([V] + edge)


@pytest.mark.parametrize(
    "spec", [get_preset(n) for n in PRESETS]
    + [_random_mixture(seed) for seed in range(6)],
    ids=list(PRESETS) + [f"random-{seed}" for seed in range(6)])
def test_boundary_values_mirror_under_v_to_minus_v(spec):
    # the z = i eta system is invariant under (m, shift) -> (-conj m, -shift),
    # and every step of the solve and the polish is odd in that sense, so
    # u(-v) = -conj u(v) holds bitwise; complexity.scan relies on it
    st = mx.stats(spec)
    V = _rays_through_the_edge(st, seed=5)
    assert len(V) >= 200
    for polish in (False, True):
        U = dy.boundary_values(st, V, polish=polish)
        real = np.abs(U.imag).max(axis=1) <= dy.REAL_TOL
        assert 0 < real.sum() < len(V)
        assert np.array_equal(dy.boundary_values(st, -V, polish=polish),
                              -np.conj(U))


def _two_bands(g):
    # unit-mass semicircles of radius 1 on [-3, -1] and [0.5, 2.5]
    dens = np.zeros_like(g)
    for c in (-2.0, 1.5):
        dens += 2.0 / np.pi * np.sqrt(np.clip(1.0 - (g - c) ** 2, 0.0, None))
    return dens


def _bisected_support(grid, density):
    # reference: 20 scalar bisection steps per endpoint inside the grid
    def bisect(g_out, g_in):
        for _ in range(20):
            mid = 0.5 * (g_out + g_in)
            if density(np.array([mid]))[0] > dy.TAU_SUPP:
                g_in = mid
            else:
                g_out = mid
        return 0.5 * (g_out + g_in)

    inside = np.flatnonzero(density(grid) > dy.TAU_SUPP)
    runs = np.split(inside, np.flatnonzero(np.diff(inside) > 1) + 1)
    n = len(grid)
    return tuple(
        (float(grid[r[0]] if r[0] == 0 else bisect(grid[r[0] - 1], grid[r[0]])),
         float(grid[r[-1]] if r[-1] == n - 1
               else bisect(grid[r[-1] + 1], grid[r[-1]])))
        for r in runs)


# from -4 all four endpoints lie inside the grid; from -2.5 the grid starts
# inside the first band, so its first endpoint is the grid end.  On this
# grid, linearly interpolated midpoints in place of nested ones change some
# endpoints.
@pytest.mark.parametrize("lo, first", [(-4.0, -3.0), (-2.5, -2.5)])
def test_support_refinement_matches_bisection(lo, first):
    grid = np.linspace(lo, 4.0, 157)
    calls = []

    def density_at(g):
        calls.append(len(g))
        return _two_bands(g)

    support = dy._detect_support(grid, _two_bands(grid), density_at)
    assert support == _bisected_support(grid, _two_bands)
    assert np.allclose(support, ((first, -1.0), (0.5, 2.5)), rtol=0, atol=1e-6)
    # a work count: 5 batched calls whatever the number of endpoints
    assert len(calls) <= 5


# at TAU_SUPP the continued density carries the eta bias of Im m at z = i ETA,
# about ETA |m'|, and its slope there is about |m'| / pi, so the z = 0
# certificate moves a support endpoint by about ETA: 2.6e-8 at most on the
# 28 cases below
ENDPOINT_SHIFT = dy.ETA


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_support_search_needs_only_continued_values(name):
    # spectral_measure brackets the endpoints on its grid and bisects them,
    # both on continued values; from the same brackets, bisection on the
    # density certified at z = 0 lands within ENDPOINT_SHIFT
    stats = mx.stats(get_preset(name))
    rng = np.random.default_rng(sorted(PRESETS).index(name))
    K, lam = dy._coupling(stats), stats.lam
    for x in rng.uniform(-1.0, 1.0, size=(4, stats.r)):
        grid, _, agg, _, density_at = dy._measure_on_grid(stats, x)
        shift = x / np.sqrt(lam)
        real = []

        def polished_at(g):
            m = dy._boundary_batch(g[:, None] + shift, K, lam)
            real.append(int((m.imag.max(axis=1) == 0.0).sum()))
            return m.imag @ lam / np.pi

        support = dy._detect_support(grid, agg, polished_at)
        got = dy._detect_support(grid, agg, density_at)
        assert len(got) == len(support)
        assert np.abs(np.subtract(got, support)).max() <= ENDPOINT_SHIFT
        # the search ran, and the polish made some of its abscissae real
        assert sum(real) > 0


# the continued density is the measure smoothed by a Cauchy kernel of width
# ETA, so the grid's masses and log-potential move by O(ETA) against the same
# grid certified at z = 0: up to 2.5e-8 and 5.3e-8 on the 28 cases below,
# far under MASS_TOL and the quadrature's own error against psi's closed
# form there (1.3e-7 to 4.6e-5)
CERTIFIED_GRID_TOL = 1e-6


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_continued_grid_matches_the_certified_grid(name, monkeypatch):
    # the same measures with every batch certified at z = 0 as reference
    stats = mx.stats(get_preset(name))
    rng = np.random.default_rng(sorted(PRESETS).index(name))
    xs = rng.uniform(-1.0, 1.0, size=(4, stats.r))
    got = [(dy.spectral_measure(stats, x), dy.psi(stats, x, mode="quadrature"))
           for x in xs]
    batch = dy._boundary_batch
    monkeypatch.setattr(dy, "_boundary_batch",
                        lambda shift, K, wgt, polish: batch(shift, K, wgt))
    for x, (meas, q) in zip(xs, got):
        ref = dy.spectral_measure(stats, x)
        assert np.array_equal(ref.grid, meas.grid)
        assert np.abs(ref.mass_s - meas.mass_s).max() <= CERTIFIED_GRID_TOL
        assert abs(dy.psi(stats, x, mode="quadrature") - q) <= CERTIFIED_GRID_TOL
        assert len(ref.support) == len(meas.support)
        assert np.abs(np.subtract(ref.support, meas.support)).max() <= ENDPOINT_SHIFT


@pytest.mark.parametrize("sizes", [None, (12, 18, 30)])
def test_measure_grid_is_one_continued_batch_per_attempt(sizes, monkeypatch):
    # each grid attempt is one batch of continued values, as is each call of
    # the support bisection: no batch is certified at z = 0
    batch, calls = dy._boundary_batch, []

    def counted(shift, K, wgt, polish=True):
        calls.append((len(shift), polish))
        return batch(shift, K, wgt, polish)

    monkeypatch.setattr(dy, "_boundary_batch", counted)
    x = mx.ideal_stats(get_preset("three-species"), (1, -1, -1)).radial
    meas = dy.spectral_measure(T3, x, sizes=sizes)
    # each retry halves the spacing, from the default 2001 points
    attempts = [(n, False) for n in 2000 * 2 ** np.arange(5) + 1
                if n <= len(meas.grid)]
    assert len(attempts) == (1 if sizes is None else 2)
    inner = sum(int(lo > meas.grid[0]) + int(hi < meas.grid[-1])
                for lo, hi in meas.support)
    bisections = [(inner * (2 ** dy.DYADIC_DEPTH - 1), False)] * (
        dy.SUPPORT_BISECTIONS // dy.DYADIC_DEPTH)
    assert inner and calls == attempts + bisections
    if sizes is None:
        calls.clear()
        dy.psi(T3, x, mode="quadrature")
        assert calls == attempts


def test_measure_semicircle():
    meas = dy.spectral_measure(SC, np.zeros(1))
    i0 = np.argmin(np.abs(meas.grid))
    assert abs(meas.density[i0] - 1 / np.pi) < 1e-3
    assert len(meas.support) == 1
    lo, hi = meas.support[0]
    assert abs(lo + 2) < 1e-3 and abs(hi - 2) < 1e-3
    assert np.all(np.abs(meas.mass_s - 1) < 1e-4)


def test_measure_fig1a_shifted():
    x1 = 4 / np.sqrt(3)
    meas = dy.spectral_measure(SC, np.array([x1]))
    lo, hi = meas.support[0]
    assert abs(lo - (-x1 - 2)) < 1e-3
    assert abs(hi - (-x1 + 2)) < 1e-3
    # spectral gap at zero
    assert hi < -0.3


def test_measure_pure3_top_edge_at_zero():
    meas = dy.spectral_measure(P3, np.array([2 * np.sqrt(6)]))
    top = max(hi for _, hi in meas.support)
    assert abs(top) < 1e-3


# A square-root edge's density c*sqrt(t) crosses TAU_SUPP at t of order
# (TAU_SUPP / c)^2 inside the support, where the detected endpoint sits
# (measured 7e-8 to 1.9e-6).
EDGE_TOL = 1e-5
# At a band edge u is a double root; plain Newton to _polish_real's 5e-14
# would leave u off by about sqrt(5e-14) = 2e-7, and the eigenvalue moves
# linearly with u.  The multiplicity steps do better (measured <= 1.3e-8).
EDGE_EIG_TOL = 1e-6


@pytest.mark.parametrize("name, phi_seed", [
    ("cubic-pair", None), ("skew-pair", None), ("three-species", None),
    ("pure3", None), ("cubic-pair", 3), ("skew-pair", 3),
    ("three-species", 3)])
def test_v_star_touches_the_band_edge(name, phi_seed):
    # spectral_measure and solve_dyson shift by x/sqrt(lambda),
    # boundary_values by v/lambda, so the edge point v_* sits at
    # x = v_*/sqrt(lambda); both solves start cold at a band edge there
    spec = get_preset(name)
    st = mx.stats(spec)
    phi = np.ones(st.r)
    if phi_seed is not None:
        phi = np.random.default_rng(phi_seed).uniform(0.5, 1.5, st.r)
        phi /= st.lam @ phi
    v = mx.v_star(spec, phi)
    meas = dy.spectral_measure(st, v / np.sqrt(st.lam))
    assert np.abs(meas.support).min() <= EDGE_TOL
    u = dy.boundary_u(st, v)
    assert np.all(u.imag == 0.0)
    M = np.diag(st.lam / u.real ** 2) - st.xi_dprime
    assert abs(np.linalg.eigvalsh(M)[0]) <= EDGE_EIG_TOL


def test_measure_species_supports_coincide():
    meas = dy.spectral_measure(FB, np.array([0.9, -0.3]))
    step = meas.grid[1] - meas.grid[0]
    ends = []
    for s in range(2):
        above = np.where(meas.density_s[s] > dy.TAU_SUPP)[0]
        ends.append((meas.grid[above[0]], meas.grid[above[-1]]))
    assert abs(ends[0][0] - ends[1][0]) <= step + 1e-12
    assert abs(ends[0][1] - ends[1][1]) <= step + 1e-12


def test_measure_narrow_grid_expands():
    meas = dy.spectral_measure(SC, np.zeros(1), grid_spec=(-1.0, 1.0, 601))
    assert np.all(meas.mass_s >= 1 - 1e-4)
    lo, hi = meas.support[0]
    assert abs(lo + 2) < 2e-2 and abs(hi - 2) < 2e-2


def test_measure_mass_deficit():
    # after four doublings this grid spans only 0.032 and captures about
    # 0.006 of each species' mass
    with pytest.raises(MassDeficit):
        dy.spectral_measure(FB, np.zeros(2), grid_spec=(-1e-3, 1e-3, 2))


def test_measure_rejects_malformed_grid():
    # the rule scan applies: finite lo < hi and an integer count of at least 2
    for grid_spec in ((2, -2, 101), (1.0, 1.0, 11), (-6, 6, 1), (-6, 6, 0),
                      0, 1, 101.0, (-6, 6, 5.5), (0.0, np.inf, 11)):
        with pytest.raises(ValidationError):
            dy.spectral_measure(SC, np.zeros(1), grid_spec=grid_spec)


def test_measure_rejects_non_finite_x():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            dy.spectral_measure(FB, [bad, 0.0])
        with pytest.raises(ValidationError):
            dy.psi(FB, [bad, 0.0], mode="quadrature")


def test_measure_finite_size_weights():
    sizes = np.array([100, 100])
    meas = dy.spectral_measure(TC, np.zeros(2), sizes=sizes)
    assert np.all(np.abs(meas.mass_s - 1) < 1e-4)
    inf = dy.spectral_measure(TC, np.zeros(2))
    # at large equal sizes the finite-size measure is close to the limit
    assert abs(meas.support[0][0] - inf.support[0][0]) < 0.1


def test_measure_mass_retry_refines_the_grid():
    # the finite-size measure of a three-species critical point: on the
    # default grid two masses come out above 1 and one below, and a wider
    # grid at the same number of points would only push them further off
    x = mx.ideal_stats(get_preset("three-species"), (1, -1, -1)).radial
    meas = dy.spectral_measure(T3, x, sizes=(12, 18, 30))
    assert np.all(np.abs(meas.mass_s - 1) <= 1e-4)
    C = dy._grid_radius(T3, x / np.sqrt(T3.lam))
    assert meas.grid[0] == -C and meas.grid[-1] == C
    assert len(meas.grid) > 2001


def test_psi_oracles():
    assert abs(dy.psi(SC, np.zeros(1)) + 0.5) < 1e-6
    x1 = 4 / np.sqrt(3)
    assert abs(dy.psi(SC, np.array([x1])) - (1 / 6 + 0.5 * np.log(3))) < 1e-6
    assert abs(dy.psi(P3, np.zeros(1)) - (-0.5 + 0.5 * np.log(6))) < 1e-6


def test_psi_modes_agree():
    rng = np.random.default_rng(11)
    for stats in (SC, FB, TC):
        for _ in range(4):
            x = rng.uniform(-2, 2, size=stats.r)
            a = dy.psi(stats, x, mode="closed_form")
            b = dy.psi(stats, x, mode="quadrature")
            assert abs(a - b) < 1e-4


def test_psi_degenerate_u():
    with pytest.raises(DegenerateU):
        dy.psi(SC, np.array([1e9]))
    with pytest.raises(ValidationError):
        dy.psi(SC, np.zeros(1), mode="nope")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_psi_quadrature_skips_the_support_search(name, monkeypatch):
    # the quadrature integrates spectral_measure's grid and density and
    # never its support, so it runs no bisection and gives the same bits
    stats = mx.stats(get_preset(name))
    x = np.random.default_rng(sorted(PRESETS).index(name)).uniform(
        -0.5, 0.5, size=stats.r)
    meas = dy.spectral_measure(stats, x)

    def no_bisection(*args):
        raise AssertionError("support bisection ran")

    monkeypatch.setattr(dy, "_bisect_brackets", no_bisection)
    with pytest.raises(AssertionError, match="support bisection ran"):
        dy.spectral_measure(stats, x)
    assert dy.psi(stats, x, mode="quadrature") == dy._log_integral(
        meas.grid, meas.density)


@pytest.mark.parametrize("mode", ["closed_form", "quadrature"])
def test_psi_rejects_misshapen_x(mode):
    # a scalar or a length-1 x broadcasts against lambda without the check
    for x in (0.1, np.zeros(1), np.zeros(3), np.zeros((1, 2)), np.zeros((2, 2))):
        with pytest.raises(ValidationError, match="x must have shape"):
            dy.psi(FB, x, mode=mode)


def test_stability_matrices_oracles():
    m = dy.stability_matrices(SC, np.array([-1 / np.sqrt(3) + 0j]))
    assert abs(m.M[0, 0] - 2.0) < 1e-12
    m3 = dy.stability_matrices(P3, np.array([1j / np.sqrt(6)]))
    assert abs(m3.Mbar[0, 0]) < 1e-9
    assert abs(m3.Mhat[0, 0] - 12.0) < 1e-9
    mi = dy.stability_matrices(SC, np.array([0.5j]))
    assert abs(mi.Mbar[0, 0] - 3.0) < 1e-12
    with pytest.raises(ZeroComponent):
        dy.stability_matrices(SC, np.array([0.0j]))


def test_feasibility_cases():
    assert dy.feasibility(SC, np.array([-1 / np.sqrt(3) + 0j])).case == "boundary_real"
    assert dy.feasibility(P3, np.array([1j / np.sqrt(6)])).case == "boundary_imag"
    rep = dy.feasibility(SC, np.array([0.5j]))
    assert rep.case == "interior"
    assert abs(rep.min_eig_Mbar - 3.0) < 1e-12
    assert abs(rep.Mbar_times_Im_u[0] - 1.5) < 1e-12
    # sub-solvable sign-pattern point is not attainable
    assert dy.feasibility(P3, np.array([-1 / np.sqrt(3) + 0j])).case == "infeasible"


def _feasibility_rows(stats, rng):
    """Seeded u rows for every feasibility case: real rows (boundary_real
    or infeasible), small complex ones (interior), large complex ones
    (mostly infeasible), and the imaginary root of lambda_s / b_s =
    (xi'' b)_s (boundary_imag)."""
    r = stats.r
    re, im = rng.normal(size=(2, 24, r))
    b = fsolve(lambda b: stats.lam / b - stats.xi_dprime @ b, np.ones(r),
               xtol=1e-14)
    return np.concatenate([re[:8], 0.2 * (re[8:16] + 1j * np.abs(im[8:16])),
                           re[16:] + 1j * np.abs(im[16:]), [1j * b]])


def test_stacked_feasibility_matches_single_rows():
    # one stacked call is its rows' one-u calls, field by field and bitwise
    rng = np.random.default_rng(4)
    cases = set()
    for stats in (SC, P3, FB, FC, T3):
        U = _feasibility_rows(stats, rng)
        stack = dy.feasibility(stats, U)
        for i, u in enumerate(U):
            one = dy.feasibility(stats, u)
            assert stack.case[i] == one.case
            assert stack.min_eig_Mbar[i] == one.min_eig_Mbar
            assert np.array_equal(stack.Mbar_times_Im_u[i], one.Mbar_times_Im_u)
            if one.min_eig_M_real is None:
                assert np.isnan(stack.min_eig_M_real[i])
            else:
                assert stack.min_eig_M_real[i] == one.min_eig_M_real
        assert stack.case[-1] == "boundary_imag"
        cases.update(stack.case.tolist())
    assert cases == {"boundary_real", "boundary_imag", "interior", "infeasible"}


def test_stacked_feasibility_raises_for_one_bad_row():
    U = _feasibility_rows(FB, np.random.default_rng(5))
    for row, error in (([0.3, -1e-6j], ValidationError),
                       ([0.3, 0.0], ZeroComponent),
                       ([0.3, np.nan], ValidationError)):
        bad = np.concatenate([U[:5], [row], U[5:]])
        with pytest.raises(error):
            dy.feasibility(FB, row)
        with pytest.raises(error):
            dy.feasibility(FB, bad)
    with pytest.raises(ValidationError, match=r"u must have shape \(n, 2\)"):
        dy.feasibility(FB, U[:, :1])


def test_classify_edges_one_species():
    chi = np.array([1.0])
    assert dy.classify_boundary_point(SC, np.array([2.0]), chi) == "right_edge"
    assert dy.classify_boundary_point(SC, np.array([-2.0]), chi) == "left_edge"
    assert dy.classify_boundary_point(SC, np.array([3.0]), chi) == "nonsingular"
    assert dy.classify_boundary_point(SC, np.array([-3.0]), chi) == "nonsingular"
    assert dy.classify_boundary_point(SC, np.array([2.0]), chi, chi2=chi) == "right_edge"


def test_classify_probes_both_chi_in_one_batch(monkeypatch):
    batch, values = dy._boundary_batch, dy.boundary_values
    calls = []

    def counted(shift, *args, **kw):
        calls.append(len(shift))
        return batch(shift, *args, **kw)

    monkeypatch.setattr(dy, "_boundary_batch", counted)
    chi = np.array([1.0])
    assert dy.classify_boundary_point(SC, np.array([2.0]), chi,
                                      chi2=chi) == "right_edge"
    # the centre value, then all sixteen probes
    assert calls == [1, 16]

    def left_edge_for_chi2(stats, V, polish=True):
        U = values(stats, V, polish)
        if len(V) == 16:
            U[8:12] += 1j
            U[12:16] = U[12:16].real
        return U

    monkeypatch.setattr(dy, "boundary_values", left_edge_for_chi2)
    with pytest.raises(InconsistentProbes, match="chi-dependent"):
        dy.classify_boundary_point(SC, np.array([2.0]), chi, chi2=chi)


def test_classify_mixed_scales_raise(monkeypatch):
    # real on the plus side at three of the four probe scales: no edge or
    # cusp verdict fits, so the probes contradict each other
    plus, minus = [True, True, False, True], [False] * 4
    with pytest.raises(InconsistentProbes, match="probe realness"):
        dy._probe_verdict(plus, minus)
    values = dy.boundary_values

    def nonreal_at_one_scale(stats, V, polish=True):
        U = values(stats, V, polish)
        if len(V) == 8:
            U[2] += 1j
        return U

    monkeypatch.setattr(dy, "boundary_values", nonreal_at_one_scale)
    with pytest.raises(InconsistentProbes, match="probe realness"):
        dy.classify_boundary_point(SC, np.array([2.0]), np.array([1.0]))


def test_classify_chi_validation():
    with pytest.raises(ValidationError):
        dy.classify_boundary_point(SC, np.array([2.0]), np.array([-1.0]))
    with pytest.raises(ValidationError):
        dy.classify_boundary_point(FB, np.zeros(2), np.array([0.9, 0.9]))


def _track_real_root(stats, x, w0):
    # follow the real algebraic branch of the z=0 system by plain Newton
    K = stats.xi_dprime / stats.lam[:, None]
    shift = np.sqrt(stats.lam) * x / stats.lam
    w = np.array(w0, dtype=float)
    for _ in range(60):
        F = 1.0 + (shift + K @ w) * w
        if np.abs(F).max() <= 1e-13:
            break
        J = np.diag(shift + K @ w) + w[:, None] * K
        w = w + np.linalg.solve(J, -F)
    return w


def _fig1b_pinch_point():
    def is_real(t):
        u = dy.boundary_u(FB, np.sqrt(FB.lam) * np.array([t, -t]))
        return np.abs(u.imag).max() <= dy.REAL_TOL

    lo, hi = 0.5, 6.0
    assert not is_real(lo) and is_real(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if is_real(mid):
            hi = mid
        else:
            lo = mid
    # refine on the smallest |eigenvalue| of M along the real branch
    w = dy.boundary_u(FB, np.sqrt(FB.lam) * np.array([hi, -hi])).real

    def min_eig(t):
        nonlocal w
        w = _track_real_root(FB, np.array([t, -t]), w)
        return np.linalg.eigvalsh(np.diag(FB.lam / w ** 2) - FB.xi_dprime)[0]

    t0, t1 = hi, hi + 1e-4
    s0, s1 = min_eig(t0), min_eig(t1)
    for _ in range(40):
        if abs(s1 - s0) < 1e-18:
            break
        t2 = t1 - s1 * (t1 - t0) / (s1 - s0)
        t0, s0 = t1, s1
        t1, s1 = t2, min_eig(t2)
        if abs(s1) < 1e-10:
            break
    return np.array([t1, -t1])


def test_classify_fig1b_pinch_is_cusp():
    xk = _fig1b_pinch_point()
    u = dy.boundary_u(FB, np.sqrt(FB.lam) * xk)
    assert np.abs(u.imag).max() <= dy.REAL_TOL
    M = np.diag(FB.lam / u.real ** 2) - FB.xi_dprime
    assert np.abs(np.linalg.eigvals(M)).min() < 1e-6
    for chi in (np.array([0.5, 0.5]), np.array([0.25, 0.75])):
        assert dy.classify_boundary_point(FB, xk, chi) == "cusp"


def test_species_sizes():
    sizes = mx.species_sizes(np.array([0.3, 0.7]), 10)
    assert sizes.sum() == 10 and tuple(sizes) == (3, 7)
    sizes = mx.species_sizes(np.array([0.5, 0.5]), 11)
    assert sizes.sum() == 11
    with pytest.raises(ValidationError):
        mx.species_sizes(np.array([0.01, 0.99]), 20)


def _block_matrix(stats, x, N, seed):
    # Gaussian block matrix distributed as the shifted tangential Hessian:
    # entry variances (1+delta_ij) xi''_{s(i),s(j)}/(N lambda_s lambda_t) on
    # tangent blocks of sizes N_s - 1, minus x_s/sqrt(lambda_s) on the
    # species diagonal
    lam = stats.lam
    labels = np.repeat(np.arange(stats.r), mx.species_sizes(lam, N) - 1)
    sig = np.sqrt(stats.xi_dprime / (N * lam[:, None] * lam[None, :]))
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((labels.size, labels.size))
    W = (G + G.T) / np.sqrt(2.0) * sig[np.ix_(labels, labels)]
    W[np.diag_indices_from(W)] -= (x / np.sqrt(lam))[labels]
    return W


def test_block_matrix_shape_and_shift():
    x = np.array([1.0, -2.0])
    W = _block_matrix(FB, x, 100, 7)
    assert W.shape == (98, 98)
    assert np.abs(W - W.T).max() == 0.0
    W0 = _block_matrix(FB, np.zeros(2), 100, 7)
    d = np.diag(W0 - W)
    shift = x / np.sqrt(FB.lam)
    assert np.allclose(d[:49], shift[0]) and np.allclose(d[49:], shift[1])


def test_block_matrix_semicircle_w2():
    W = _block_matrix(SC, np.zeros(1), 1000, 11)
    ev = np.sort(np.linalg.eigvalsh(W))
    meas = dy.spectral_measure(SC, np.zeros(1))
    dg = meas.grid[1] - meas.grid[0]
    cdf = np.cumsum(meas.density) * dg
    cdf /= cdf[-1]
    qs = (np.arange(len(ev)) + 0.5) / len(ev)
    quant = np.interp(qs, cdf, meas.grid)
    w2 = np.sqrt(np.mean((ev - quant) ** 2))
    assert w2 < 0.05
