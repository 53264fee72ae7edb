import itertools
import tracemalloc

import numpy as np
import pytest

from glassland import hamiltonian as ham
from glassland import mixture as mx
from glassland.errors import (DegreeTooHigh, OffManifold, TooLarge,
                              ValidationError)
from glassland.presets import get_preset

CUBIC = get_preset("cubic-pair")


@pytest.fixture(scope="module")
def inst():
    return ham.sample(CUBIC, 60, seed=11)


def _zscore(products, target):
    se = products.std(ddof=1) / np.sqrt(products.shape[0])
    if se == 0.0:
        return 0.0 if abs(products.mean() - target) < 1e-14 else np.inf
    return float((products.mean() - target) / se)


def _covariance_moments(mixture, N, trials, seed):
    """Monte Carlo check of the derivative laws at the species north pole.

    The mixture needs a degree-1 part.  Returns {name: (products, target)}:
    per trial, a product of two of (H, tangential derivatives, radial
    derivative, degree-1 overlap), and its expectation under the exact
    finite-N covariances, which are those of the limit laws with the
    species proportions N_s/N in place of lambda.  These are exact at
    every N, so a small N weakens no claim.
    """
    partition = ham.make_partition(mixture, N)
    lam_N = partition.lam_N
    st = mx.stats(mx.MixtureSpec(r=mixture.r, lam=lam_N,
                                 coeffs=mixture.coeffs))
    r = mixture.r
    pole = ham.north_pole(partition)

    # first two tangential coordinates of each species (one if N_s = 2)
    tang_idx = []
    for s, sl in enumerate(partition.slices()):
        take = min(2, partition.sizes[s] - 1)
        tang_idx.extend(range(sl.start + 1, sl.start + 1 + take))
    tang_species = partition.labels[tang_idx]

    energies = np.empty(trials)
    radials = np.empty((trials, r))
    overlaps = np.empty((trials, r))
    tangentials = np.empty((trials, len(tang_idx)))
    draw = ham._sampler(mixture, N)
    for t in range(trials):
        it = draw((seed, t))
        data = ham.local_data(it, pole)
        energies[t] = data.value
        radials[t] = data.radial
        tangentials[t] = data.egrad[tang_idx]
        overlaps[t] = ham.overlap(it.tensors[1], pole, partition)

    moments = {"energy_var": (energies ** 2 / N, st.xi_one)}
    rad_cov = np.diag(lam_N ** -0.5) @ st.A @ np.diag(lam_N ** -0.5) / N
    for s in range(r):
        for t in range(s, r):
            moments[f"radial_cov_{s}{t}"] = (radials[:, s] * radials[:, t],
                                             rad_cov[s, t])
        moments[f"energy_radial_{s}"] = (energies * radials[:, s],
                                         st.xi_prime[s] / np.sqrt(lam_N[s]))
    for i, s in enumerate(tang_species):
        moments[f"tangential_var_{i}"] = (tangentials[:, i] ** 2,
                                          st.xi_species[s])
        moments[f"indep_tang_energy_{i}"] = (tangentials[:, i] * energies / N,
                                             0.0)
        for t in range(r):
            moments[f"indep_tang_radial_{i}{t}"] = (
                tangentials[:, i] * radials[:, t], 0.0)
    for s in range(r):
        for t in range(s, r):
            target = (1.0 / (N * lam_N[s])) if s == t else 0.0
            moments[f"g1_cov_{s}{t}"] = (overlaps[:, s] * overlaps[:, t],
                                         target)
        moments[f"g1_radial_{s}"] = (
            overlaps[:, s] * radials[:, s],
            mixture.gamma1[s] / (N * np.sqrt(lam_N[s])))
    return moments


@pytest.fixture(scope="module")
def covariance_moments():
    # cubic-pair has lambda = (1/2, 1/2); skew-pair's (0.3, 0.7) covers
    # unequal species proportions
    return {"cubic-pair": _covariance_moments(CUBIC, 16, 10000, seed=42),
            "skew-pair": _covariance_moments(get_preset("skew-pair"), 20,
                                             10000, seed=42)}


def random_tangent(partition, sigma, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(partition.N)
    for s, sl in enumerate(partition.slices()):
        t[sl] -= (sigma[sl] @ t[sl]) / partition.sizes[s] * sigma[sl]
    return t / np.linalg.norm(t)


def test_partition_layout():
    part = ham.make_partition(get_preset("three-species"), 47)
    assert part.N == part.sizes.sum() == 47
    assert np.array_equal(part.offsets, np.concatenate([[0], np.cumsum(part.sizes)]))
    labels = part.labels
    for s, sl in enumerate(part.slices()):
        assert np.all(labels[sl] == s)


def test_sample_deterministic():
    # an int seed and a tuple seed each fix the draws
    c = ham.sample(CUBIC, 24, seed=4)
    for seed in (3, (4, 2)):
        a = ham.sample(CUBIC, 24, seed=seed)
        b = ham.sample(CUBIC, 24, seed=seed)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])
        assert any(not np.array_equal(a.tensors[k], c.tensors[k])
                   for k in a.tensors)


def test_sample_tensors_frozen():
    a = ham.sample(CUBIC, 20, seed=0)
    with pytest.raises(ValueError):
        a.tensors[2][0, 0] = 1.0


def test_zero_mixture_is_flat():
    zero = mx.MixtureSpec(r=2, lam=np.array([0.5, 0.5]),
                          coeffs=((2, (0, 0), 0.0),))
    inst0 = ham.sample(zero, 16, seed=1)
    assert inst0.tensors == {}
    sig = ham.random_state(inst0.partition, 2)
    d = ham.local_data(inst0, sig, want_hessian=True)
    assert d.value == 0.0
    assert np.all(d.egrad == 0.0)
    assert np.all(d.rhess == 0.0)
    assert np.all(ham.g1_overlap(inst0, sig) == 0.0)


# three species of unequal sizes, a distinct gamma for every species tuple
TRIPLE = mx.MixtureSpec(
    r=3, lam=np.array([0.2, 0.32, 0.48]),
    coeffs=(tuple((1, (a,), 0.5 + 0.3 * a) for a in range(3))
            + tuple((2, (a, b), 0.4 + 0.2 * a + 0.1 * b)
                    for a in range(3) for b in range(a, 3))
            + tuple((3, (a, b, c), 0.1 + 0.15 * a + 0.05 * b + 0.02 * c)
                    for a in range(3) for b in range(a, 3)
                    for c in range(b, 3))))


def _contract_all_but(t, sig, free):
    # t(sig, ..., sig) by einsum, with the slots in free left open in order
    operands = [t, list(range(t.ndim))]
    for i in range(t.ndim):
        if i not in free:
            operands += [sig, [i]]
    return np.einsum(*operands, list(free))


def _raw_terms(mixture, N, seed, t=1.0):
    # the raw draws, redrawn in sample's order, each degree >= 2 one scaled
    # by the homotopy weight t, all by N^{-(k-1)/2} and the gamma of every
    # index's species
    tabs = ham._gamma_tables(mixture)
    degrees = sorted(k for k, tab in tabs.items() if np.any(tab > 0))
    rng = np.random.default_rng(seed)
    raw = {k: rng.standard_normal((N,) * k) for k in degrees}
    labels = ham.make_partition(mixture, N).labels
    return {k: ((1.0 if k == 1 else t) * N ** (-(k - 1) / 2)
                * tabs[k][np.ix_(*[labels] * k)] * g) for k, g in raw.items()}


def _raw_oracle(mixture, N, seed, sig, t):
    # H, its gradient and its Hessian from the raw draws, with every slot
    # of each term differentiated apart
    value, grad, hess = 0.0, np.zeros(N), np.zeros((N, N))
    for k, term in _raw_terms(mixture, N, seed, t).items():
        value += _contract_all_but(term, sig, ())
        for i in range(k):
            grad += _contract_all_but(term, sig, (i,))
            for j in range(k):
                if j != i:
                    hess += _contract_all_but(term, sig, (i, j))
    return value, grad, hess


@pytest.mark.parametrize("tile", [None, 64], ids=["one-tile", "tiled"])
# t = 0 is the field-only landscape: every degree >= 2 term is off, not only
# degree 2 as its id says
@pytest.mark.parametrize("t", [1.0, 0.3, 0.0],
                         ids=["plain", "weighted", "no-degree-2"])
@pytest.mark.parametrize("mixture,N", [(CUBIC, 24), (TRIPLE, 25)],
                         ids=["cubic-pair", "three-species-cubic"])
def test_hamiltonian_matches_raw_draws(monkeypatch, mixture, N, t, tile):
    # the symmetrised couplings give the same function of sigma as the raw
    # Gaussian tensors; unequal blocks would expose a slab-weighting slip,
    # and small tiles send the degree-2 build through pairs of distinct
    # tiles
    if tile is not None:
        monkeypatch.setattr(ham, "TILE_ENTRIES", tile)
    inst = ham.sample(mixture, N, seed=8)
    for trial in range(3):
        sig = ham.random_state(inst.partition, (8, trial)).sigma
        want = _raw_oracle(mixture, N, 8, sig, t)
        value, grad, hess = ham._contract(inst, sig, True, t)
        d = ham.local_data(inst, sig, t=t)
        for got, ref in ((value, want[0]), (d.value, want[0]),
                         (grad, want[1]), (d.egrad, want[1]),
                         (hess, want[2])):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-11 * scale


def _traced_sample(N):
    # the instance, and the traced memory held after and at peak during
    # sample; the first default_rng seeding imports modules (about 0.7 MB)
    # that are not the sampler's, so a small untraced draw goes first
    ham.sample(CUBIC, 8, seed=0)
    tracemalloc.start()
    try:
        inst = ham.sample(CUBIC, N, seed=1)
        return (inst, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_sample_holds_one_cubic_array():
    # J_3 is drawn slab by slab into its packed rows: those 0.504 * 8N^3
    # bytes and O(r N^2) more, 0.564 * 8N^3 measured at N = 120, where
    # holding the N^3 draw would peak above 8N^3
    N = 120
    peak = _traced_sample(N)[2]
    assert peak <= 0.6 * 8 * N ** 3


# sizes (1, 10, 14), which species_sizes never makes, give slab 0 a species
# and a weight matrix of its own
CUBIC_CASES = pytest.mark.parametrize(
    "mixture,N,sizes", [(CUBIC, 24, None), (TRIPLE, 25, None),
                        (TRIPLE, 25, (1, 10, 14))],
    ids=["cubic-pair", "three-species-cubic", "one-site-species"])


def _sample_case(monkeypatch, mixture, N, sizes):
    # the seed-8 instance, on the given species sizes if any
    if sizes is not None:
        monkeypatch.setattr(ham, "species_sizes", lambda lam, n: np.array(sizes))
    return ham.sample(mixture, N, seed=8)


@CUBIC_CASES
def test_cubic_coupling_is_packed(monkeypatch, mixture, N, sizes):
    # tensors[3] holds the (i <= j) rows of the symmetrised raw draw, in
    # row-major order of (i, j)
    inst = _sample_case(monkeypatch, mixture, N, sizes)
    term = _raw_terms(mixture, N, 8)[3]
    sym = sum(term.transpose(p) for p in itertools.permutations(range(3))) / 6
    i, j = np.triu_indices(N)
    packed = inst.tensors[3]
    assert packed.shape == (N * (N + 1) // 2, N)
    assert packed.flags.c_contiguous
    assert np.abs(packed - sym[i, j]).max() <= 1e-15 * np.abs(sym).max()


@CUBIC_CASES
def test_cubic_coupling_is_exactly_symmetric(monkeypatch, mixture, N, sizes):
    # every stored copy of a triple takes the same values in the same
    # order, so the dense J rebuilt from the packed rows is bitwise
    # invariant under all six axis permutations
    inst = _sample_case(monkeypatch, mixture, N, sizes)
    i, j = np.triu_indices(N)
    dense = np.empty((N, N, N))
    dense[i, j] = dense[j, i] = inst.tensors[3]
    for p in itertools.permutations(range(3)):
        assert np.array_equal(dense.transpose(p), dense)
    # the degree-1 and degree-2 draws come first from the stream, bitwise
    # as one (N,) * k draw per degree
    rng = np.random.default_rng(8)
    g1, g2 = rng.standard_normal(N), rng.standard_normal((N, N))
    labels = ham.make_partition(mixture, N).labels
    h = g2 * (ham._gamma_tables(mixture)[2][np.ix_(labels, labels)]
              * (N ** -0.5 / 2))
    assert np.array_equal(inst.tensors[1], g1)
    assert np.array_equal(inst.tensors[2], h + h.T)


def test_cubic_hessian_is_exactly_symmetric(inst):
    # each packed value is written to both M[i, j] and M[j, i]
    sig = ham.random_state(inst.partition, 7).sigma
    ehess = ham._contract(inst, sig, True)[2]
    assert np.array_equal(ehess, ehess.T)


def test_sample_keeps_only_the_packed_rows():
    # of the N^3 draw only N^2(N+1)/2 entries are kept
    N = 120
    kept, held, _ = _traced_sample(N)
    assert kept.tensors[3].nbytes == 8 * N * N * (N + 1) // 2
    assert held <= 0.55 * 8 * N ** 3


def test_degree_and_size_caps():
    with pytest.raises(DegreeTooHigh):
        ham.sample(get_preset("pure4"), 20, seed=0)
    with pytest.raises(TooLarge):
        ham.sample(CUBIC, 401, seed=0)
    with pytest.raises(TooLarge):
        ham.sample(get_preset("symmetric-pair"), 4001, seed=0)
    ham.sample(get_preset("symmetric-pair"), 500, seed=0)


def test_manifold_checks(inst):
    part = inst.partition
    with pytest.raises(OffManifold):
        ham.local_data(inst, 2.0 * np.ones(part.N))
    with pytest.raises(OffManifold):
        ham.check_on_manifold(part, np.zeros(part.N - 1))
    ham.check_on_manifold(part, ham.retract(part, np.ones(part.N)))
    # every comparison with NaN is False, so each check must be one NaN fails
    nan = np.full(part.N, np.nan)
    with pytest.raises(OffManifold):
        ham.check_on_manifold(part, nan)
    with pytest.raises(OffManifold):
        ham.energy(inst, nan)
    with pytest.raises(OffManifold):
        ham.local_data(inst, nan)
    for bad in (np.nan, np.inf):
        vec = np.ones(part.N)
        vec[-1] = bad
        with pytest.raises(ValidationError):
            ham.retract(part, vec)


def test_covariance_identity():
    # E[H(sigma)H(rho)] = N xi_{lam_N}(R(sigma, rho)) at fixed points
    N = 40
    inst0 = ham.sample(CUBIC, N, seed=7)
    part = inst0.partition
    sig = ham.random_state(part, 1)
    rho = ham.random_state(part, 2)
    spec_N = mx.MixtureSpec(r=2, lam=part.lam_N, coeffs=CUBIC.coeffs)
    target = N * mx.eval_xi(spec_N, ham.overlap(sig, rho, part))[0]
    prods = np.empty(400)
    for t in range(prods.shape[0]):
        it = ham.sample(CUBIC, N, seed=(123, t))
        prods[t] = ham.energy(it, sig) * ham.energy(it, rho)
    se = prods.std(ddof=1) / np.sqrt(prods.shape[0])
    assert abs(prods.mean() - target) <= 3 * se


def test_energy_matches_local_data(inst):
    sig = ham.random_state(inst.partition, 5)
    d = ham.local_data(inst, sig)
    assert np.isclose(ham.energy(inst, sig), d.value, rtol=1e-12, atol=0)
    assert d.rhess is None


def test_gradient_taylor_order(inst):
    part = inst.partition
    for k in range(3):
        sig = ham.random_state(part, (11, k))
        d = ham.local_data(inst, sig)
        t = random_tangent(part, sig.sigma, k)
        errs = []
        for h in (1e-3, 1e-4):
            moved = ham.retract(part, sig.sigma + h * t)
            errs.append(abs(ham.energy(inst, moved) - d.value
                            - h * float(d.rgrad @ t)))
        order = np.log10(errs[0] / errs[1])
        assert order >= 1.9


def test_rgrad_tangential_and_curvature(inst):
    part = inst.partition
    sig = ham.random_state(part, 9)
    d = ham.local_data(inst, sig)
    x0 = sig.sigma
    for s, sl in enumerate(part.slices()):
        assert abs(float(d.rgrad[sl] @ x0[sl])) <= 1e-8 * np.linalg.norm(d.rgrad)
        inner = float(x0[sl] @ d.egrad[sl])
        assert abs(d.curvature[s] * part.sizes[s] - inner) <= 1e-13 * max(1.0, abs(inner))
        assert np.isclose(d.radial[s],
                          inner / (np.sqrt(part.sizes[s]) * np.sqrt(part.N)),
                          rtol=1e-12)


def test_hessian_symmetry_and_fd(inst):
    part = inst.partition
    sig = ham.random_state(part, 13)
    d = ham.local_data(inst, sig, want_hessian=True)
    assert np.array_equal(d.rhess, d.rhess.T)
    dim = part.N - part.r
    assert d.rhess.shape == (dim, dim)
    blocks = ham.tangent_basis(part, sig)
    roff = np.concatenate([[0], np.cumsum(part.sizes - 1)])
    rng = np.random.default_rng(100)
    h = 1e-4
    for _ in range(3):
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        amb = np.zeros(part.N)
        for s, sl in enumerate(part.slices()):
            amb[sl] = blocks[s] @ w[roff[s]:roff[s + 1]]
        plus = ham.energy(inst, ham.retract(part, sig.sigma + h * amb))
        minus = ham.energy(inst, ham.retract(part, sig.sigma - h * amb))
        fd2 = (plus - 2 * d.value + minus) / h ** 2
        quad = float(w @ d.rhess @ w)
        assert abs(fd2 - quad) <= 1e-4 * max(1.0, abs(fd2))


def test_tangent_basis_properties(inst):
    part = inst.partition
    sig = ham.random_state(part, 21)
    blocks = ham.tangent_basis(part, sig)
    for s, sl in enumerate(part.slices()):
        Q = blocks[s]
        n = part.sizes[s]
        assert Q.shape == (n, n - 1)
        assert np.abs(Q.T @ Q - np.eye(n - 1)).max() <= 1e-12
        assert np.abs(Q.T @ sig.sigma[sl]).max() <= 1e-10
        unit = sig.sigma[sl] / np.linalg.norm(sig.sigma[sl])
        proj = np.eye(n) - np.outer(unit, unit)
        assert np.abs(Q @ Q.T - proj).max() <= 1e-10


def test_tangent_basis_at_pole(inst):
    # the pole direction is the first coordinate of each block, so the
    # basis reduces to the remaining standard coordinates
    part = inst.partition
    blocks = ham.tangent_basis(part, ham.north_pole(part))
    for s in range(part.r):
        n = part.sizes[s]
        expect = np.zeros((n, n - 1))
        expect[1:, :] = np.eye(n - 1)
        assert np.array_equal(blocks[s], expect)


def test_tangent_basis_at_south_pole(inst):
    # u_0 = -1 takes the other reflector sign and must give the same blocks
    part = inst.partition
    blocks = ham.tangent_basis(part, -ham.north_pole(part).sigma)
    for s in range(part.r):
        n = part.sizes[s]
        expect = np.zeros((n, n - 1))
        expect[1:, :] = np.eye(n - 1)
        assert np.array_equal(blocks[s], expect)


@pytest.mark.parametrize("head", ["zero", "negative"])
def test_tangent_basis_sign_branches(inst, head):
    # sigma_s[0] = 0 takes sign +1 by convention; sigma_s[0] < 0 takes -1
    part = inst.partition
    raw = ham.random_state(part, 23).sigma.copy()
    for sl in part.slices():
        raw[sl.start] = 0.0 if head == "zero" else -abs(raw[sl.start]) - 0.5
    sig = ham.retract(part, raw)
    blocks = ham.tangent_basis(part, sig)
    for s, sl in enumerate(part.slices()):
        Q = blocks[s]
        n = part.sizes[s]
        assert Q.shape == (n, n - 1)
        assert np.abs(Q.T @ Q - np.eye(n - 1)).max() <= 1e-12
        assert np.abs(Q.T @ sig.sigma[sl]).max() <= 1e-10
        unit = sig.sigma[sl] / np.linalg.norm(sig.sigma[sl])
        proj = np.eye(n) - np.outer(unit, unit)
        assert np.abs(Q @ Q.T - proj).max() <= 1e-10


@pytest.mark.parametrize("preset", ["cubic-pair", "skew-pair"])
def test_rhess_is_basis_free(preset):
    # P E P - sum_s c_s P_s + K sum_s u_s u_s^T acts as the Riemannian
    # Hessian on the tangent space and as K on the normals, so its N - r
    # smallest eigenvalues are the spectrum of rhess in any basis
    it = ham.sample(get_preset(preset), 60, seed=17)
    part = it.partition
    sig = ham.random_state(part, 19)
    d = ham.local_data(it, sig, want_hessian=True)
    ehess = ham._contract(it, sig.sigma, True)[2]
    K = 1e3
    proj = np.zeros((part.N, part.N))
    normal = np.zeros((part.N, part.N))
    shift = np.zeros(part.N)
    for s, sl in enumerate(part.slices()):
        unit = sig.sigma[sl] / np.linalg.norm(sig.sigma[sl])
        proj[sl, sl] = np.eye(part.sizes[s]) - np.outer(unit, unit)
        normal[sl, sl] = np.outer(unit, unit)
        shift[sl] = d.curvature[s]
    amb = proj @ ehess @ proj - shift[:, None] * proj + K * normal
    low = np.linalg.eigvalsh(amb)[:part.N - part.r]
    assert np.abs(low - np.linalg.eigvalsh(d.rhess)).max() <= 1e-10


def _branch_state(part, branch):
    # sigma_s[0] > 0, = 0 or < 0 in every species, or +-north_pole
    if branch == "north":
        return ham.north_pole(part).sigma
    if branch == "south":
        return -ham.north_pole(part).sigma
    raw = ham.random_state(part, 29).sigma.copy()
    head = {"positive": 0.5, "zero": 0.0, "negative": -0.5}[branch]
    for sl in part.slices():
        raw[sl.start] = np.sign(head) * (abs(raw[sl.start]) + abs(head))
    return ham.retract(part, raw).sigma


@pytest.mark.parametrize("branch", ["positive", "zero", "negative", "north",
                                    "south"])
@pytest.mark.parametrize("preset", ["cubic-pair", "skew-pair",
                                    "three-species"])
def test_rhess_matches_explicit_basis(preset, branch):
    # the rank-2r reflector update against B^T E B with the dense
    # tangent_basis blocks, minus the curvature on the diagonal
    it = ham.sample(get_preset(preset), 40, seed=5)
    part = it.partition
    sig = _branch_state(part, branch)
    d = ham.local_data(it, sig, want_hessian=True)
    ehess = ham._contract(it, sig, True)[2]
    basis = np.zeros((part.N, part.N - part.r))
    roff = np.concatenate([[0], np.cumsum(part.sizes - 1)])
    for s, (sl, blk) in enumerate(zip(part.slices(),
                                      ham.tangent_basis(part, sig))):
        basis[sl, roff[s]:roff[s + 1]] = blk
    explicit = basis.T @ ehess @ basis
    explicit -= np.diag(np.repeat(d.curvature, part.sizes - 1))
    assert np.array_equal(d.rhess, d.rhess.T)
    assert np.abs(d.rhess - explicit).max() <= 1e-12 * np.abs(ehess).max()


def test_reflector_maps_are_the_tangent_projection():
    # B^T B = I and B B^T = the per-species tangent projection, applied in
    # O(N) through the reflectors instead of the dense basis
    it = ham.sample(get_preset("three-species"), 47, seed=3)
    part = it.partition
    sig = ham.random_state(part, 8).sigma
    ld = ham.local_data(it, sig, want_hessian=True)
    rng = np.random.default_rng(1)
    h = rng.standard_normal(part.N - part.r)
    assert np.abs(ld.tangent(ld.ambient(h)) - h).max() <= 1e-13
    g = rng.standard_normal(part.N)
    proj = g.copy()
    for s, sl in enumerate(part.slices()):
        u = sig[sl] / np.sqrt(part.sizes[s])
        proj[sl] -= (u @ g[sl]) * u
    assert np.abs(ld.ambient(ld.tangent(g)) - proj).max() <= 1e-13


def test_overlap_trivials(inst):
    part = inst.partition
    sig = ham.random_state(part, 31).sigma
    assert np.allclose(ham.overlap(sig, sig, part), 1.0, atol=1e-12)
    assert np.allclose(ham.overlap(sig, -sig, part), -1.0, atol=1e-12)
    flipped = sig.copy()
    flipped[part.slices()[1]] *= -1.0
    got = ham.overlap(sig, flipped, part)
    assert np.allclose(got, [1.0, -1.0], atol=1e-12)


def test_g1_overlap_scaling(inst):
    part = inst.partition
    sig = ham.random_state(part, 33)
    raw = ham.overlap(inst.tensors[1], sig, part)
    assert np.allclose(ham.g1_overlap(inst, sig),
                       raw / np.sqrt(part.lam_N), atol=0, rtol=1e-14)


def test_linear_model_critical_stats():
    # a degree-1-only mixture has closed-form critical points, pinning the
    # overlap and radial predictions without any solver in the loop
    lin = mx.MixtureSpec(r=2, lam=np.array([0.3, 0.7]),
                         coeffs=((1, (0,), 1.0), (1, (1,), 1.0)))
    pred = mx.ideal_stats(lin, np.array([1.0, 1.0]))
    overlaps, radials = [], []
    for t in range(60):
        it = ham.sample(lin, 100, seed=(9, t))
        part = it.partition
        g1 = it.tensors[1]
        sig = np.zeros(100)
        for s, sl in enumerate(part.slices()):
            sig[sl] = np.sqrt(part.sizes[s]) * g1[sl] / np.linalg.norm(g1[sl])
        d = ham.local_data(it, sig)
        assert np.linalg.norm(d.rgrad) <= 1e-10
        overlaps.append(ham.g1_overlap(it, sig))
        radials.append(d.radial)
    assert np.abs(np.mean(overlaps, axis=0) - pred.overlap).max() <= 0.05
    assert np.abs(np.mean(radials, axis=0) - pred.radial).max() <= 0.05


def test_covariance_selftest_passes(covariance_moments):
    for moments in covariance_moments.values():
        assert all(products.shape == (10000,)
                   for products, _ in moments.values())
        zscores = {name: _zscore(*m) for name, m in moments.items()}
        assert max(abs(z) for z in zscores.values()) <= 4.0, zscores
        # every family, including the degree-1 rows
        for family in ("energy_var", "radial_cov", "energy_radial",
                       "tangential_var", "indep_tang_energy",
                       "indep_tang_radial", "g1_cov", "g1_radial"):
            assert any(name.startswith(family) for name in zscores)


def test_selftest_tangential_variance(covariance_moments):
    for moments in covariance_moments.values():
        for name, (products, target) in moments.items():
            if name.startswith("tangential_var"):
                assert abs(products.mean() / target - 1.0) <= 0.05


def test_scale_bounds():
    # empirical surrogate constants pinned from pilot runs at N=100
    gmax = hmax = 0.0
    for i in range(3):
        it = ham.sample(CUBIC, 100, seed=(77, i))
        for j in range(10):
            sig = ham.random_state(it.partition, (i, j))
            d = ham.local_data(it, sig, want_hessian=True)
            gmax = max(gmax, np.linalg.norm(d.egrad) / 10.0)
            hmax = max(hmax, float(np.abs(np.linalg.eigvalsh(d.rhess)).max()))
    assert gmax <= 4.0
    assert hmax <= 6.0


def test_spectrum_perturbation():
    # sorted-eigenvalue distance grows at most linearly in the step, with
    # the constant pinned from pilot runs
    it = ham.sample(CUBIC, 80, seed=5)
    part = it.partition
    rng = np.random.default_rng(0)
    for trial in range(3):
        sig = ham.random_state(part, (5, trial))
        e0 = np.linalg.eigvalsh(ham.local_data(it, sig, want_hessian=True).rhess)
        for eps in (1e-2, 1e-1):
            pert = rng.standard_normal(part.N)
            moved = ham.retract(part, sig.sigma + eps * np.sqrt(part.N)
                                * pert / np.linalg.norm(pert))
            e1 = np.linalg.eigvalsh(ham.local_data(it, moved,
                                                   want_hessian=True).rhess)
            dist = np.linalg.norm(moved.sigma - sig.sigma) / np.sqrt(part.N)
            assert np.abs(e0 - e1).max() <= 3.0 * dist



def test_instance_derives_partition_and_tables(inst):
    # an instance is its mixture, N, tensors and seed: the rest is derived
    bare = ham.HamiltonianInstance(mixture=inst.mixture, N=inst.N,
                                   tensors=inst.tensors, seed=None)
    assert np.array_equal(bare.partition.sizes, inst.partition.sizes)
    for k, table in inst.gamma_tables.items():
        assert np.array_equal(bare.gamma_tables[k], table)
    sig = ham.random_state(inst.partition, 52)
    assert ham.local_data(bare, sig).value == ham.local_data(inst, sig).value
