"""Finite-N Hamiltonians: sampling, evaluation, and local differential data."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import numpy as np

from .errors import DegreeTooHigh, OffManifold, TooLarge, ValidationError
from .mixture import (MixtureSpec, mixture_from_dict, mixture_to_dict,
                      species_sizes, stats as mixture_stats)

MAX_N_DEGREE3 = 400
MAX_N = 4000
MANIFOLD_RTOL = 1e-8
MAGIC = b"GLHAM02\n"
# entries per tile of the in-place coupling build (256 KB)
TILE_ENTRIES = 32768


@dataclass(frozen=True)
class Partition:
    """Contiguous species index ranges I_s covering 0..N-1."""

    sizes: np.ndarray
    N: int

    @property
    def r(self) -> int:
        return self.sizes.shape[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.sizes)])

    @property
    def lam_N(self) -> np.ndarray:
        return self.sizes / self.N

    @property
    def lam_circ(self) -> np.ndarray:
        # aggregation weights (N_s - 1)/(N - r) for finite-N spectra
        return (self.sizes - 1) / (self.N - self.r)

    @cached_property
    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.r), self.sizes)

    def slices(self) -> list:
        off = self.offsets
        return [slice(int(off[s]), int(off[s + 1])) for s in range(self.r)]

    def block_sums(self, x: np.ndarray) -> np.ndarray:
        """Per-species sums of the entries of x."""
        return np.add.reduceat(x, self.offsets[:-1])


@dataclass(frozen=True)
class HamiltonianInstance:
    """tensors[1] is the raw external-field draw G_1; tensors[k], k >= 2,
    the symmetric coupling J_k (see sample).  A degree-3 instance thus
    holds one N^3 float64 array, 512 MB at MAX_N_DEGREE3."""

    mixture: MixtureSpec
    N: int
    partition: Partition
    tensors: dict
    seed: object
    gamma_tables: dict = field(repr=False, default=None)


@dataclass(frozen=True)
class StatePoint:
    sigma: np.ndarray


@dataclass(frozen=True)
class LocalData:
    """rhess is in the coordinates of basis, the tangent_basis blocks;
    both are None unless the Hessian was asked for."""

    value: float
    egrad: np.ndarray
    rgrad: np.ndarray
    radial: np.ndarray
    curvature: np.ndarray
    rhess: np.ndarray
    basis: list = None


@dataclass(frozen=True)
class CovarianceReport:
    passed: bool
    max_abs_z: float
    zscores: dict
    empirical: dict
    analytic: dict
    N: int
    trials: int


def _gamma_tables(mixture: MixtureSpec) -> dict:
    tables = {}
    for degree, index, gamma in mixture.coeffs:
        tab = tables.setdefault(degree, np.zeros((mixture.r,) * degree))
        for perm in set(permutations(index)):
            tab[perm] = gamma
    return tables


def make_partition(mixture: MixtureSpec, N: int) -> Partition:
    return Partition(sizes=species_sizes(mixture.lam, N), N=int(N))


def _couple(g, partition: Partition, table: np.ndarray):
    """Turn the degree-k draw g, k = 2 or 3, into its coupling J in place.

    J = N^{-(k-1)/2} gamma sym(g), sym the mean over the k! axis
    permutations and gamma the table entry of each index's species.
    gamma is symmetric, so it is applied first, per species slab; for
    k = 3 that pass adds the swap tau of the last two axes, as S_3 =
    {e, c, c^2} {e, tau}.  Then each orbit of tile tuples under the cyclic
    shift c is summed into one tile and written back to all of them, so
    beside g at most about TILE_ENTRIES entries, or one N x N row, are held.
    """
    N, k = g.shape[0], g.ndim
    weight = table * (N ** ((1 - k) / 2) / factorial(k))
    for axis in range(1, k):
        weight = np.repeat(weight, partition.sizes, axis=axis)
    rows = max(1, TILE_ENTRIES // N ** (k - 1))
    for s, sl in enumerate(partition.slices()):
        for a in range(sl.start, sl.stop, rows):
            blk = g[a:min(a + rows, sl.stop)]
            np.multiply(blk + np.swapaxes(blk, 1, 2) if k == 3 else blk,
                        weight[s], out=blk)
    n = -(-N // round(TILE_ENTRIES ** (1 / k)))
    cuts = [slice(N * i // n, N * (i + 1) // n) for i in range(n)]
    shift = [[(d + i) % k for d in range(k)] for i in range(k)]
    for t in product(range(n), repeat=k):
        rots = [t[i:] + t[:i] for i in range(k)]
        if t > min(rots):  # each orbit once, at its least rotation
            continue
        tiles = [tuple(cuts[b] for b in rot) for rot in rots]
        acc = g[tiles[0]] + g[tiles[1]].transpose(shift[-1])
        for i in range(2, k):
            acc += g[tiles[i]].transpose(shift[-i])
        for i in range(k if len(set(rots)) > 1 else 1):
            g[tiles[i]] = acc.transpose(shift[i])


def sample(mixture: MixtureSpec, N: int, seed) -> HamiltonianInstance:
    """Draw one disorder instance; deterministic given the seed.

    One standard Gaussian G_k of shape (N,)*k is drawn per degree, in
    increasing k.  For k >= 2 it is turned in place into the coupling
    J_k (see _couple), so H(sigma) = sum_k N^{-(k-1)/2} gamma_k G_k(sigma,
    ..., sigma) is gamma_1 G_1 . sigma + sum_{k>=2} J_k(sigma, ..., sigma).
    """
    return _sampler(mixture, N)(seed)


def _sampler(mixture: MixtureSpec, N: int):
    """sample's checks and set-up, done once; returns seed -> instance."""
    tables = _gamma_tables(mixture)
    degrees = sorted(k for k, tab in tables.items() if np.any(tab > 0))
    if degrees and degrees[-1] > 3:
        raise DegreeTooHigh(
            f"dense sampling supports degree <= 3, mixture has {degrees[-1]}")
    cap = MAX_N_DEGREE3 if 3 in degrees else MAX_N
    if N > cap:
        raise TooLarge(f"N={N} exceeds the dense cap {cap} for this mixture")
    partition = make_partition(mixture, N)

    def draw(seed) -> HamiltonianInstance:
        rng = np.random.default_rng(seed)
        tensors = {k: rng.standard_normal((N,) * k) for k in degrees}
        for k, g in tensors.items():
            if k > 1:
                _couple(g, partition, tables[k])
            g.flags.writeable = False
        return HamiltonianInstance(mixture=mixture, N=N, partition=partition,
                                   tensors=tensors, seed=seed,
                                   gamma_tables=tables)
    return draw


def _as_sigma(sigma) -> np.ndarray:
    if isinstance(sigma, StatePoint):
        return np.asarray(sigma.sigma, dtype=float)
    return np.asarray(sigma, dtype=float)


def check_on_manifold(partition: Partition, sigma) -> None:
    sig = _as_sigma(sigma)
    if sig.shape != (partition.N,):
        raise OffManifold(f"state must have shape ({partition.N},)")
    rel = np.abs(partition.block_sums(sig * sig) - partition.sizes)
    rel /= partition.sizes
    for s in np.flatnonzero(rel > MANIFOLD_RTOL)[:1]:
        raise OffManifold(
            f"species {s} norm off sphere by relative {rel[s]:.3e}")


def retract(partition: Partition, vec) -> StatePoint:
    """Renormalize each species block to its sphere radius sqrt(N_s)."""
    out = _as_sigma(vec).copy()
    for s, sl in enumerate(partition.slices()):
        nrm = np.linalg.norm(out[sl])
        if nrm < 1e-12:
            raise ValidationError(f"species {s} block has vanishing norm")
        out[sl] *= np.sqrt(partition.sizes[s]) / nrm
    return StatePoint(sigma=out)


def north_pole(partition: Partition) -> StatePoint:
    sig = np.zeros(partition.N)
    for s, sl in enumerate(partition.slices()):
        sig[sl.start] = np.sqrt(partition.sizes[s])
    return StatePoint(sigma=sig)


def random_state(partition: Partition, seed) -> StatePoint:
    rng = np.random.default_rng(seed)
    return retract(partition, rng.standard_normal(partition.N))


def overlap(sigma, rho, partition: Partition) -> np.ndarray:
    """Per-species overlap R_s = <sigma_s, rho_s>/N_s."""
    return (partition.block_sums(_as_sigma(sigma) * _as_sigma(rho))
            / partition.sizes)


def tangent_basis(partition: Partition, sigma) -> list:
    """Orthonormal tangent bases, one (N_s, N_s - 1) block per species.

    With u = sigma_s/|sigma_s| and v = u + sign(u_0) e_0, sign(0) = +1,
    block s is columns 1..N_s-1 of the Householder reflector
    I - v v^T/(1 + |u_0|).  Column 0 is -sign(u_0) u, so the rest span the
    tangent space; the sign keeps u_0 + sign(u_0) from cancelling.  At
    +-north_pole the block is exactly the standard coordinates 1..N_s-1.
    """
    sig = _as_sigma(sigma)
    blocks = []
    for sl in partition.slices():
        v = sig[sl] / np.linalg.norm(sig[sl])
        head = abs(v[0])
        v[0] += 1.0 if v[0] >= 0 else -1.0
        basis = np.outer(v, v[1:] / -(1.0 + head))
        basis[1:] += np.eye(v.shape[0] - 1)
        blocks.append(basis)
    return blocks


def _contract(instance: HamiltonianInstance, sig: np.ndarray,
              want_hessian: bool, degree_weights=None):
    """Value, Euclidean gradient, and optionally the Euclidean Hessian.

    With M = J(., ., sigma) for degree 3 and M = J for degree 2, a degree-k
    term contributes sigma^T M sigma, k M sigma and k(k-1) M, since J is
    symmetric.  degree_weights rescales each degree's contribution; missing
    degrees keep weight 1.  Used for homotopies between the degree-1 part
    and the full Hamiltonian.
    """
    N = instance.N
    wts = degree_weights or {}
    value = 0.0
    egrad = np.zeros(N)
    # the Hessian starts from its first term; filling an N x N zeros array
    # and adding a temporary to it dominated this function's time
    ehess = None
    for k, t in instance.tensors.items():
        w = wts.get(k, 1.0)
        if k == 1:
            c1 = w * instance.gamma_tables[1][instance.partition.labels] * t
            value += float(c1 @ sig)
            egrad += c1
        elif w != 0.0:
            M = t if k == 2 else (t.reshape(N * N, N) @ sig).reshape(N, N)
            Msig = M @ sig
            value += w * float(sig @ Msig)
            egrad += (w * k) * Msig
            if want_hessian:
                term = (w * k * (k - 1)) * M
                ehess = term if ehess is None else ehess + term
    if want_hessian and ehess is None:
        ehess = np.zeros((N, N))
    return value, egrad, ehess


def local_data(instance: HamiltonianInstance, sigma,
               want_hessian: bool = False, degree_weights=None) -> LocalData:
    """Value, gradients, radial data, and optionally the Riemannian Hessian."""
    sig = _as_sigma(sigma)
    part = instance.partition
    check_on_manifold(part, sig)
    sls = part.slices()
    value, egrad, ehess = _contract(instance, sig, want_hessian, degree_weights)

    inner = part.block_sums(sig * egrad)
    radial = inner / (np.sqrt(part.sizes) * np.sqrt(part.N))
    curvature = inner / part.sizes
    rgrad = egrad - curvature[part.labels] * sig

    rhess = blocks = None
    if want_hessian:
        blocks = tangent_basis(part, sig)
        tan = Partition(sizes=part.sizes - 1, N=part.N - part.r).slices()
        rhess = np.empty((part.N - part.r,) * 2)
        for a, b in combinations_with_replacement(range(part.r), 2):
            blk = blocks[a].T @ ehess[sls[a], sls[b]] @ blocks[b]
            if a == b:
                blk = 0.5 * (blk + blk.T)
            rhess[tan[a], tan[b]] = blk
            rhess[tan[b], tan[a]] = blk.T
        rhess[np.diag_indices_from(rhess)] -= np.repeat(curvature,
                                                        part.sizes - 1)

    return LocalData(value=value, egrad=egrad, rgrad=rgrad, radial=radial,
                     curvature=curvature, rhess=rhess, basis=blocks)


def energy(instance: HamiltonianInstance, sigma, degree_weights=None) -> float:
    """H(sigma) alone, without the Hessian."""
    sig = _as_sigma(sigma)
    check_on_manifold(instance.partition, sig)
    return _contract(instance, sig, False, degree_weights)[0]


def g1_overlap(instance: HamiltonianInstance, sigma) -> np.ndarray:
    """Species-weighted overlap of sigma with the degree-1 disorder.

    Scaled per species by lambda_N^{-1/2} relative to the raw overlap so
    that it concentrates on the ideal prediction Delta_s gamma_s/sqrt(xi'_s)
    at critical points.  Zeros when the mixture has no degree-1 part.
    """
    if 1 not in instance.tensors:
        return np.zeros(instance.partition.r)
    part = instance.partition
    raw = overlap(instance.tensors[1], sigma, part)
    return raw / np.sqrt(part.lam_N)


def _zscore(products: np.ndarray, target: float) -> float:
    n = products.shape[0]
    se = products.std(ddof=1) / np.sqrt(n)
    if se == 0.0:
        return 0.0 if abs(products.mean() - target) < 1e-14 else np.inf
    return float((products.mean() - target) / se)


def covariance_selftest(mixture: MixtureSpec, N: int, trials: int,
                        seed) -> CovarianceReport:
    """Monte Carlo check of the derivative laws at the species north pole.

    Empirical second moments of (H, tangential derivatives, radial
    derivative, degree-1 overlap) are compared with the exact finite-N
    covariances, which are those of the limit laws with the species
    proportions N_s/N in place of lambda.  PASS means all |z| <= 4.
    """
    if trials < 1000:
        raise ValidationError("covariance selftest needs trials >= 1000")
    partition = make_partition(mixture, N)
    lam_N = partition.lam_N
    finite_spec = MixtureSpec(r=mixture.r, lam=lam_N, coeffs=mixture.coeffs,
                              max_degree=mixture.max_degree)
    st = mixture_stats(finite_spec)
    r = mixture.r
    pole = north_pole(partition)

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
    has_g1 = np.any(mixture.gamma1 > 0)
    draw = _sampler(mixture, N)
    for t in range(trials):
        inst = draw((seed, t))
        data = local_data(inst, pole)
        energies[t] = data.value
        radials[t] = data.radial
        tangentials[t] = data.egrad[tang_idx]
        if has_g1:
            overlaps[t] = overlap(inst.tensors[1], pole, partition)

    zscores, empirical, analytic = {}, {}, {}

    def record(name, products, target):
        zscores[name] = _zscore(products, target)
        empirical[name] = float(products.mean())
        analytic[name] = float(target)

    record("energy_var", energies ** 2 / N, st.xi_one)
    rad_cov = np.diag(lam_N ** -0.5) @ st.A @ np.diag(lam_N ** -0.5) / N
    for s in range(r):
        for t in range(s, r):
            record(f"radial_cov_{s}{t}", radials[:, s] * radials[:, t],
                   rad_cov[s, t])
        record(f"energy_radial_{s}", energies * radials[:, s],
               st.xi_prime[s] / np.sqrt(lam_N[s]))
    for i, s in enumerate(tang_species):
        record(f"tangential_var_{i}", tangentials[:, i] ** 2,
               st.xi_species[s])
        record(f"indep_tang_energy_{i}", tangentials[:, i] * energies / N, 0.0)
        for t in range(r):
            record(f"indep_tang_radial_{i}{t}",
                   tangentials[:, i] * radials[:, t], 0.0)
    if has_g1:
        gamma1 = mixture.gamma1
        for s in range(r):
            for t in range(s, r):
                target = (1.0 / (N * lam_N[s])) if s == t else 0.0
                record(f"g1_cov_{s}{t}", overlaps[:, s] * overlaps[:, t],
                       target)
            record(f"g1_radial_{s}", overlaps[:, s] * radials[:, s],
                   gamma1[s] / (N * np.sqrt(lam_N[s])))

    max_abs_z = max(abs(z) for z in zscores.values())
    return CovarianceReport(passed=max_abs_z <= 4.0, max_abs_z=max_abs_z,
                            zscores=zscores, empirical=empirical,
                            analytic=analytic, N=N, trials=trials)


def save_instance(instance: HamiltonianInstance, path) -> None:
    """MAGIC, header length (8 bytes, little-endian), JSON header, then
    instance.tensors as float64 by degree: G_1, J_2, J_3.  load_instance
    rejects other magics, such as GLHAM01's raw-draw files."""
    header = {
        "mixture": mixture_to_dict(instance.mixture),
        "N": instance.N,
        "sizes": [int(v) for v in instance.partition.sizes],
        "seed": instance.seed if isinstance(instance.seed, (int, list, type(None)))
        else list(instance.seed),
        "degrees": sorted(instance.tensors),
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for k in sorted(instance.tensors):
            fh.write(np.ascontiguousarray(instance.tensors[k]).tobytes())


def load_instance(path) -> HamiltonianInstance:
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValidationError(f"{path} is not an instance file")
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size).decode())
        mixture = mixture_from_dict(header["mixture"])
        N = int(header["N"])
        tensors = {}
        for k in header["degrees"]:
            k = int(k)
            count = N ** k
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValidationError(f"truncated tensor data in {path}")
            g = np.frombuffer(buf, dtype=np.float64).reshape((N,) * k).copy()
            g.flags.writeable = False
            tensors[k] = g
    partition = Partition(sizes=np.asarray(header["sizes"], dtype=int), N=N)
    seed = header["seed"]
    if isinstance(seed, list):
        seed = tuple(seed)
    return HamiltonianInstance(mixture=mixture, N=N, partition=partition,
                               tensors=tensors, seed=seed,
                               gamma_tables=_gamma_tables(mixture))


def save_state(sigma, path) -> None:
    np.save(path, _as_sigma(sigma))


def load_state(path) -> StatePoint:
    return StatePoint(sigma=np.load(path))
