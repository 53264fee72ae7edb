"""Finite-N Hamiltonians: sampling, evaluation, and local differential data."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import DegreeTooHigh, OffManifold, TooLarge, ValidationError
from .mixture import (MixtureSpec, mixture_from_dict, mixture_to_dict,
                      species_sizes, stats as mixture_stats)

MAX_N_DEGREE3 = 400
MAX_N = 4000
MANIFOLD_RTOL = 1e-8
MAGIC = b"GLHAM01\n"


@dataclass(frozen=True)
class Partition:
    """Contiguous species index ranges I_s covering 0..N-1."""

    sizes: np.ndarray
    N: int

    @property
    def r(self) -> int:
        return self.sizes.shape[0]

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.sizes)])

    @property
    def lam_N(self) -> np.ndarray:
        return self.sizes / self.N

    @property
    def lam_circ(self) -> np.ndarray:
        # aggregation weights (N_s - 1)/(N - r) for finite-N spectra
        return (self.sizes - 1) / (self.N - self.r)

    @property
    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.r), self.sizes)

    def slices(self) -> list:
        off = self.offsets
        return [slice(int(off[s]), int(off[s + 1])) for s in range(self.r)]


@dataclass(frozen=True)
class HamiltonianInstance:
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


def sample(mixture: MixtureSpec, N: int, seed) -> HamiltonianInstance:
    """Draw one disorder instance; deterministic given the seed."""
    tables = _gamma_tables(mixture)
    degrees = sorted(k for k, tab in tables.items() if np.any(tab > 0))
    if degrees and degrees[-1] > 3:
        raise DegreeTooHigh(
            f"dense sampling supports degree <= 3, mixture has {degrees[-1]}")
    cap = MAX_N_DEGREE3 if 3 in degrees else MAX_N
    if N > cap:
        raise TooLarge(f"N={N} exceeds the dense cap {cap} for this mixture")
    partition = make_partition(mixture, N)
    rng = np.random.default_rng(seed)
    tensors = {}
    for k in degrees:
        g = rng.standard_normal((N,) * k)
        g.flags.writeable = False
        tensors[k] = g
    return HamiltonianInstance(mixture=mixture, N=N, partition=partition,
                               tensors=tensors, seed=seed,
                               gamma_tables=tables)


def _as_sigma(sigma) -> np.ndarray:
    if isinstance(sigma, StatePoint):
        return np.asarray(sigma.sigma, dtype=float)
    return np.asarray(sigma, dtype=float)


def check_on_manifold(partition: Partition, sigma) -> None:
    sig = _as_sigma(sigma)
    if sig.shape != (partition.N,):
        raise OffManifold(f"state must have shape ({partition.N},)")
    for s, sl in enumerate(partition.slices()):
        ns = float(partition.sizes[s])
        rel = abs(float(sig[sl] @ sig[sl]) - ns) / ns
        if rel > MANIFOLD_RTOL:
            raise OffManifold(
                f"species {s} norm off sphere by relative {rel:.3e}")


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
    a, b = _as_sigma(sigma), _as_sigma(rho)
    return np.array([float(a[sl] @ b[sl]) / partition.sizes[s]
                     for s, sl in enumerate(partition.slices())])


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

    degree_weights rescales each degree's contribution; missing degrees
    keep weight 1.  Used for homotopies between the degree-1 part and
    the full Hamiltonian.
    """
    part = instance.partition
    N = instance.N
    labels = part.labels
    sls = part.slices()
    tabs = instance.gamma_tables
    wts = degree_weights or {}
    value = 0.0
    egrad = np.zeros(N)
    ehess = np.zeros((N, N)) if want_hessian else None

    if 1 in instance.tensors and wts.get(1, 1.0) != 0.0:
        c1 = wts.get(1, 1.0) * tabs[1][labels]
        value += float((c1 * instance.tensors[1]) @ sig)
        egrad += c1 * instance.tensors[1]

    if 2 in instance.tensors and wts.get(2, 1.0) != 0.0:
        scale = wts.get(2, 1.0) * N ** -0.5
        weighted = tabs[2][labels[:, None], labels[None, :]] * instance.tensors[2]
        right = weighted @ sig
        value += scale * float(sig @ right)
        egrad += scale * (right + weighted.T @ sig)
        if want_hessian:
            ehess += scale * (weighted + weighted.T)

    if 3 in instance.tensors and wts.get(3, 1.0) != 0.0:
        scale = wts.get(3, 1.0) / N
        G3 = instance.tensors[3]
        g3 = tabs[3]
        # per-species single-slot contractions; slot order matters since
        # the tensor is not symmetrized
        T3 = [G3[:, :, sl] @ sig[sl] for sl in sls]
        T1 = [(sig[sl] @ G3[sl].reshape(part.sizes[s], -1)).reshape(N, N)
              for s, sl in enumerate(sls)]
        for s3 in range(part.r):
            for s2, sl2 in enumerate(sls):
                y = T3[s3][:, sl2] @ sig[sl2]
                egrad += scale * g3[labels, s2, s3] * y
                for s1, sl1 in enumerate(sls):
                    value += scale * g3[s1, s2, s3] * float(y[sl1] @ sig[sl1])
        for s1, sl1 in enumerate(sls):
            for s3 in range(part.r):
                egrad += scale * g3[s1, labels, s3] * (sig[sl1] @ T3[s3][sl1, :])
            for s2, sl2 in enumerate(sls):
                egrad += scale * g3[s1, s2, labels] * (sig[sl2] @ T1[s1][sl2, :])
        if want_hessian:
            for s, sl in enumerate(sls):
                mid = np.einsum("ujv,j->uv", G3[:, sl, :], sig[sl])
                sym = T3[s] + T3[s].T + mid + mid.T + T1[s] + T1[s].T
                ehess += scale * g3[labels[:, None], labels[None, :], s] * sym

    return value, egrad, ehess


def raw_gradient(instance: HamiltonianInstance, x,
                 degree_weights=None) -> np.ndarray:
    """Euclidean gradient at an arbitrary point, no manifold constraint."""
    _, egrad, _ = _contract(instance, _as_sigma(x), False, degree_weights)
    return egrad


def local_data(instance: HamiltonianInstance, sigma,
               want_hessian: bool = False, degree_weights=None) -> LocalData:
    """Value, gradients, radial data, and optionally the Riemannian Hessian."""
    sig = _as_sigma(sigma)
    part = instance.partition
    check_on_manifold(part, sig)
    sls = part.slices()
    value, egrad, ehess = _contract(instance, sig, want_hessian, degree_weights)

    inner = np.array([float(sig[sl] @ egrad[sl]) for sl in sls])
    radial = inner / (np.sqrt(part.sizes) * np.sqrt(part.N))
    curvature = inner / part.sizes
    rgrad = egrad.copy()
    for s, sl in enumerate(sls):
        rgrad[sl] -= curvature[s] * sig[sl]

    rhess = blocks = None
    if want_hessian:
        blocks = tangent_basis(part, sig)
        roff = np.concatenate([[0], np.cumsum(part.sizes - 1)])
        dim = part.N - part.r
        rhess = np.empty((dim, dim))
        for a in range(part.r):
            ra = slice(int(roff[a]), int(roff[a + 1]))
            for b in range(a, part.r):
                rb = slice(int(roff[b]), int(roff[b + 1]))
                blk = blocks[a].T @ ehess[sls[a], sls[b]] @ blocks[b]
                rhess[ra, rb] = blk
                if b != a:
                    rhess[rb, ra] = blk.T
            rhess[ra, ra] = 0.5 * (rhess[ra, ra] + rhess[ra, ra].T)
            view = rhess[ra, ra]
            idx = np.diag_indices(int(part.sizes[a] - 1))
            view[idx] -= curvature[a]

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
    for t in range(trials):
        inst = sample(mixture, N, seed=(seed, t))
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
