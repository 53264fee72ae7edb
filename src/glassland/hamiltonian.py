"""Finite-N Hamiltonians: sampling, evaluation, and local differential data."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import numpy as np

from .errors import DegreeTooHigh, OffManifold, TooLarge, ValidationError
from .mixture import MixtureSpec, species_sizes

MAX_N_DEGREE3 = 400
MAX_N = 4000
MANIFOLD_RTOL = 1e-8
# entries per tile of the in-place coupling build (256 KB)
TILE_ENTRIES = 32768


@dataclass(frozen=True)
class Partition:
    """Contiguous species index ranges I_s covering 0..N-1."""

    sizes: np.ndarray

    @property
    def r(self) -> int:
        return self.sizes.shape[0]

    @cached_property
    def N(self) -> int:
        return int(self.sizes.sum())

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.sizes)])

    @property
    def lam_N(self) -> np.ndarray:
        return self.sizes / self.N

    @cached_property
    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.r), self.sizes)

    @cached_property
    def _tangent_mask(self) -> np.ndarray:
        # the tangent_basis coordinates: all but each block's first
        return np.isin(np.arange(self.N), self.offsets[:-1], invert=True)

    def slices(self) -> list:
        off = self.offsets
        return [slice(int(off[s]), int(off[s + 1])) for s in range(self.r)]

    def block_sums(self, x: np.ndarray) -> np.ndarray:
        """Per-species sums of the entries of x."""
        return np.add.reduceat(x, self.offsets[:-1])


@dataclass(frozen=True)
class HamiltonianInstance:
    """tensors[1] is the raw external-field draw G_1 and tensors[2] the
    symmetric coupling J_2 (see sample).  tensors[3] holds the (i <= j)
    rows of the symmetric J_3 as an (N(N+1)/2, N) array, row p(i, j) =
    iN + j - i(i+1)/2 being J_3[i, j, :].  A degree-3 instance thus holds
    N^2(N+1)/2 float64 entries, 257 MB at MAX_N_DEGREE3.  The partition
    and the gamma tables are derived from mixture and N, not stored, and
    the instance itself is fixed by (mixture, N, seed) through sample."""

    mixture: MixtureSpec
    N: int
    tensors: dict
    seed: object

    @cached_property
    def partition(self) -> Partition:
        return make_partition(self.mixture, self.N)

    @cached_property
    def gamma_tables(self) -> dict:
        return _gamma_tables(self.mixture)

    @cached_property
    def external_field(self) -> np.ndarray:
        """The degree-1 coefficient field gamma_1[labels] G_1, read-only.

        H_1(sigma) = external_field . sigma.  Only defined when tensors
        holds a degree-1 draw.
        """
        out = self.gamma_tables[1][self.partition.labels] * self.tensors[1]
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class StatePoint:
    sigma: np.ndarray


@dataclass(frozen=True)
class LocalData:
    """rhess is in the tangent_basis coordinates, kept in reflectors as the
    Householder pair (V, X) of _reflectors and the mask of the coordinates
    tangent_basis keeps, never as dense blocks; tangent and ambient map to
    and from them in O(N).  Both are None unless the Hessian was asked for."""

    value: float
    egrad: np.ndarray
    rgrad: np.ndarray
    radial: np.ndarray
    curvature: np.ndarray
    rhess: np.ndarray
    reflectors: tuple = None

    def tangent(self, vec: np.ndarray) -> np.ndarray:
        """The tangent projection of vec in rhess's coordinates."""
        V, X, mask = self.reflectors
        return (vec - X @ (V.T @ vec))[mask]

    def ambient(self, red: np.ndarray) -> np.ndarray:
        """The tangent vector whose rhess coordinates are red."""
        V, X, mask = self.reflectors
        out = np.zeros(mask.size)
        out[mask] = red
        return out - X @ (V.T @ out)


def _gamma_tables(mixture: MixtureSpec) -> dict:
    tables = {}
    for degree, index, gamma in mixture.coeffs:
        tab = tables.setdefault(degree, np.zeros((mixture.r,) * degree))
        for perm in set(permutations(index)):
            tab[perm] = gamma
    return tables


def make_partition(mixture: MixtureSpec, N: int) -> Partition:
    return Partition(sizes=species_sizes(mixture.lam, N))


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


def _pack(g):
    """Shrink the symmetric N^3 coupling g in place to the (N(N+1)/2, N)
    array of its (i <= j) rows.

    Row p(i, j) = iN + j - i(i+1)/2 of the result is g[i, j, :].  It lies
    at or before its source row iN + j, so moving the rows in increasing
    order never overwrites one not yet read, and no second N^3 array is
    made.  g must own its buffer, which resize then shrinks.
    """
    N = g.shape[0]
    rows = g.reshape(N * N, N)
    for i in range(1, N):
        p = i * N - i * (i - 1) // 2
        rows[p:p + N - i] = rows[i * N + i:(i + 1) * N]
    del rows
    g.resize((N * (N + 1) // 2, N), refcheck=False)


@lru_cache(maxsize=8)
def _triu_flat(N: int) -> tuple:
    """Flat indices of M[i, j] and M[j, i], i <= j, in packed-row order."""
    i, j = np.triu_indices(N)
    return i * N + j, j * N + i


def sample(mixture: MixtureSpec, N: int, seed) -> HamiltonianInstance:
    """Draw one disorder instance; deterministic given the seed.

    One standard Gaussian G_k of shape (N,)*k is drawn per degree, in
    increasing k.  For k >= 2 it is turned in place into the coupling
    J_k (see _couple), so H(sigma) = sum_k N^{-(k-1)/2} gamma_k G_k(sigma,
    ..., sigma) is gamma_1 G_1 . sigma + sum_{k>=2} J_k(sigma, ..., sigma).
    J_3 is then packed in place to its (i <= j) rows (see
    HamiltonianInstance): N^2(N+1)/2 floats are kept of the N^3 drawn.
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
            if k == 3:
                _pack(g)
            g.flags.writeable = False
        return HamiltonianInstance(mixture, N, tensors, seed)
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
    ok = rel <= MANIFOLD_RTOL
    if not ok.all():
        s = int(np.argmin(ok))
        raise OffManifold(
            f"species {s} norm off sphere by relative {rel[s]:.3e}")


def retract(partition: Partition, vec) -> StatePoint:
    """Renormalize each species block to its sphere radius sqrt(N_s)."""
    out = _as_sigma(vec).copy()
    for s, sl in enumerate(partition.slices()):
        nrm = np.linalg.norm(out[sl])
        if not 1e-12 <= nrm < np.inf:
            raise ValidationError(
                f"species {s} block has vanishing or non-finite norm")
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


def _reflectors(partition: Partition, sig: np.ndarray) -> tuple:
    """The Householder reflector P = I - X V^T behind tangent_basis.

    With u = sig_s/|sig_s| and sign(0) = +1, columns s of the (N, r)
    matrices V and X are v_s = u + sign(u_0) e_0 on I_s and x_s =
    v_s/|v_s[0]| = v_s/(1 + |u_0|).  P maps e_0 to -sign(u_0) u.
    """
    V = np.zeros((partition.N, partition.r))
    for s, sl in enumerate(partition.slices()):
        V[sl, s] = sig[sl] / np.linalg.norm(sig[sl])
        V[sl.start, s] += 1.0 if V[sl.start, s] >= 0 else -1.0
    return V, V / np.abs(V[partition.offsets[:-1]]).sum(axis=0)


def tangent_basis(partition: Partition, sigma) -> list:
    """Orthonormal tangent bases, one (N_s, N_s - 1) block per species.

    Block s is columns 1..N_s-1 of the reflector P_s of _reflectors().
    Column 0 is -sign(u_0) u, so the rest span the tangent space; the sign
    keeps u_0 + sign(u_0) from cancelling.  At +-north_pole the block is
    exactly the standard coordinates 1..N_s-1.
    """
    V, X = _reflectors(partition, _as_sigma(sigma))
    return [np.eye(sl.stop - sl.start)[:, 1:]
            - np.outer(X[sl, s], V[sl.start + 1:sl.stop, s])
            for s, sl in enumerate(partition.slices())]


def _contract(instance: HamiltonianInstance, sig: np.ndarray,
              want_hessian: bool, t: float = 1.0):
    """Value, Euclidean gradient, and optionally the Euclidean Hessian.

    With M = J(., ., sigma) for degree 3 and M = J for degree 2, a degree-k
    term contributes sigma^T M sigma, k M sigma and k(k-1) M, since J is
    symmetric.  The degree-3 M is one gemv over the packed (i <= j) rows,
    each value written to M[i, j] and M[j, i], so M is exactly symmetric.
    The degree >= 2 terms are scaled by t: H_t = H_1 + t H_{>=2} is the
    homotopy from the degree-1 part (t = 0) to the full Hamiltonian (t = 1).
    """
    N = instance.N
    value = 0.0
    egrad = np.zeros(N)
    # the Hessian starts from its first term; filling an N x N zeros array
    # and adding a temporary to it dominated this function's time
    ehess = None
    for k, J in instance.tensors.items():
        if k == 1:
            c1 = instance.external_field
            value += float(c1 @ sig)
            egrad += c1
            continue
        if k == 2:
            M = J
        else:
            m = J @ sig
            M = np.empty((N, N))
            flat = M.reshape(-1)
            for idx in _triu_flat(N):
                flat[idx] = m
        Msig = M @ sig
        value += t * float(sig @ Msig)
        egrad += (t * k) * Msig
        if want_hessian:
            term = (t * k * (k - 1)) * M
            ehess = term if ehess is None else ehess + term
    if want_hessian and ehess is None:
        ehess = np.zeros((N, N))
    return value, egrad, ehess


def local_data(instance: HamiltonianInstance, sigma,
               want_hessian: bool = False, t: float = 1.0) -> LocalData:
    """H_t's value, gradients, radial data and optional Riemannian Hessian."""
    sig = _as_sigma(sigma)
    part = instance.partition
    check_on_manifold(part, sig)
    sls = part.slices()
    value, egrad, ehess = _contract(instance, sig, want_hessian, t)

    inner = part.block_sums(sig * egrad)
    radial = inner / (np.sqrt(part.sizes) * np.sqrt(part.N))
    curvature = inner / part.sizes
    rgrad = egrad - curvature[part.labels] * sig

    rhess = refl = None
    if want_hessian:
        # rhess is P E P less each block's first row and column, and
        # P E P = E - U Z^T with W = E V and Y = W - X (V^T W)/2
        V, X = _reflectors(part, sig)
        refl = (V, X, part._tangent_mask)
        W = ehess @ V
        Y = W - 0.5 * X @ (V.T @ W)
        U, Z = np.hstack((X, Y)), np.hstack((Y, X))
        tails = [slice(sl.start + 1, sl.stop) for sl in sls]
        tan = [slice(sl.start - s, sl.stop - s - 1) for s, sl in enumerate(sls)]
        rhess = np.empty((part.N - part.r,) * 2)
        for a, b in combinations_with_replacement(range(part.r), 2):
            ta, tb = tails[a], tails[b]
            blk = rhess[tan[a], tan[b]]
            np.subtract(ehess[ta, tb], U[ta] @ Z[tb].T, out=blk)
            if a == b:
                blk[...] = 0.5 * (blk + blk.T)
            else:
                rhess[tan[b], tan[a]] = blk.T
        rhess.flat[::rhess.shape[0] + 1] -= np.repeat(curvature,
                                                      part.sizes - 1)

    return LocalData(value=value, egrad=egrad, rgrad=rgrad, radial=radial,
                     curvature=curvature, rhess=rhess, reflectors=refl)


def energy(instance: HamiltonianInstance, sigma) -> float:
    """H(sigma): the value of local_data, without the Hessian."""
    return local_data(instance, sigma).value


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
