"""Mixture functions for multi-species spherical spin glasses.

A mixture is the polynomial

    xi(x) = sum_k sum_{s1..sk} gamma^2_{s1..sk} (lambda_{s1} x_{s1}) ... (lambda_{sk} x_{sk}),

stored as one coefficient per nondecreasing species multi-index.  This module
evaluates xi and its derivatives, classifies solvability, and produces the
closed-form critical-point predictions for strictly super-solvable models.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import BadMixture, DegreeTooHigh, NegativeRadicand, ValidationError

MAX_DEGREE = 6          # library-wide cap on mixture degree
LAMBDA_SUM_TOL = 1e-12
# |min_eig| counted as 0: above the rounding of xi', xi'', below preset gaps
SOLVABLE_TOL = 1e-9

__all__ = [
    "MixtureSpec", "MixtureStats", "SolvabilityReport", "CriticalPrediction",
    "load_mixture", "mixture_from_dict", "mixture_to_dict", "eval_xi",
    "stats", "classify_solvability", "ideal_stats", "v_star",
    "all_sign_patterns",
]


def as_vector(x, r: int, name: str = "x", dtype=float,
              rows: bool = False) -> np.ndarray:
    """x as a finite (r,) array, or (n, r) with rows, else ValidationError."""
    x = np.asarray(x, dtype=dtype)
    if x.shape[rows:] != (r,):
        shape = f"(n, {r})" if rows else f"({r},)"
        raise ValidationError(f"{name} must have shape {shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} must be finite")
    return x


def as_signs(delta, r: int) -> np.ndarray:
    """delta as a float vector of +-1 of length r, else ValidationError."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (r,) or not np.all(np.abs(delta) == 1.0):
        raise ValidationError(f"delta must be a vector of +-1 of length {r}")
    return delta


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Mixture function data.

    Attributes
    ----------
    r : int
        Number of species.
    lam : ndarray, shape (r,)
        Species weights, positive, summing to 1.  The spec keeps a read-only
        copy, so a caller's array changed later cannot change it.
    coeffs : tuple of (degree, index, gamma)
        One entry per orbit representative.  ``index`` is a nondecreasing
        tuple of 0-based species labels of length ``degree``; ``gamma`` is
        the nonnegative coefficient.

    The terms are also held as an exponent matrix: row t of the int array
    ``_exponents`` (T, r) counts each species in entry t's index, and
    ``_weights`` (T,) is gamma^2 times the orbit multiplicity, so that
    xi(x) = sum_t w_t prod_s (lambda_s x_s)^{E_ts}.  ``max_degree`` is
    derived from ``coeffs``.  Specs compare and hash by identity (eq=False).
    """

    r: int
    lam: np.ndarray
    coeffs: tuple[tuple[int, tuple[int, ...], float], ...]
    _exponents: np.ndarray = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        if lam.shape != (self.r,):
            raise BadMixture(f"lambda must have length r={self.r}")
        if not np.all(lam > 0):
            raise BadMixture("all species weights must be positive")
        if not abs(lam.sum() - 1.0) <= LAMBDA_SUM_TOL:
            raise BadMixture(f"species weights sum to {lam.sum()!r}, not 1")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        seen = set()
        exponents = np.zeros((len(self.coeffs), self.r), dtype=int)
        weights = np.zeros(len(self.coeffs))
        for t, (degree, index, gamma) in enumerate(self.coeffs):
            if degree < 1 or degree != len(index):
                raise BadMixture(f"degree {degree} does not match index {index}")
            if degree > MAX_DEGREE:
                raise DegreeTooHigh(f"degree {degree} exceeds cap {MAX_DEGREE}")
            if any(s < 0 or s >= self.r for s in index):
                raise BadMixture(f"species label out of range in {index}")
            if tuple(index) != tuple(sorted(index)):
                raise BadMixture(f"index {index} is not nondecreasing")
            if not 0 <= gamma < math.inf:
                raise BadMixture(f"coefficient for {index} must be finite and >= 0")
            key = (degree, tuple(index))
            if key in seen:
                raise BadMixture(f"duplicate coefficient entry {key}")
            seen.add(key)
            exponents[t] = np.bincount(index, minlength=self.r)
            # orbit multiplicity: the index's distinct orderings, k! / prod_s E_ts!
            orbit = math.factorial(degree) // math.prod(map(math.factorial, exponents[t]))
            weights[t] = gamma * gamma * orbit
        object.__setattr__(self, "_exponents", exponents)
        object.__setattr__(self, "_weights", weights)

    @property
    def max_degree(self) -> int:
        """Largest degree among the coefficients, 1 when there are none."""
        return max((degree for degree, _, _ in self.coeffs), default=1)

    @property
    def gamma1(self) -> np.ndarray:
        """Degree-1 coefficient vector (0 where absent)."""
        g = np.zeros(self.r)
        for degree, index, gamma in self.coeffs:
            if degree == 1:
                g[index[0]] = gamma
        return g

    def nondegenerate(self) -> bool:
        """True iff all degree 1, 2, 3 coefficients are strictly positive."""
        present = {(degree, tuple(index)): gamma for degree, index, gamma in self.coeffs}
        return all(present.get((k, idx), 0.0) > 0.0 for k in (1, 2, 3)
                   for idx in combinations_with_replacement(range(self.r), k))


def mixture_from_dict(data: dict) -> MixtureSpec:
    """Build a MixtureSpec from the JSON schema dict (1-based indices)."""
    try:
        r = int(data["r"])
        lam = [float(v) for v in data["lambda"]]
        entries = list(data["gammas"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadMixture(f"malformed mixture data: {exc}") from exc
    if r < 1:
        raise BadMixture("r must be a positive integer")
    coeffs = []
    for entry in entries:
        try:
            degree = int(entry["degree"])
            index = tuple(int(s) - 1 for s in entry["index"])
            gamma = float(entry["gamma"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BadMixture(f"malformed coefficient entry {entry!r}") from exc
        coeffs.append((degree, index, gamma))
    return MixtureSpec(r=r, lam=np.asarray(lam, dtype=float), coeffs=tuple(coeffs))


def mixture_to_dict(spec: MixtureSpec) -> dict:
    return {
        "r": spec.r,
        "lambda": [float(v) for v in spec.lam],
        "gammas": [
            {"degree": degree, "index": [s + 1 for s in index], "gamma": float(gamma)}
            for degree, index, gamma in spec.coeffs
        ],
    }


def load_mixture(path: str) -> MixtureSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadMixture(f"invalid JSON in {path}: {exc}") from exc
    return mixture_from_dict(data)


def eval_xi(spec: MixtureSpec, x):
    """Evaluate xi(x) and its gradient and Hessian; returns ``(value, grad, hess)``.

    With y = lambda * x, exponent matrix E and weights w (see MixtureSpec):

        xi       = sum_t w_t prod_v y_v^{E_tv}
        d_s xi   = lambda_s sum_t w_t E_ts prod_v y_v^{max(E_tv - d_sv, 0)}
        d_su xi  = lambda_s lambda_u sum_t w_t E_ts (E_tu - d_su)
                   prod_v y_v^{max(E_tv - d_sv - d_uv, 0)}

    The clip at 0 only touches exponents whose coefficient is already 0, so
    no negative power of a zero coordinate is ever formed.
    """
    y = spec.lam * as_vector(x, spec.r)
    E, w = spec._exponents, spec._weights
    eye = np.eye(spec.r, dtype=int)
    lower = E[:, None, :] - eye                          # [t, s, v] = E_tv - d_sv
    value = float(np.einsum("t,t->", w, np.prod(y ** E, axis=-1)))
    grad = spec.lam * np.einsum("t,ts,ts->s", w, E,
                                np.prod(y ** np.maximum(lower, 0), axis=-1))
    lower2 = np.maximum(lower[:, :, None, :] - eye, 0)   # [t, s, u, v]
    hess = np.outer(spec.lam, spec.lam) * np.einsum(
        "t,ts,tsu,tsu->su", w, E, lower, np.prod(y ** lower2, axis=-1))
    return value, grad, hess


@dataclass(frozen=True)
class MixtureStats:
    """Derivative data of xi at the all-ones vector."""

    xi_one: float
    xi_prime: np.ndarray
    xi_dprime: np.ndarray
    xi_species: np.ndarray
    lam: np.ndarray
    A: np.ndarray

    @property
    def r(self) -> int:
        return self.xi_prime.shape[0]


def stats(spec: MixtureSpec) -> MixtureStats:
    """Compute xi(1), xi', xi'', xi^s(1), lambda, and A = diag(xi') + xi''."""
    value, grad, hess = eval_xi(spec, np.ones(spec.r))
    return MixtureStats(
        xi_one=value,
        xi_prime=grad,
        xi_dprime=hess,
        xi_species=grad / spec.lam,
        lam=spec.lam.copy(),
        A=np.diag(grad) + hess,
    )


@dataclass(frozen=True)
class SolvabilityReport:
    label: str
    min_eig: float


def classify_solvability(spec: MixtureSpec | MixtureStats) -> SolvabilityReport:
    """Classify by min_eig of diag(xi') - xi'', solvable within SOLVABLE_TOL.

    spec may also be the mixture's MixtureStats, for a caller that holds them.
    """
    st = spec if isinstance(spec, MixtureStats) else stats(spec)
    min_eig = float(np.linalg.eigvalsh(np.diag(st.xi_prime) - st.xi_dprime)[0])
    if min_eig > SOLVABLE_TOL:
        label = "strictly_super_solvable"
    elif min_eig < -SOLVABLE_TOL:
        label = "strictly_sub_solvable"
    else:
        label = "solvable"
    return SolvabilityReport(label=label, min_eig=min_eig)


@dataclass(frozen=True)
class CriticalPrediction:
    """Closed-form statistics of the critical point with sign pattern delta."""

    delta: np.ndarray
    energy: float
    overlap: np.ndarray
    radial: np.ndarray
    v: np.ndarray
    u: np.ndarray


def ideal_stats(spec: MixtureSpec, delta) -> CriticalPrediction:
    """Energy, overlap, radial derivative, and Dyson point for a sign pattern.

    The overlap uses the degree-1 coefficients; mixtures without a degree-1
    part get overlap 0.  Rejects mixtures with any xi'_s <= 0.
    """
    delta = as_signs(delta, spec.r)
    st = stats(spec)
    radial = ideal_radial(st, delta)
    lam = spec.lam
    energy = float(np.sum(delta * np.sqrt(lam * st.xi_prime)))
    overlap = delta * spec.gamma1 / np.sqrt(st.xi_prime)
    v = np.sqrt(lam) * radial
    u = -delta / np.sqrt(st.xi_species)
    return CriticalPrediction(delta=delta, energy=energy, overlap=overlap,
                              radial=radial, v=v, u=u)


def ideal_radial(st: MixtureStats, delta) -> np.ndarray:
    """The radial derivative that ideal_stats predicts for signs delta."""
    if np.any(st.xi_prime <= 0):
        raise ValidationError("ideal points require xi'_s > 0 for every species")
    sq, root_lam = np.sqrt(st.xi_prime), np.sqrt(st.lam)
    return delta * sq + (st.xi_dprime @ (delta * root_lam / sq)) / root_lam


def all_sign_patterns(r: int):
    """All 2^r sign vectors, in lexicographic order starting from all +1."""
    return [np.array(signs) for signs in product((1.0, -1.0), repeat=r)]


def species_sizes(lam, N: int) -> np.ndarray:
    """Apportion N coordinates to species with proportions lam.

    Largest-remainder rounding of lam * N; deterministic, sums to N.
    """
    if not isinstance(N, (int, np.integer)):
        raise ValidationError(f"N must be an integer, not {N!r}")
    lam = np.asarray(lam, dtype=float)
    raw = lam * N
    sizes = np.floor(raw).astype(int)
    short = N - int(sizes.sum())
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    sizes[order[:short]] += 1
    if np.any(sizes < 2):
        raise ValidationError(f"N={N} leaves a species with fewer than 2 coordinates")
    return sizes


def v_star(spec: MixtureSpec, phi_prime) -> np.ndarray:
    """Edge-touching radial point v_* for a descending-path slope phi'(1).

    phi_prime must be positive with <lambda, phi_prime> = 1.
    """
    phi = as_vector(phi_prime, spec.r, "phi_prime")
    if np.any(phi <= 0):
        raise ValidationError("phi_prime must be positive")
    lam = spec.lam
    if abs(float(lam @ phi) - 1.0) > 1e-9:
        raise ValidationError("phi_prime must satisfy <lambda, phi> = 1")
    st = stats(spec)
    slope = (st.xi_dprime @ phi) / lam
    # phi > 0, so the radicand phi / slope has the sign of the slope
    if np.any(slope <= 0):
        raise NegativeRadicand("nonpositive radicand in f_s")
    f = np.sqrt(phi / slope)
    return lam / f + st.xi_dprime @ f
