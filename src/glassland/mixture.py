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
from itertools import combinations_with_replacement

import numpy as np

from .errors import BadMixture, DegreeTooHigh, NegativeRadicand, ValidationError

MAX_DEGREE = 6          # library-wide cap on mixture degree
LAMBDA_SUM_TOL = 1e-12

__all__ = [
    "MixtureSpec", "MixtureStats", "SolvabilityReport", "CriticalPrediction",
    "load_mixture", "mixture_from_dict", "mixture_to_dict", "eval_xi",
    "stats", "classify_solvability", "ideal_stats", "v_star",
    "all_sign_patterns",
]


def _orbit_multiplicity(index: tuple[int, ...]) -> int:
    # number of distinct orderings of the multi-index: k! / prod_s (count_s!)
    k = len(index)
    mult = math.factorial(k)
    for s in set(index):
        mult //= math.factorial(index.count(s))
    return mult


@dataclass(frozen=True)
class MixtureSpec:
    """Mixture function data.

    Attributes
    ----------
    r : int
        Number of species.
    lam : ndarray, shape (r,)
        Species weights, positive, summing to 1.
    coeffs : tuple of (degree, index, gamma)
        One entry per orbit representative.  ``index`` is a nondecreasing
        tuple of 0-based species labels of length ``degree``; ``gamma`` is
        the nonnegative coefficient.
    max_degree : int
        Largest degree appearing.
    """

    r: int
    lam: np.ndarray
    coeffs: tuple[tuple[int, tuple[int, ...], float], ...]
    max_degree: int
    # per-entry (counts vector, gamma^2 * multiplicity), precomputed for evaluation
    _terms: tuple[tuple[np.ndarray, float], ...] = field(repr=False, default=())

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (self.r,):
            raise BadMixture(f"lambda must have length r={self.r}")
        if np.any(lam <= 0):
            raise BadMixture("all species weights must be positive")
        if abs(lam.sum() - 1.0) > LAMBDA_SUM_TOL:
            raise BadMixture(f"species weights sum to {lam.sum()!r}, not 1")
        object.__setattr__(self, "lam", lam)
        seen = set()
        terms = []
        for degree, index, gamma in self.coeffs:
            if degree < 1 or degree != len(index):
                raise BadMixture(f"degree {degree} does not match index {index}")
            if degree > MAX_DEGREE:
                raise DegreeTooHigh(f"degree {degree} exceeds cap {MAX_DEGREE}")
            if any(s < 0 or s >= self.r for s in index):
                raise BadMixture(f"species label out of range in {index}")
            if tuple(index) != tuple(sorted(index)):
                raise BadMixture(f"index {index} is not nondecreasing")
            if gamma < 0:
                raise BadMixture(f"negative coefficient for {index}")
            key = (degree, tuple(index))
            if key in seen:
                raise BadMixture(f"duplicate coefficient entry {key}")
            seen.add(key)
            counts = np.zeros(self.r, dtype=int)
            for s in index:
                counts[s] += 1
            terms.append((counts, gamma * gamma * _orbit_multiplicity(tuple(index))))
        object.__setattr__(self, "_terms", tuple(terms))

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
        present = {}
        for degree, index, gamma in self.coeffs:
            present[(degree, tuple(index))] = gamma
        for k in (1, 2, 3):
            for idx in combinations_with_replacement(range(self.r), k):
                if present.get((k, idx), 0.0) <= 0.0:
                    return False
        return True


def mixture_from_dict(data: dict) -> MixtureSpec:
    """Build a MixtureSpec from the JSON schema dict (1-based indices)."""
    try:
        r = int(data["r"])
        lam = [float(v) for v in data["lambda"]]
        entries = data["gammas"]
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
    max_degree = max((c[0] for c in coeffs), default=1)
    return MixtureSpec(r=r, lam=np.asarray(lam, dtype=float),
                       coeffs=tuple(coeffs), max_degree=max_degree)


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


def eval_xi(spec: MixtureSpec, x, order: int = 2):
    """Evaluate xi(x) and its first/second derivatives.

    Returns ``(value, grad, hess)``; ``grad`` is None for order 0 and
    ``hess`` is None for order < 2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.r,):
        raise ValidationError(f"x must have shape ({spec.r},)")
    if not np.all(np.isfinite(x)):
        raise ValidationError("x must be finite")
    y = spec.lam * x
    r = spec.r
    value = 0.0
    grad = np.zeros(r) if order >= 1 else None
    hess = np.zeros((r, r)) if order >= 2 else None
    for counts, weight in spec._terms:
        # product over species of y_s^{c_s}, plus versions with one or two powers removed
        term = weight
        for s in range(r):
            c = counts[s]
            if c:
                term *= y[s] ** c
        value += term
        if order == 0:
            continue
        for s in range(r):
            cs = counts[s]
            if cs == 0:
                continue
            dterm = weight * cs * spec.lam[s] * _safe_pow(y[s], cs - 1)
            for t in range(r):
                if t != s and counts[t]:
                    dterm *= y[t] ** counts[t]
            grad[s] += dterm
            if order < 2:
                continue
            for t in range(s, r):
                ct = counts[t]
                if t == s:
                    if cs < 2:
                        continue
                    h = weight * cs * (cs - 1) * spec.lam[s] ** 2 * _safe_pow(y[s], cs - 2)
                    for w in range(r):
                        if w != s and counts[w]:
                            h *= y[w] ** counts[w]
                else:
                    if ct == 0:
                        continue
                    h = (weight * cs * ct * spec.lam[s] * spec.lam[t]
                         * _safe_pow(y[s], cs - 1) * _safe_pow(y[t], ct - 1))
                    for w in range(r):
                        if w != s and w != t and counts[w]:
                            h *= y[w] ** counts[w]
                hess[s, t] += h
                if t != s:
                    hess[t, s] += h
    return value, grad, hess


def _safe_pow(base: float, exp: int) -> float:
    if exp == 0:
        return 1.0
    return base ** exp


@dataclass(frozen=True)
class MixtureStats:
    """Derivative data of xi at the all-ones vector."""

    xi_one: float
    xi_prime: np.ndarray
    xi_dprime: np.ndarray
    xi_species: np.ndarray
    Lambda: np.ndarray
    A: np.ndarray

    @property
    def r(self) -> int:
        return self.xi_prime.shape[0]

    @property
    def lam(self) -> np.ndarray:
        return np.diag(self.Lambda)


def stats(spec: MixtureSpec) -> MixtureStats:
    """Compute xi(1), xi', xi'', xi^s(1), Lambda, and A = diag(xi') + xi''."""
    value, grad, hess = eval_xi(spec, np.ones(spec.r), order=2)
    return MixtureStats(
        xi_one=value,
        xi_prime=grad,
        xi_dprime=hess,
        xi_species=grad / spec.lam,
        Lambda=np.diag(spec.lam),
        A=np.diag(grad) + hess,
    )


@dataclass(frozen=True)
class SolvabilityReport:
    label: str
    min_eig: float
    tol: float


def classify_solvability(spec: MixtureSpec, tol: float = 1e-9) -> SolvabilityReport:
    """Classify the mixture by the smallest eigenvalue of diag(xi') - xi''."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    st = stats(spec)
    min_eig = float(np.linalg.eigvalsh(np.diag(st.xi_prime) - st.xi_dprime)[0])
    if min_eig > tol:
        label = "strictly_super_solvable"
    elif min_eig < -tol:
        label = "strictly_sub_solvable"
    else:
        label = "solvable"
    return SolvabilityReport(label=label, min_eig=min_eig, tol=tol)


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
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (spec.r,) or not np.all(np.abs(delta) == 1.0):
        raise ValidationError("delta must be a vector of +-1 of length r")
    st = stats(spec)
    if np.any(st.xi_prime <= 0):
        raise ValidationError("ideal_stats requires xi'_s > 0 for every species")
    lam = spec.lam
    sq = np.sqrt(st.xi_prime)
    energy = float(np.sum(delta * np.sqrt(lam * st.xi_prime)))
    overlap = delta * spec.gamma1 / sq
    radial = delta * sq + (st.xi_dprime @ (delta * np.sqrt(lam) / sq)) / np.sqrt(lam)
    v = np.sqrt(lam) * radial
    u = -delta / np.sqrt(st.xi_species)
    return CriticalPrediction(delta=delta, energy=energy, overlap=overlap,
                              radial=radial, v=v, u=u)


def all_sign_patterns(r: int):
    """All 2^r sign vectors, in lexicographic order starting from all +1."""
    out = []
    for bits in range(2 ** r):
        out.append(np.array([1.0 if not (bits >> (r - 1 - s)) & 1 else -1.0
                             for s in range(r)]))
    return out


def species_sizes(lam, N: int) -> np.ndarray:
    """Apportion N coordinates to species with proportions lam.

    Largest-remainder rounding of lam * N; deterministic, sums to N.
    """
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
    phi = np.asarray(phi_prime, dtype=float)
    if phi.shape != (spec.r,):
        raise ValidationError("phi_prime must be an r-vector")
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
