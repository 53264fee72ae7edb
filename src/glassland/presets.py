"""Named example mixtures used by the tests and the benchmark workloads."""

from __future__ import annotations

import numpy as np

from .mixture import MixtureSpec


def one_species_quadratic() -> MixtureSpec:
    # xi(t) = 2t + 0.5 t^2, so xi' = 3 and xi'' = 1
    return MixtureSpec(
        r=1, lam=np.array([1.0]),
        coeffs=((1, (0,), np.sqrt(2.0)), (2, (0, 0), np.sqrt(0.5))),
    )


def symmetric_pair() -> MixtureSpec:
    # r=2, lambda=(1/2,1/2), gamma_1^2=5, gamma_ss^2=2, gamma_12^2=1:
    # xi' = (4,4), xi'' = [[1,1/2],[1/2,1]]
    s5, s2 = np.sqrt(5.0), np.sqrt(2.0)
    return MixtureSpec(
        r=2, lam=np.array([0.5, 0.5]),
        coeffs=(
            (1, (0,), s5), (1, (1,), s5),
            (2, (0, 0), s2), (2, (0, 1), 1.0), (2, (1, 1), s2),
        ),
    )


def skew_pair() -> MixtureSpec:
    # r=2, lambda=(0.3,0.7), xi' = (4.5,4.5), xi'' = [[1,2.4],[2.4,1]]
    lam = np.array([0.3, 0.7])
    g11 = np.sqrt(1.0 / (2 * lam[0] ** 2))
    g22 = np.sqrt(1.0 / (2 * lam[1] ** 2))
    g12 = np.sqrt(2.4 / (2 * lam[0] * lam[1]))
    g1 = np.sqrt(1.1 / lam[0])
    g2 = np.sqrt(1.1 / lam[1])
    return MixtureSpec(
        r=2, lam=lam,
        coeffs=(
            (1, (0,), g1), (1, (1,), g2),
            (2, (0, 0), g11), (2, (0, 1), g12), (2, (1, 1), g22),
        ),
    )


def cubic_pair() -> MixtureSpec:
    # r=2, lambda=(1/2,1/2), gamma^(1)=(1,1), all gamma^(2)=1, all gamma^(3)=0.2:
    # xi(x) = 0.5 S + 0.25 S^2 + 0.005 S^3 with S = x1 + x2
    coeffs = [(1, (0,), 1.0), (1, (1,), 1.0)]
    for a in range(2):
        for b in range(a, 2):
            coeffs.append((2, (a, b), 1.0))
    for a in range(2):
        for b in range(a, 2):
            for c in range(b, 2):
                coeffs.append((3, (a, b, c), 0.2))
    return MixtureSpec(r=2, lam=np.array([0.5, 0.5]), coeffs=tuple(coeffs))


def pure(p: int) -> MixtureSpec:
    # xi(t) = t^p
    return MixtureSpec(r=1, lam=np.array([1.0]), coeffs=((p, (0,) * p, 1.0),))


def three_species() -> MixtureSpec:
    # r=3, lambda=(0.2,0.3,0.5), unit external field, all gamma^(2)=0.8
    coeffs = [(1, (s,), 1.0) for s in range(3)]
    for a in range(3):
        for b in range(a, 3):
            coeffs.append((2, (a, b), 0.8))
    return MixtureSpec(r=3, lam=np.array([0.2, 0.3, 0.5]), coeffs=tuple(coeffs))


def single_species(gammas) -> MixtureSpec:
    """One-species mixture from a coefficient list (gamma_1, gamma_2, ...)."""
    coeffs = tuple((k + 1, (0,) * (k + 1), float(g))
                   for k, g in enumerate(gammas) if g != 0.0)
    return MixtureSpec(r=1, lam=np.array([1.0]), coeffs=coeffs)


PRESETS = {
    "one-species-quadratic": one_species_quadratic,
    "symmetric-pair": symmetric_pair,
    "skew-pair": skew_pair,
    "cubic-pair": cubic_pair,
    "pure3": lambda: pure(3),
    "pure4": lambda: pure(4),
    "three-species": three_species,
}


def get_preset(name: str) -> MixtureSpec:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
