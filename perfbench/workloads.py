"""The three benchmark workloads: inputs, operations and output checks.

A workload is built in three steps.  ``setup`` generates every input from
the workload seed (x points, Hamiltonian seeds, check points) and does the
set-up work a user pays once per process: building the preset mixtures,
their ``mixture.stats`` and the sampled Hamiltonians.  ``run_ops`` executes
the workload's fixed list of operations and returns one ``Outcome`` per
operation.  ``check`` then compares each outcome against an independent
evaluation or an invariant from the paper, with the tolerances the
repository's tests use.

Every call into glassland goes through a module attribute
(``complexity.scan``, never a name bound by ``from ... import``), so the
tracer in ``tracer.py`` sees it.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# measure the checkout's own sources, never an installed copy
if not (SRC / "glassland").is_dir():
    raise SystemExit(f"glassland sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from glassland import complexity, dyson, hamiltonian, landscape, mixture, presets  # noqa: E402

NAMES = ("scan-grid", "point-solves", "finite-n")

# tolerances shared with the tier-1 tests
SCAN_TOL = 1e-5          # test_scan_matches_pointwise_F
PSI_TOL = 1e-4           # test_psi_modes_agree
CENSUS_RESIDUAL = 1e-6   # test_census_*: stationarity residual
SUP_SLACK = 1e-9         # sup F may not fall below the best census value
PSI_BOX = 0.5            # psi points are drawn from [-PSI_BOX, PSI_BOX]^r

SUP_PRESET = "symmetric-pair"

# Full sizes are the benchmark; "tiny" is for the smoke test only.  A full
# pass takes 5-21 s on one core, so a run holds two to four passes.  Below
# N=200 the skew-pair homotopy loses track for some seeds (LostTrack at
# N=150), so finite-n keeps that size.
SIZES = {
    "full": {
        "scan": (("skew-pair", 101), ("three-species", 21)),
        "scan_checks": 8,
        "census_presets": ("symmetric-pair", "skew-pair", "three-species"),
        "psi_presets": ("three-species",),
        "sup_multistart": 32,
        "instances": (("skew-pair", 200), ("cubic-pair", 120)),
        "follow_steps": 40,
    },
    "tiny": {
        "scan": (("skew-pair", 9), ("three-species", 5)),
        "scan_checks": 3,
        "census_presets": ("symmetric-pair",),
        "psi_presets": ("symmetric-pair",),
        "sup_multistart": 4,
        "instances": (("skew-pair", 60), ("cubic-pair", 40)),
        "follow_steps": 6,
    },
}


@dataclass
class Outcome:
    """One operation: its label, its output, and why it failed, if it did."""

    label: str
    output: object = None
    error: str | None = None
    problems: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class Inputs:
    workload: str
    seed: int
    size: dict
    stats: dict
    plan: dict


def setup(workload: str, seed: int, size: str = "full") -> Inputs:
    """Generate the workload's inputs from the seed and build its models."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choices: {NAMES}")
    cfg = SIZES[size]
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    specs = {name: presets.get_preset(name) for name in presets.PRESETS}
    stats = {name: mixture.stats(spec) for name, spec in specs.items()}
    plan = {}
    if workload == "scan-grid":
        for name, n in cfg["scan"]:
            r = specs[name].r
            plan[name] = [tuple(int(i) for i in rng.integers(0, n, size=r))
                          for _ in range(cfg["scan_checks"])]
    elif workload == "point-solves":
        for name in cfg["psi_presets"]:
            r = specs[name].r
            # In this box the measure's support is one interval (checked on
            # the symmetric, skew and three-species presets), so every
            # spectral_measure bisects exactly two endpoints; further out a
            # second band can appear and double the cost for some seeds.
            plan[name] = rng.uniform(-PSI_BOX, PSI_BOX, size=r)
    else:
        plan["instances"] = [
            hamiltonian.sample(specs[name], N,
                               seed=int(rng.integers(2 ** 63)))
            for name, N in cfg["instances"]
        ]
    return Inputs(workload=workload, seed=seed, size=cfg, stats=stats,
                  plan=plan)


def _attempt(label, fn, *args, **kwargs) -> Outcome:
    start = perf_counter()
    try:
        out = Outcome(label, output=fn(*args, **kwargs))
    except Exception as exc:  # an operation that raises counts as failed
        out = Outcome(label, error=f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    out.seconds = perf_counter() - start
    return out


def operations(inp: Inputs) -> list:
    """The workload's fixed operation list: (label, function, args, kwargs)."""
    cfg = inp.size
    ops = []
    if inp.workload == "scan-grid":
        for name, n in cfg["scan"]:
            ops.append((f"scan {name} {n}^r", complexity.scan,
                        (inp.stats[name], n), {}))
    elif inp.workload == "point-solves":
        for name in cfg["census_presets"]:
            ops.append((f"census {name}", complexity.find_stationary_points,
                        (inp.stats[name],), {}))
        for name in cfg["psi_presets"]:
            ops.append((f"psi {name}", _psi_pair,
                        (inp.stats[name], inp.plan[name]), {}))
        # sup_F keeps its default start seed: its L-BFGS cost ranged from 2.1
        # to 3.6 s between start sets, which would swamp run-to-run changes
        ops.append((f"sup_F {SUP_PRESET}", complexity.sup_F,
                    (inp.stats[SUP_PRESET],),
                    {"multistart": cfg["sup_multistart"]}))
    else:
        for inst in inp.plan["instances"]:
            for delta in mixture.all_sign_patterns(inst.mixture.r):
                ops.append((f"follow N={inst.N} r={inst.mixture.r} "
                            f"delta={tuple(int(d) for d in delta)}",
                            landscape.follow_critical_points, (inst, delta),
                            {"steps": cfg["follow_steps"]}))
    return ops


def run_ops(inp: Inputs, between=None) -> list:
    """Execute the workload's fixed operation list once.

    ``between``, if given, is called with the previous operation's
    ``Outcome`` (None before the first) before each operation and after the
    last, outside every operation's clock.
    """
    out = []
    for label, fn, args, kwargs in operations(inp):
        if between is not None:
            between(out[-1] if out else None)
        out.append(_attempt(label, fn, *args, **kwargs))
    if between is not None:
        between(out[-1] if out else None)
    return out


def _psi_pair(stats, x):
    return (dyson.psi(stats, x, mode="closed_form"),
            dyson.psi(stats, x, mode="quadrature"))


def check(inp: Inputs, outcomes: list) -> None:
    """Fill in ``problems`` for every outcome whose output is wrong."""
    if inp.workload == "scan-grid":
        for (name, _), oc in zip(inp.size["scan"], outcomes):
            if oc.error is None:
                oc.problems += check_scan(inp.stats[name], oc.output,
                                          inp.plan[name])
    elif inp.workload == "point-solves":
        census = {}
        for oc in outcomes:
            if oc.error is not None:
                continue
            kind, name = oc.label.split()[:2]
            if kind == "census":
                census[name] = oc.output
                oc.problems += check_census(oc.output)
            elif kind == "psi":
                oc.problems += check_psi(*oc.output)
            elif name in census:
                oc.problems += check_sup(oc.output[0], census[name])
            else:
                oc.problems.append("no census to compare sup F against")
    else:
        start = 0
        for inst in inp.plan["instances"]:
            patterns = mixture.all_sign_patterns(inst.mixture.r)
            group = outcomes[start:start + len(patterns)]
            start += len(patterns)
            predictions = [mixture.ideal_stats(inst.mixture, d)
                           for d in patterns]
            done = [oc for oc in group if oc.error is None]
            for oc in done:
                oc.problems += check_critical_point(inst, oc.output,
                                                    predictions)
            for i in check_distinct(inst, [oc.output for oc in done]):
                done[i].problems.append("coincides with another followed point")


def check_scan(stats, result, points) -> list:
    """scan's F and nonreal mask against F_point at seeded grid points."""
    problems = []
    for idx in points:
        x = np.array([result.grid[s][i] for s, i in enumerate(idx)])
        pt = complexity.F_point(stats, x)
        gap = abs(float(result.F_values[idx]) - pt.F)
        if not gap <= SCAN_TOL:
            problems.append(f"F at {idx} off by {gap:.3e}")
        if bool(result.boundary_mask[idx]) != (not pt.u_real):
            problems.append(f"nonreal mask wrong at {idx}")
    return problems


def check_census(points) -> list:
    if not points:
        return ["census found no stationary point"]
    worst = max(p.residual for p in points)
    return [] if worst < CENSUS_RESIDUAL else [
        f"census stationarity residual {worst:.3e}"]


def check_psi(closed, quad) -> list:
    gap = abs(closed - quad)
    return [] if gap < PSI_TOL else [f"psi modes differ by {gap:.3e}"]


def check_sup(value, census) -> list:
    best = max(p.F for p in census)
    return [] if value >= best - SUP_SLACK else [
        f"sup F {value!r} below census maximum {best!r}"]


def check_critical_point(inst, res, predictions) -> list:
    """Converged, with the predicted index and the nearest predicted radial."""
    problems = []
    part = inst.partition
    delta = np.asarray(res.delta, dtype=float)
    if not res.grad_norm <= landscape.NEWTON_TOL:
        problems.append(f"grad_norm {res.grad_norm:.3e} above tolerance")
    expected = int(np.sum((part.sizes - 1)[delta < 0]))
    if res.index != expected:
        problems.append(f"index {res.index}, expected {expected}")
    dists = [float(np.max(np.abs(res.radial - p.radial))) for p in predictions]
    nearest = predictions[int(np.argmin(dists))].delta
    if not np.array_equal(nearest, delta):
        problems.append(f"nearest radial prediction is {nearest}, not {delta}")
    return problems


def check_distinct(inst, results) -> list:
    """Indices of results that lie within the dedup radius of an earlier one."""
    radius = landscape.DEDUP_RADIUS * np.sqrt(inst.N)
    clashes = []
    for i, a in enumerate(results):
        for b in results[:i]:
            if np.linalg.norm(a.sigma_star.sigma - b.sigma_star.sigma) <= radius:
                clashes.append(i)
                break
    return clashes
