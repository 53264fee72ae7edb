"""Benchmark entry point: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 30 --trace 0

The workload's fixed operation list runs back to back, pass after pass,
while another pass still fits in ``--seconds`` (at least two passes).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by one pass under the tracer,
and the last line carries the per-layer metrics instead.  The line before it is the run
record.  Both, and the spans of a traced pass, are also written to
``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is first imported; one thread keeps a
# single closed-loop client on one core of a shared machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402  (fails when src/ is missing: no result)
from tracer import RATIOS, Tracer  # noqa: E402

ROOT = workloads.ROOT
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 2
# a run must end within 180 s: no further pass starts when it would end past
# this many seconds of passes, even below MIN_PASSES
PASS_CAP = 110
SETUP_TARGETS = (("hamiltonian", "sample"),)
PROBE_TIMEOUT = 60
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "fraction"}


@dataclass
class Measurement:
    end_to_end: dict
    per_layer: dict
    record: dict
    inputs: object
    outcomes: list


def setup_time(workload: str, seed: int, size: str) -> tuple:
    """(set-up seconds, reference kernel seconds) of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         size],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True)
    setup_s, ref_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(ref_s)


def _traced(tracer, fn, *args):
    if tracer is None:
        return fn(*args)
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def _pass(inp, tracer=None):
    """Run the operation list once; checks run after the clock and tracer stop."""
    start = perf_counter()
    outcomes = _traced(tracer, workloads.run_ops, inp)
    wall = perf_counter() - start
    workloads.check(inp, outcomes)
    return wall, outcomes


def _calibrated_pass(inp):
    """A pass with the reference kernel sampled before each operation and
    after the last; returns the outcomes and the ``(passes, seconds)``
    samples."""
    refs = []
    outcomes = workloads.run_ops(inp, between=lambda prev: refs.append(
        reference.sample(prev.seconds if prev else 0.0)))
    workloads.check(inp, outcomes)
    return outcomes, refs


def _failures(outcomes):
    return [(oc.label, oc.error or oc.problems) for oc in outcomes if oc.failed]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> Measurement:
    """Run the workload and compute both metric sets and the run record.

    Untraced passes repeat while another fits in ``seconds``, at least
    MIN_PASSES of them; a traced run makes one untraced pass, for the
    overhead, and one traced pass.  The machine is shared and its speed
    drifts for longer than a run, so both times are taken relative to
    ``reference.kernel`` timed in between (see reference.py).  ``wall_s``
    is the mean over passes of the summed operation times, over the mean
    kernel time of every reference sample of those passes, times
    ``reference.NOMINAL_S``.
    ``setup_s`` is the median, over fresh interpreters spread through the
    run (before each pass and after the last), of set-up time over the
    reference time in the same interpreter, times ``reference.NOMINAL_S``.
    The raw times are in the run record.
    """
    # hamiltonian.sample runs only in set-up, so a traced run traces the
    # in-process set-up for it
    setup_tracer = Tracer(SETUP_TARGETS) if trace else None
    inp = _traced(setup_tracer, workloads.setup, workload, seed, size)
    setups, passes, failures = [], [], []
    budget_start = perf_counter()
    while True:
        setups.append(setup_time(workload, seed, size))
        start = perf_counter()
        outcomes, refs = _calibrated_pass(inp)
        wall = perf_counter() - start
        passes.append((outcomes, refs))
        failures += _failures(outcomes)
        next_end = perf_counter() - budget_start + wall
        if (trace or next_end > PASS_CAP
                or (len(passes) >= MIN_PASSES and next_end > seconds)):
            break
    setups.append(setup_time(workload, seed, size))
    attempted = sum(len(ocs) for ocs, _ in passes)
    op_seconds = [[oc.seconds for oc in ocs] for ocs, _ in passes]
    pass_walls = [sum(times) for times in op_seconds]
    run_ref = reference.seconds([ref for _, refs in passes for ref in refs])
    wall_s = reference.NOMINAL_S * statistics.fmean(pass_walls) / run_ref
    pass_wall = statistics.median(pass_walls)

    per_layer, traced = {}, None
    if trace:
        tracer = Tracer()
        traced_wall, traced_outcomes = _pass(inp, tracer)
        attempted += len(traced_outcomes)
        failures += _failures(traced_outcomes)
        per_layer = tracer.metrics(traced_wall)
        per_layer.update((k, v) for k, v in setup_tracer.metrics(0.0).items()
                         if k.startswith("hamiltonian.sample."))
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - pass_wall
        layers = {k.split(".")[1]: v for k, v in per_layer.items()
                  if k.startswith("layer.")}
        traced = {
            "largest_self_layer": max(layers, key=layers.get),
            "layer_self_s": layers,
            "absent": sorted({f"{m}.{f}" for m, f in tracer.targets}
                             - set(tracer.present)),
        }
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl")

    failed = len(failures)
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": reference.NOMINAL_S * statistics.median(
            setup / ref for setup, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (attempted - failed) / attempted,
    }
    record = {
        "workload": workload, "seed": seed, "size": size,
        "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [[label, str(why)] for label, why in failures],
        "ops": [oc.label for oc in outcomes],
        "op_seconds_per_pass": op_seconds,
        "pass_wall_s": pass_walls,
        "raw_wall_s": pass_wall,
        "reference_mean_s": run_ref,
        "reference_samples_per_pass": [refs for _, refs in passes],
        "setup_samples_s": [setup for setup, _ in setups],
        "setup_reference_s": [ref for _, ref in setups],
        "reference_nominal_s": reference.NOMINAL_S,
        "traced": traced,
        **machine_record(),
    }
    return Measurement(end_to_end, per_layer, record, inp, outcomes)


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def metric_unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name in RATIOS:
        return "ratio"
    return "count"


def result_line(m: Measurement, trace: bool) -> str:
    chosen = m.per_layer if trace else m.end_to_end
    return json.dumps({
        "correct": m.record["failed"] == 0,
        "attempted": m.record["attempted"],
        "failed": m.record["failed"],
        "metrics": {k: {"value": v, "unit": metric_unit(k)}
                    for k, v in chosen.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Pinned to one CPU, inherited by the set-up probes: the operations and
    # the reference kernel they are divided by (reference.py) then run on
    # the same core.  On the shared 2-vCPU machine one core flipped between
    # a fast and a slow state every few seconds while the other stayed steady.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**m.record, "end_to_end": m.end_to_end, "per_layer": m.per_layer}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"run_record": m.record}))
    print(result_line(m, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
