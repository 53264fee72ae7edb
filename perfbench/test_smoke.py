"""Smoke test of the benchmark at tiny sizes.  Nothing here is timed.

It checks that every metric BENCHMARK.json names is reported with its unit,
that the traced self times add up to the traced wall time, that each output
check rejects a deliberately wrong value (so a pass fraction of 1 is not
true by construction), and that the benchmark refuses to run without the
package sources.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=workloads.NAMES)
def measured(request):
    return run.measure(request.param, seed=3, seconds=0.0, trace=True,
                       size="tiny")


def _units(block):
    return {m["name"]: m["unit"] for m in SPEC[block]}


def test_every_metric_is_reported(measured):
    assert {k: run.metric_unit(k) for k in measured.end_to_end} == _units("end_to_end")
    assert {k: run.metric_unit(k) for k in measured.per_layer} == _units("per_layer")
    for trace in (False, True):
        line = json.loads(run.result_line(measured, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1


def test_tiny_outputs_pass_their_checks(measured):
    assert measured.record["failures"] == []
    assert measured.end_to_end["pass_frac"] == 1.0


def test_self_times_add_up_to_traced_wall(measured):
    layer = measured.per_layer
    self_sum = sum(v for k, v in layer.items() if k.startswith("layer."))
    assert self_sum + layer["trace.outside_s"] == pytest.approx(
        layer["trace.wall_s"], abs=1e-9)
    assert layer["trace.outside_s"] >= 0.0


def test_times_are_in_reference_seconds(measured):
    rec = measured.record
    samples = [s for refs in rec["reference_samples_per_pass"] for s in refs]
    # one sample before each operation and one after the last
    assert len(samples) == len(rec["op_seconds_per_pass"][0]) + 1
    assert measured.end_to_end["wall_s"] == pytest.approx(
        reference.NOMINAL_S * statistics.fmean(rec["pass_wall_s"])
        / reference.seconds(samples))
    ratios = [s / r for s, r in zip(rec["setup_samples_s"],
                                    rec["setup_reference_s"])]
    assert measured.end_to_end["setup_s"] == pytest.approx(
        reference.NOMINAL_S * statistics.median(ratios))


def test_reference_sample_covers_its_share():
    passes, seconds = reference.sample(after_s=2.0)
    assert passes >= reference.MIN_PASSES
    assert seconds >= reference.SHARE * 2.0


def _fails_after(measured, index, output):
    """Re-check the outcomes with one output swapped; return the failed labels."""
    outcomes = [workloads.Outcome(oc.label, output=oc.output)
                for oc in measured.outcomes]
    outcomes[index].output = output
    workloads.check(measured.inputs, outcomes)
    return [oc.label for oc in outcomes if oc.failed]


def _wrong_outputs(workload, outcomes):
    """(index, deliberately wrong output) pairs, one per kind of check."""
    if workload == "scan-grid":
        scan = outcomes[0].output
        return [(0, replace(scan, F_values=scan.F_values + 1e-3)),
                (0, replace(scan, boundary_mask=~scan.boundary_mask))]
    if workload == "point-solves":
        labels = [oc.label.split()[0] for oc in outcomes]
        census = labels.index("census")
        psi = labels.index("psi")
        closed, quad = outcomes[psi].output
        bad_census = [replace(p, residual=1e-3) for p in outcomes[census].output]
        value, x = outcomes[-1].output
        return [(psi, (closed, quad + 2e-4)),
                (census, bad_census),
                (len(outcomes) - 1, (value - 1e-6, x))]
    first = outcomes[0].output
    twin = replace(outcomes[1].output, sigma_star=first.sigma_star)
    flipped = tuple(-d for d in first.delta)
    return [(0, replace(first, index=first.index + 1)),
            (0, replace(first, grad_norm=1e-6)),
            (0, replace(first, delta=flipped)),
            (1, twin)]


def test_wrong_values_fail_their_checks(measured):
    outcomes = measured.outcomes
    for index, wrong in _wrong_outputs(measured.inputs.workload, outcomes):
        assert _fails_after(measured, index, wrong) == [outcomes[index].label]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "scan-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_renamed_function_is_reported_absent():
    tracer = Tracer(targets=(("dyson", "no_such_function"),))
    tracer.install()
    tracer.uninstall()
    assert tracer.present == []
    assert not any(k.startswith("dyson.no_such_function")
                   for k in tracer.metrics(0.0))
