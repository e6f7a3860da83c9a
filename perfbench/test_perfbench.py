"""Self-tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/test_perfbench.py -q

The last test runs the batch workload twice (about a minute).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run as bench  # noqa: E402
from loadgen import Outcome  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.core.api import average_rf  # noqa: E402


def _run() -> bench.Run:
    return bench.Run(Namespace(workload="batch_insect", seed=7, seconds=1.0,
                               trace=0))


def test_perturbed_expected_value_is_caught(capsys):
    """One expected value moved by one ulp is a failure and a non-zero exit."""
    trees = inputs.insect_trees(5, 40)
    got = average_rf(trees)  # the default fast path
    expected = inputs.bfhrf_values(trees)
    assert got == expected

    clean = _run()
    clean.check(got, expected)
    clean.metrics = {name: 1.0 for name in bench.E2E_UNITS}
    assert bench.emit(clean) == 0

    perturbed = list(expected)
    perturbed[17] = math.nextafter(perturbed[17], math.inf)
    caught = _run()
    caught.check(got, perturbed)
    caught.metrics = {name: 1.0 for name in bench.E2E_UNITS}
    assert caught.failed == 1
    assert bench.emit(caught) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs_of(seed):
        schedule = inputs.serve_schedule(seed, 130.0, 5.0, 2)
        return (inputs.newick_lines(inputs.insect_trees(seed, 30)),
                [(a.due, a.conn, a.trees) for a in schedule],
                inputs.store_plan(seed))

    first, again, other = inputs_of(3), inputs_of(3), inputs_of(4)
    assert first == again
    for mine, theirs in zip(first, other):
        assert mine != theirs
    # The frame mix is seeded too: roughly one frame in ten is large.
    sizes = [len(trees) for _, _, trees in first[1]]
    assert set(sizes) == {1, inputs.LARGE_FRAME}
    assert 0.03 < sizes.count(inputs.LARGE_FRAME) / len(sizes) < 0.2


def test_store_expected_is_periodic_after_lag():
    plan = inputs.store_plan(1)
    lag, period = plan["lag"], len(plan["batches"])
    table = [[float(k)] for k in range(lag + period)]
    for k in range(lag, lag + 3 * period):
        assert inputs.store_round_expected(table, k, plan) == \
            inputs.store_round_expected(table, k + period, plan)
    assert inputs.store_round_expected(table, 1, plan) == [1.0]


def test_generator_lag_marks_run_invalid():
    on_time = [Outcome(i, intended=i * 0.01, sent=i * 0.01 + 0.001)
               for i in range(300)]
    assert bench.generator_lag(on_time) == pytest.approx(0.001)
    late = [Outcome(i, intended=i * 0.01, sent=i * 0.01 + 0.2)
            for i in range(300)]
    with pytest.raises(bench.InvalidRun):
        bench.generator_lag(late)


def test_self_times_cover_the_root():
    tracer = Tracer("t")
    with tracer.span("root") as root:
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10000))
        with tracer.span("b"):
            sum(range(10000))
    table = tracer.layer_table(root["id"])
    wall = root["end"] - root["start"]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(wall)
    assert table["b"]["calls"] == 2


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
    declared = [w["name"] for w in spec["workloads"]]
    # serve_overload stays runnable by hand but is not declared: its
    # collapse regime is too unsteady for a regression bound.
    assert declared == [w for w in bench.WORKLOADS if w != "serve_overload"]
    predictions = json.loads((HERE / "layers.json").read_text())
    assert set(predictions["per_layer"]) == set(bench.PER_LAYER)


def test_other_seed_same_metric_names():
    names = []
    for seed in (1, 2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "batch_insect", "--seed", str(seed), "--seconds", "1",
             "--trace", "0"], capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        names.append(list(result["metrics"]))
    assert names[0] == names[1] == list(bench.E2E_UNITS)
