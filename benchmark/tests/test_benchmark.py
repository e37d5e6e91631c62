"""Tests of the benchmark itself: run with ``python -m pytest benchmark/tests``."""

import importlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from dblinst.errors import HomSetNotFinite
from dblinst.fixtures import (category_as_model, chain_category,
                              walking_tight_model)
from dblinst.model import enumerate_model_morphisms

import gen
import harness
import oracles
import spans
from workloads import cli, closure

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["closure", "joins", "search", "cli"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_runs_a_tiny_pass_without_failures(name, tmp_path):
    workload = importlib.import_module("workloads." + name)
    ops, _ = workload.build(random.Random(1), str(tmp_path))
    record = harness.RunRecord(ops)
    tiny = harness.first_of_each_kind(ops)
    harness.run_pass(tiny, record)
    assert record.failures == {}
    assert record.attempted() == len(tiny)


def test_the_seed_sets_inputs_but_not_sizes(tmp_path):
    def wiring(seed):
        return gen.fold_morphism(random.Random(seed), 5, 4, 3, 2, 2).on_loose["l"]

    assert wiring(1) == wiring(1) != wiring(2)
    shapes = [[(op.kind, op.shape) for op in
               closure.build(random.Random(seed), str(tmp_path))[0]]
              for seed in (1, 2)]
    assert shapes[0] == shapes[1]


def test_every_break_runs_once_and_the_cpus_are_restored():
    cpus = os.sched_getaffinity(0)
    calls = []
    ops = [harness.Op("test.noop", {}, lambda: None)]
    record = harness.run(ops, 0.05, 3,
                         breaks=[(0.0, lambda: calls.append(0)),
                                 (60.0, lambda: calls.append(1))])
    assert sorted(calls) == [0, 1]
    assert record.attempted() >= 3
    assert os.sched_getaffinity(0) == cpus


def test_an_op_latency_is_its_mean_over_the_passes():
    passes = [harness.PassRecord(False, 0.0, [3.0, 1.0]),
              harness.PassRecord(False, 0.0, [2.0, 5.0])]
    assert harness.op_latencies(passes) == [2.5, 3.0]


def test_wrong_expected_answers_count_as_failed():
    x = category_as_model(chain_category(2))
    ops = [
        # chain(2) has 3 arrows, not 4
        closure._close_op("test.wrong_count", x, {"N": 2}, 4, 4),
        # a result where a typed error is expected
        harness.Op("test.missing_error", {}, lambda: 1,
                   expect_error=HomSetNotFinite),
        # an untyped exception
        harness.Op("test.crash", {}, lambda: {}["missing"]),
        # exit code 2 from a crash (a missing file), not from the typed error
        cli._op("test.untyped_exit_2", {}, ["validate-model", "missing.json"],
                2, error="found 'instance'"),
        # the right answer still passes
        closure._close_op("test.right_count", x, {"N": 2}, 4, 3),
    ]
    record = harness.RunRecord(ops)
    harness.run_pass(ops, record)
    kinds = sorted(kind for kind, _ in record.failures)
    assert kinds == ["test.crash", "test.missing_error", "test.untyped_exit_2",
                     "test.wrong_count"]
    assert record.failed() == 4 and record.attempted() == 5


def test_model_isomorphism_oracle_rejects_a_non_bijective_morphism():
    x = walking_tight_model(["a", "b"], ["u", "v"], {"a": "u", "b": "v"})
    y = walking_tight_model(["ra", "rb"], ["u", "v"], {"ra": "u", "rb": "v"})
    found = enumerate_model_morphisms(x, y)
    verdicts = sorted(oracles.is_model_isomorphism(f, x, y) for f in found)
    # everything to (ra, u), everything to (rb, v), and two isomorphisms
    # (the identity on bot, and the swap of u and v)
    assert verdicts == [False, False, True, True]


def test_child_self_time_never_exceeds_parent_duration(tmp_path):
    ops, _ = closure.build(random.Random(1), str(tmp_path))
    migrations = [op for op in ops if op.kind.endswith("_ctx")]
    tracer = spans.Tracer()
    record = harness.RunRecord(migrations)
    with tracer:
        harness.run_pass(migrations, record, tracer=tracer)
    assert record.failures == {}
    own = tracer.self_times()
    nested = 0
    for i, span in enumerate(tracer.spans):
        parent = span[3]
        assert own[i] >= -1e-9
        if parent < 0:
            continue
        nested += 1
        p = tracer.spans[parent]
        assert p[1] <= span[1] and span[2] <= p[2]
        assert own[i] <= p[2] - p[1]
    assert nested > 0
    # uninstalled: the library runs its own functions again
    from dblinst import migration
    assert not hasattr(migration.migrate_lan, "__wrapped__")


def test_traced_metrics_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ops, _ = closure.build(random.Random(1), str(tmp_path))
    tracer = spans.Tracer()
    with tracer:
        harness.run_pass(harness.first_of_each_kind(ops), harness.RunRecord(ops),
                         tracer=tracer)
    produced = set(tracer.metrics()) | {"trace.overhead", "known_defect.failures"}
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
