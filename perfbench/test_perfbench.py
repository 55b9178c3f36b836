"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import time
import types

import pytest

import run
import workloads
from qelmkit import elevator, harness, qelm, quantum, stats
from tracer import Tracer

SPEC = json.loads((workloads.REPO / "BENCHMARK.json").read_text())
TINY_SWEEP = workloads.SweepWorkload("tiny-sweep", ("FS2", "FS3a"), repetitions=3,
                                     setup_repeats=2)
TINY_SERVE = workloads.ServeWorkload("tiny-serve", setup_repeats=2)


@pytest.fixture(scope="module")
def serve_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve")
    workloads.prepare_serve(1, directory, feature_set="FS2")
    return directory


def _contexts(tmp_path, serve_dir, reference=(None, None)):
    return [(TINY_SWEEP, TINY_SWEEP.prepare(1, tmp_path / "sweep", reference[0])),
            (TINY_SERVE, TINY_SERVE.prepare(1, serve_dir, reference[1]))]


def test_every_named_metric_is_emitted(tmp_path, serve_dir):
    for workload, ctx in _contexts(tmp_path, serve_dir):
        metrics, runs, _ = run.collect(workload, ctx, 0.0, False, SPEC)
        assert all(metrics[m["name"]][2] == m["unit"] for m in SPEC["end_to_end"])
        assert all(value > 0 for value, n, unit in metrics.values())
        assert all(r.failed == 0 and r.attempted > 0 for r in runs)

        traced, runs, _ = run.collect(workload, ctx, 0.0, True, SPEC)
        assert list(traced) == [m["name"] for m in SPEC["per_layer"]]
        # the traced half passes the same correctness check
        assert all(r.failed == 0 and r.attempted > 0 for r in runs)
        if workload is TINY_SWEEP:
            # a sweep exercises every per-layer metric (overhead may come
            # out at or below zero on a tiny run)
            ran = {name for name, (value, _, _) in traced.items() if value}
            assert ran | {"trace.overhead_pct"} == set(traced)


def test_corrupted_reference_counts_as_failed(tmp_path, serve_dir):
    sweep_ctx = TINY_SWEEP.prepare(1, tmp_path / "sweep", None)
    sweep_ref = TINY_SWEEP.reference_of(sweep_ctx, TINY_SWEEP.setup(sweep_ctx))
    serve_ctx = TINY_SERVE.prepare(1, serve_dir, None)
    serve_ref = TINY_SERVE.reference_of(serve_ctx, TINY_SERVE.setup(serve_ctx))

    # the untouched references pass
    for workload, ctx in _contexts(tmp_path, serve_dir, (sweep_ref, serve_ref)):
        assert workloads.measure(workload, ctx, 0.0).failed == 0

    first_cell = next(iter(sweep_ref["cells"]))
    sweep_ref["cells"][first_cell][1] *= 1.001
    serve_ref["predictions"]["HAAR"][5] += 1e-3
    for workload, ctx in _contexts(tmp_path, serve_dir, (sweep_ref, serve_ref)):
        result = workloads.measure(workload, ctx, 0.0)
        assert result.failed == 1, result.failures
        assert 0 < result.failed / result.attempted < 1


def test_raising_pass_counts_as_failed():
    class Broken:
        name, setup_repeats = "broken", 1

        def setup(self, ctx):
            return None

        def run_pass(self, ctx, state, result, tracer=None):
            raise ValueError("boom")

    metrics, runs, _ = run.collect(Broken(), None, 0.0, False, SPEC)
    assert metrics == {}
    assert runs[0].attempted == runs[0].failed == 1 and "boom" in runs[0].failures[0]


def test_tracer_restores_every_attribute():
    modules = {"elevator": elevator, "quantum": quantum, "qelm": qelm,
               "stats": stats, "harness": harness}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    pipeline_before = dict(vars(qelm.Pipeline))
    tracer = Tracer(modules, {"qelm.Pipeline": qelm.Pipeline})
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert quantum.haar_unitary is not before["quantum"]["haar_unitary"]
            quantum.haar_unitary(4, seed=1)
            1 / 0
    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        assert all(after[k] is v for k, v in before[name].items()), name
    assert all(vars(qelm.Pipeline)[k] is v for k, v in pipeline_before.items())
    assert tracer.stats["quantum.haar_unitary"][0] == 1


def test_tracer_self_time_and_missing_functions():
    layer = types.ModuleType("fake_layer")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        layer.inner()

    inner.__module__ = outer.__module__ = layer.__name__
    layer.inner, layer.outer = inner, outer
    tracer = Tracer({"fake": layer})
    with tracer.installed():
        layer.outer()
    calls, total, self_s = tracer.stats["fake.outer"]
    assert calls == 1 and tracer.stats["fake.inner"][0] == 1
    assert self_s == pytest.approx(total - tracer.stats["fake.inner"][1])
    assert 0.005 < self_s < total
    # a function the module does not have is simply absent: it reads as 0
    assert "fake.gone" not in tracer.stats
    assert tracer.num_spans == 2
