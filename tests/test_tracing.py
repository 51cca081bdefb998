"""The benchmark's tracer (perfbench/tracing.py) still sees every layer it
measures: a call site renamed in the package fails here instead of making a
per-layer metric read 0."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import rvqlab
from rvqlab import harness, loss, skew
from rvqlab.harness import ExperimentConfig

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("preset,sizes,tasks,calls,codewords", [
    # 4 rank profiles x bits 1-2; 2 channels x 4 codebooks << b per task
    ("fig4b", dict(bits_range=[1, 2], trials={"channels": 2, "codebooks": 4}),
     8, {"loss.avg_delta_mi": 8}, 4 * (8 << 1) + 4 * (8 << 2)),
    # bits 1-2, three optimized skews designed once before the tasks run
    ("fig6d", dict(bits_range=[1, 2],
                   trials={"channels": 2, "codebooks": 4, "samples": 16}),
     2, {"harness.skew_candidates_avg": 2, "skew.optimize_skew_a1": 3},
     (8 << 1) + (8 << 2)),
])
def test_tracer_sees_the_harness_layers(tmp_path, preset, sizes, tasks, calls,
                                        codewords):
    tracer = tracing.Tracer(rvqlab)
    with tracer:
        tracer.run_span(harness.run, ExperimentConfig(
            experiment=preset, seed=3, output_dir=str(tmp_path), **sizes))
    names = Counter(s.name for s in tracer.spans)
    assert names["harness.task"] == tasks
    for name, n in calls.items():
        assert names[name] == n, name
    for s in tracer.spans:
        if s.layer == "mc":
            assert s.parent.name == "harness.task"
    metrics, _ = tracing.layer_metrics(tracer.spans, tracer.root)
    assert metrics["mc.codewords"] == codewords
    # every patch is undone on exit
    assert not hasattr(loss.avg_delta_mi, "__wrapped__")
    assert not hasattr(skew.optimize_skew_a1, "__wrapped__")
