"""The benchmark's own tests: a tiny-size run of each workload, the result
format against BENCHMARK.json, and the tracer leaving flowlab as it was.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_result_lines():
    assert _declared("end_to_end") == {
        name: unit for name, unit, shown in bench.END_TO_END if shown}
    assert _declared("per_layer") == {
        name: unit for name, unit, shown in bench.PER_LAYER if shown}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    result, record, tracer = bench.run_benchmark(
        name, seed=3, seconds=0, trace=1, work=tmp_path / "work", tiny=True)
    assert record["passes"] == 3 and record["traced_passes"] == 1
    assert result["correct"] and result["failed"] == 0, record["checks"]
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared(
        "per_layer")
    # every named metric is printed, including those left out of the line
    printed = set(record["metrics"])
    assert {n for n, _, _ in bench.PER_LAYER} <= printed
    assert {n for n, _, shown in bench.END_TO_END if shown} <= printed
    assert "fail_ratio" in printed
    assert "trace/wrappers_restored" not in record["checks"]["failures"]
    assert record["checks"]["failures"] == []
    assert tracer.spans and all(end >= start for _, start, end, _ in tracer.spans)


def test_tiny_untraced_run_reports_end_to_end(tmp_path):
    result, record, tracer = bench.run_benchmark(
        "adv-analytic", seed=5, seconds=0, trace=0, work=tmp_path / "work",
        tiny=True)
    assert tracer is None and record["passes"] == 2
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared(
        "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_wraps_every_binding_and_restores_them():
    package = bench.import_flowlab()
    before = tracing.bindings(package)
    distill = sys.modules["flowlab.distill"]
    netcore = sys.modules["flowlab.netcore"]
    with tracing.Tracer(package) as tracer:
        # the name distill bound at import is wrapped, not just the original
        assert distill.forward is not before[("flowlab.distill", "forward")]
        assert netcore.forward is not before[("flowlab.netcore", "forward")]
        params = netcore.init_params(netcore.MlpSpec((5, 4, 2)))
        distill.distill_grads(params, [[0.0, 0.0]], [0.5], [[0.0, 0.0]])
    after = tracing.bindings(package)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = [name for name, *_ in tracer.spans]
    assert "distill.distill_grads" in names and "netcore.forward" in names
    calls, total, own = tracer.summary()["distill.distill_grads"]
    assert calls == 1 and 0.0 <= own <= total
