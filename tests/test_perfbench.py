"""The benchmark's traced split still finds every layer it names."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"


def test_every_span_name_resolves(monkeypatch):
    # `Tracer.installed()` skips a target whose attribute is gone, so a
    # refactor could drop a layer from `--trace 1` with no error
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    names = {name for _, _, name, _ in spans.TARGETS}
    resolved = {
        name
        for module, attr, name, _ in spans.TARGETS
        if hasattr(importlib.import_module(module), attr)
    }
    assert resolved == names


def test_recorded_batch_size_is_the_run_batch_size(monkeypatch):
    # perfbench/run.py records this expression as the provenance field
    # "mc_batch_size"; a run of one path more than it builds two batches
    expression = 'getattr(fracvol.MCConfig(paths=2), "batch_size", None)'
    assert expression in RUN.read_text()
    import fracvol
    import fracvol.pricing as pricing

    recorded = eval(expression)
    counts = []
    real = pricing.w_increments

    def counting(scenario, seed, start, count):
        counts.append(count)
        return real(scenario, seed, start, count)

    monkeypatch.setattr(pricing, "w_increments", counting)
    monkeypatch.setattr(pricing, "_last_run", None)
    scenario = fracvol.constant_vol_scenario(steps=2)
    pricing.physical_terminal_sample(scenario, fracvol.MCConfig(paths=recorded + 1, seed=3))
    assert counts == [recorded, 1]


def _load(name, monkeypatch):
    """perfbench/<name>.py, imported for one test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_workloads_run_in_process(tmp_path, monkeypatch):
    # a benchmark run fails if a workload's set-up, request or check raises, as
    # it would after a change to the package drops an argument `warm()` passes
    spans, workloads = _load("spans", monkeypatch), _load("workloads", monkeypatch)
    for name, make in workloads.WORKLOADS.items():
        workload = make(tiny=True)
        workload.setup(spans.NullTracer())
        out_dir = tmp_path / name
        raw = workload.request(workloads.request_seed(3, 0), out_dir)
        assert workload.check(raw, out_dir).failure is None
