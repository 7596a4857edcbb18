"""The benchmark's tracer (`perfbench/tracing.py`) wraps kirchheat's
functions at every module that binds them, by name. A binding that is
renamed or no longer imported breaks `perfbench/run.py --trace 1`; this
installs the tracer as the benchmark does and runs one small spectrum
operation under it."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import kirchheat
import kirchheat.cli  # noqa: F401  the tracer wraps bindings in cli too

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_every_binding(monkeypatch):
    tracing = load_tracing(monkeypatch)
    bindings = [(mod, attr) for mod, attr, _ in tracing.SPANS] + tracing.MODEL_CALLS
    originals = {b: getattr(getattr(kirchheat, b[0]), b[1]) for b in bindings}
    tracer = tracing.Tracer()
    try:
        tracer.install(kirchheat)
        spectrum = kirchheat.spectrum
        basis = spectrum.build_basis(spectrum.Domain.rectangle(1.0, 1.7), 12)
        gram = spectrum.gram_matrix(basis)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(getattr(kirchheat, mod), attr) is fn

    spans, counts = tracer.take()
    assert [span[1] for span in spans] == ["spectrum.build_basis", "spectrum.gram"]
    metrics = tracing.op_metrics(spans, counts, 0.0)
    assert metrics["spectrum.quad_nodes"] == basis.quad_weights.size
    assert metrics["spectrum.eigfun_bytes"] == 0  # no (modes x nodes) matrix
    assert np.abs(gram - np.eye(12)).max() <= 1e-12
