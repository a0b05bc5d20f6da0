"""The names bench/spans.py wraps must stay on qmono, and the results whose
rows it counts must not be tuples: ``spans._len0`` counts ``out[0]`` of a tuple."""

import importlib
import importlib.util
import sys
from pathlib import Path

from qmono import scan
from qmono.scan import grid_scan, path_trace, sample_experiment

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up while building the classes
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_instrumented_name_resolves():
    missing = [
        f"qmono.{module}.{attr}"
        for module, attr, *_ in spans.INSTRUMENTS
        if not hasattr(importlib.import_module(f"qmono.{module}"), attr)
    ]
    assert not missing


def test_row_counted_results_are_not_tuples():
    table = grid_scan("ghz-sym", [("theta", [0.2, 0.4]), ("kappa", [0.0, 1.0, 2.0]), ("alpha", [0.5])])
    path = path_trace("w-ghz", 7, mk_mode="skip")
    for out, rows in ((table, 6), (path, 7)):
        assert not isinstance(out, tuple)
        assert len(out) == rows
        assert spans._len0((), out) == rows


def test_kernel_calls_go_through_the_wrapped_name(monkeypatch):
    """bench/spans.py times the kernel as ``scan.pure_scores_batch``, so every kernel
    call of ``grid_scan`` and ``sample_experiment`` must look that name up."""
    calls, real = [], scan.pure_scores_batch
    monkeypatch.setattr(scan, "pure_scores_batch", lambda amps: calls.append(len(amps)) or real(amps))
    grid_scan("ghz-sym", [("theta", [0.2, 0.4]), ("kappa", [0.0, 1.0, 2.0]), ("alpha", [0.5])])
    assert calls == [6]
    sample_experiment(scan._CHUNK + 10, seed=1)
    assert calls == [6, scan._CHUNK, 10]
