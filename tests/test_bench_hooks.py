"""The names bench/spans.py wraps must stay on qmono, and the results whose
rows it counts must not be tuples: ``spans._len0`` counts ``out[0]`` of a tuple."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from qmono import bell, measures, monogamy, scan
from qmono.monogamy import delta_d
from qmono.qcore import DensityMatrix, PureState, partial_trace
from qmono.states import ghz_state
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


def test_mk_optimize_looks_its_counted_names_up_once(monkeypatch):
    """bench/spans.py counts ``bell._mk_operator_from_angles`` and spans ``bell.minimize``, so one
    ``mk_optimize`` call must look each up through the module exactly once."""
    calls = []
    for name in ("_mk_operator_from_angles", "minimize"):
        real = getattr(bell, name)
        monkeypatch.setattr(bell, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    bell.mk_optimize(ghz_state(), restarts=3, seed=1)
    assert sorted(calls) == ["_mk_operator_from_angles", "minimize"]


def test_searches_go_through_the_wrapped_name(monkeypatch):
    """bench/spans.py times the searches as ``measures._conditional_entropy_min_traced``, so
    ``delta_d`` must look that name up on ``measures``: once for A:BC of a mixed state whose
    pairs take the Bloch batch, and once per pair of a pure state with a qutrit."""
    calls, real = [], measures._conditional_entropy_min_traced
    monkeypatch.setattr(measures, "_conditional_entropy_min_traced",
                        lambda rho, cut, *a, **k: calls.append(cut.side_two) or real(rho, cut, *a, **k))
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    m = g @ g.conj().T
    delta_d(DensityMatrix(m / np.trace(m).real, (2, 2, 2)), "A", restarts=2)
    assert calls == [("B", "C")]
    delta_d(PureState(rng.standard_normal(12) + 1j * rng.standard_normal(12), (3, 2, 2)), "A", restarts=2)
    assert calls == [("B", "C"), ("B",), ("C",)]


def test_mixed_report_traces_each_marginal_once(monkeypatch):
    """bench/spans.py counts ``partial_trace`` as ``monogamy``'s and ``measures``' name.  A mixed
    three-qubit report traces its 3 sites and 3 pairs once each and reorders once for the
    A:BC search, and its Bloch batch takes the table's nodal-first pair matrices as they are."""
    calls, stacks = [], []
    for module in (monogamy, measures):
        monkeypatch.setattr(module, "partial_trace",
                            lambda rho, keep, _f=module.partial_trace: calls.append(keep) or _f(rho, keep))
    batch = monogamy.conditional_entropy_qubit_batch
    monkeypatch.setattr(monogamy, "conditional_entropy_qubit_batch", lambda rhos: stacks.append(rhos) or batch(rhos))
    rng = np.random.default_rng(5)
    g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    m = g @ g.conj().T
    rho = DensityMatrix(m / np.trace(m).real, (2, 2, 2))
    delta_d(rho, "B", restarts=2)
    assert len(calls) == 7
    table, _ = monogamy._entropy_table(rho, "B", False)
    pairs = [table[frozenset(("B", o))] for o in "AC"]
    assert [p.labels for p in pairs] == [("B", "A"), ("B", "C")]
    assert len(stacks) == 1 and np.array_equal(stacks[0], np.stack([p.matrix for p in pairs]))


def test_identity_reorder_shares_the_state(monkeypatch):
    """``partial_trace`` of every label in order returns ``rho`` itself, so a mixed report at
    nodal A builds 6 ``DensityMatrix`` (3 sites, 3 pairs) while still making 7 calls through
    the names bench/spans.py counts: the A:BC search's reorder is the identity there."""
    rng = np.random.default_rng(6)
    g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    m = g @ g.conj().T
    rho = DensityMatrix(m / np.trace(m).real, (2, 2, 2))
    assert partial_trace(rho, rho.labels) is rho
    assert partial_trace(rho, set(rho.labels)) is rho
    built, calls, post_init = [], [], DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: built.append(1) or post_init(self))
    for module in (monogamy, measures):
        monkeypatch.setattr(module, "partial_trace",
                            lambda rho, keep, _f=module.partial_trace: calls.append(keep) or _f(rho, keep))
    delta_d(rho, "A", restarts=2)
    assert (len(built), len(calls)) == (6, 7)


def test_root_finders_kernel_calls(monkeypatch):
    """``_delta_along`` scores through ``scan.pure_scores_batch``, one call per presample and
    per bisection tree, on the Fig 2 line and a 3 x 3 surface; a surface without a
    crossing costs its presample call only."""
    calls, real = [], scan.pure_scores_batch
    monkeypatch.setattr(scan, "pure_scores_batch", lambda amps: calls.append(len(amps)) or real(amps))
    scan.find_zero_crossings("ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha", 1e-4, np.pi / 2, presample=100)
    assert calls == [100, 63, 63, 63]
    calls.clear()
    scan.surface_zero(np.linspace(0.35, 0.7, 3), np.linspace(0.2, 2.8, 3))
    assert calls == [576, 63, 63, 63, 63, 63, 9]
    calls.clear()
    assert len(scan.surface_zero([0.3], [0.0], alpha_lo=1.4, alpha_hi=1.5)) == 0
    assert calls == [64]
