"""Tests of the benchmark's own code: python3 -m pytest bench"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qmono import bell, cli, measures, monogamy, scan  # noqa: E402
from qmono.qcore import DensityMatrix  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
from workloads import check_mixed_report, check_scores, read_csv, run_cli, write_state  # noqa: E402


def _basis(*idx):
    amps = np.zeros(8, dtype=complex)
    amps[list(idx)] = 1.0
    return amps / np.linalg.norm(amps)


def test_reference_known_values():
    ghz = ref.scores(ref.GHZ[None])
    assert ghz["delta_D"][0] == pytest.approx(1.0, abs=1e-12)
    assert ghz["ggm"][0] == pytest.approx(0.5, abs=1e-12)
    w = ref.scores(_basis(1, 2, 4)[None])
    assert w["delta_C"][0] == pytest.approx(0.0, abs=1e-12)
    assert w["delta_D"][0] < -0.1
    plus = np.kron(np.kron([1, 1], [1, 1j]), [1, 0]) / 2
    for product in (_basis(0), plus):
        s = ref.scores(np.asarray(product, dtype=complex)[None])
        for key in ("delta_D", "delta_C", "ggm", "C_AB", "C_AC"):
            assert s[key][0] == pytest.approx(0.0, abs=1e-12), key
    assert ref.mk_fixed_lower_bound(ref.GHZ) == pytest.approx(2.0, abs=1e-12)


def test_reference_states_match_families():
    rows = np.array([[0.4, 1.0, 0.7], [0.1, 5.0, 1.2]])
    np.testing.assert_allclose(ref.ghz_sym(*rows.T), scan.family_states("ghz-sym", rows), atol=1e-14)
    for path, family in (("ghz", "path-ghz"), ("w-ghz", "path-w-ghz")):
        mu = np.array([0.0, 0.6, np.pi / 2])
        np.testing.assert_allclose(ref.path_states(path, mu), scan.family_states(family, mu[:, None]), atol=1e-14)


def _rewrite(path, row, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_corrupted_sample_row_fails(tmp_path):
    out = tmp_path / "rows.csv"
    run_cli(cli, ["sample", "-n", 16, "--seed", 5, "-o", out])
    exact = ref.scores(ref.haar(16, 5))
    assert check_scores(read_csv(out), exact, 1e-3) == []
    cols = read_csv(out)
    _rewrite(out, 3, "delta_D", f"{float(cols['delta_D'][3]) + 1e-4:.9g}")
    assert any("delta_D above" in e for e in check_scores(read_csv(out), exact, 1e-3))
    run_cli(cli, ["sample", "-n", 16, "--seed", 5, "-o", out])
    _rewrite(out, 7, "ggm", "0.25")
    assert any("GGM" in e for e in check_scores(read_csv(out), exact, 1e-3))
    run_cli(cli, ["sample", "-n", 16, "--seed", 5, "-o", out])
    _rewrite(out, 2, "zero_band", "true")
    assert any("zero_band" in e for e in check_scores(read_csv(out), exact, 1e-3))


def test_corrupted_mixed_report_fails(tmp_path):
    rho = ref.ginibre_state(3)
    report = monogamy.delta_d(DensityMatrix(rho, (2, 2, 2)), "A", restarts=2).to_dict()
    assert check_mixed_report(report, rho) == []
    bad = dict(report, S_cond_AB=report["S_A"] + 0.1)
    assert check_mixed_report(bad, rho)
    bad = dict(report, delta_D=report["delta_D"] + 1e-6)
    assert check_mixed_report(bad, rho)


def _traced_counts(tmp_path):
    tracer = spans.Tracer()
    modules = {"cli": cli, "scan": scan, "bell": bell, "measures": measures, "monogamy": monogamy}
    state = tmp_path / "mixed.json"
    write_state(state, rho=ref.ginibre_state(4))
    tracer.install(modules)
    try:
        for args in (("ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha", 1e-4, np.pi / 2),
                     ("path-w-ghz", {}, "tau", 0.0, np.pi / 2)):
            scan.find_zero_crossings(*args, presample=100)
        run_cli(cli, ["surface", "--theta", "0.5:0.7:2", "--kappa", "0:1:2", "-o", tmp_path / "s.csv"])
        run_cli(cli, ["path", "--id", "ghz", "--mk", "optimize", "--restarts", 2, "--resolution", 2,
                      "-o", tmp_path / "p.csv"])
        run_cli(cli, ["measures", "--state", state, "--restarts", 2, "-o", tmp_path / "m.json"])
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans, 3, 0.0)
    exact = ["scan.find_zero_crossings.kernel_calls_per_line", "scan.find_zero_crossings.states_per_line",
             "scan.surface_zero.states_per_cell", "bell.mk_optimize.objective_evals_per_call",
             "measures.dim4.objective_evals_per_call", "qcore.partial_trace.calls_per_op"]
    return {k: m[k] for k in exact}


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, second = _traced_counts(tmp_path), _traced_counts(tmp_path)
    assert first == second
    assert all(v > 0 for v in first.values()), first
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")
