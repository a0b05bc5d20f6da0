import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmono
from qmono.cli import _axis_values, main, parse_config_file
from qmono.qcore import DensityMatrix, PureState, UsageError, save_state
from qmono.scan import sample_experiment
from qmono.states import family_state, ghz_state, haar_random_amplitudes


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    save_state(ghz_state(), path)
    return str(path)


class TestHelpers:
    def test_axis_single_value(self):
        assert_allclose(_axis_values("0.5"), [0.5])

    def test_axis_linspace(self):
        assert_allclose(_axis_values("0:1:3"), [0.0, 0.5, 1.0])

    def test_axis_malformed(self):
        for spec in ("0:1", "abc", "0:1:x", "0:b:3", "0:1:2.5", "nan", "0:inf:3"):
            with pytest.raises(UsageError, match=repr(spec)):
                _axis_values(spec)

    def test_config_file_parse(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("seed = 9\n# comment\nepsilon = 1e-3  # trailing\naxis = a=1\naxis = b=2\n")
        assert parse_config_file(str(path)) == [
            ("seed", "9"), ("epsilon", "1e-3"), ("axis", "a=1"), ("axis", "b=2"),
        ]


class TestMeasuresCommand:
    def test_ghz_report(self, ghz_file, capsys):
        code = main(["measures", "--state", ghz_file, "--nodal", "A"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert_allclose(data["delta_D"], 1.0, atol=1e-6)
        assert_allclose(data["S_A"], 1.0, atol=1e-12)

    def test_output_file(self, ghz_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["measures", "--state", ghz_file, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["nodal"] == "A"

    def test_missing_file_numeric_exit(self, tmp_path, capsys):
        code = main(["measures", "--state", str(tmp_path / "nope.json")])
        assert code == 1
        assert "qmono:" in capsys.readouterr().err

    def test_bad_state_numeric_exit(self, tmp_path, capsys):
        # non-PSD matrix must map to exit 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dims": [2], "labels": ["A"],
            "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        }))
        assert main(["measures", "--state", str(bad)]) == 1

    def test_usage_error_exit_two(self, capsys):
        assert main(["measures"]) == 2

    def test_unknown_nodal_usage_error(self, ghz_file, capsys):
        assert main(["measures", "--state", ghz_file, "--nodal", "Z"]) == 2
        assert "unknown party label 'Z'; the parties are ['A', 'B', 'C']" in capsys.readouterr().err

    def test_pure_report_matches_scan_row(self, tmp_path, capsys):
        """A pure three-qubit report and the scan row of the same state print the same digits."""
        point = {"theta": 0.6, "kappa": 2.2, "alpha": 0.9}
        state, out = tmp_path / "sym.json", tmp_path / "scan.csv"
        save_state(family_state("ghz-sym", *point.values()), state)
        assert main(["measures", "--state", str(state)]) == 0
        report = json.loads(capsys.readouterr().out)
        axes = [a for name, v in point.items() for a in ("--axis", f"{name}={v!r}")]
        assert main(["scan", "--family", "ghz-sym", *axes, "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert f"{report['delta_D']:.9g}" == row["delta_D"]
        assert f"{report['delta_C']:.9g}" == row["delta_C"]

    def test_qutrit_nodal_pure_state(self, tmp_path, capsys):
        # the two-party discords keep a qutrit and measure a qubit
        path = tmp_path / "qutrit.json"
        save_state(PureState(haar_random_amplitudes(1, 5, dim=12)[0], (3, 2, 2)), path)
        assert main(["measures", "--state", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["delta_C"] is None

    @pytest.mark.parametrize("nodal", ["B", "C"])
    def test_qubit_nodal_measures_qutrit(self, tmp_path, capsys, nodal):
        # D(nodal, A) measures the qutrit A
        path = tmp_path / "qutrit.json"
        save_state(PureState(haar_random_amplitudes(1, 5, dim=12)[0], (3, 2, 2)), path)
        assert main(["measures", "--state", str(path), "--nodal", nodal, "--restarts", "8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nodal"] == nodal and data["D_A_BC_kernel"] == "pure"


def _entropy(m):
    w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def _wootters_eof(rho):
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
    lam = np.sqrt(np.clip(np.sort(ev.real)[::-1], 0.0, None))
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return _entropy(np.diag([(1 + np.sqrt(1 - c * c)) / 2, (1 - np.sqrt(1 - c * c)) / 2]))


class TestMixedMeasures:
    def test_rank2_d_a_bc_is_koashi_winter(self, tmp_path, capsys):
        """D(A:BC) = S_BC - S_ABC + E_f(rho_AE), E the qubit purifying a rank-2 rho."""
        rng = np.random.default_rng(61)
        for _ in range(5):
            g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
            rho = g @ g.conj().T / np.sum(np.abs(g) ** 2)
            path = tmp_path / "rank2.json"
            save_state(DensityMatrix(rho, (2, 2, 2)), path)
            assert main(["measures", "--state", str(path), "--restarts", "8"]) == 0
            data = json.loads(capsys.readouterr().out)
            psi = (g / np.sqrt(np.sum(np.abs(g) ** 2))).reshape(2, 4, 2)  # [a, bc, e]
            rho_ae = np.einsum("abe,cbf->aecf", psi, psi.conj()).reshape(4, 4)
            s_bc = _entropy(rho.reshape(2, 4, 2, 4).trace(axis1=0, axis2=2))
            want = s_bc - _entropy(rho) + _wootters_eof(rho_ae)
            assert abs(data["D_A_BC"] - want) <= 1e-9
            assert data["D_A_BC_kernel"] == "rank2-koashi-winter"
            assert data["D_A_BC_gap"] is None and data["heuristic"] is True

    def test_rank3_runs_the_search(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        g = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        path = tmp_path / "rank3.json"
        save_state(DensityMatrix(g @ g.conj().T / np.sum(np.abs(g) ** 2), (2, 2, 2)), path)
        assert main(["measures", "--state", str(path), "--restarts", "8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["D_A_BC_kernel"] == "unitary-search" and data["D_A_BC_gap"] >= 0.0

    @pytest.mark.parametrize("nodal", ["B", "C"])
    def test_qutrit_pair_side_numeric_exit(self, tmp_path, capsys, nodal):
        """A mixed [3, 2, 2] state has a report at nodal A only: at B or C, D(A:BC) measures
        a qutrit-qubit pair of dimension 6, which no search takes."""
        rng = np.random.default_rng(63)
        g = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        path = tmp_path / "mixed322.json"
        save_state(DensityMatrix(g @ g.conj().T / np.sum(np.abs(g) ** 2), (3, 2, 2)), path)
        assert main(["measures", "--state", str(path), "--nodal", nodal, "--restarts", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == "qmono: unsupported measured dimension 6 (need 2, 3 or 4)\n"


class TestScanCommand:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main([
            "scan", "--family", "ghz-sym",
            "--axis", "theta=0.785398163:0.785398163:1",
            "--axis", "kappa=0",
            "--axis", "alpha=1.570796327",
            "-o", str(out),
        ])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "family"
        assert len(rows) == 2
        assert float(rows[1][4]) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_axis_usage_error(self, tmp_path):
        code = main([
            "scan", "--family", "ghz-sym", "--axis", "bogus=1",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("spec", ["theta=abc", "theta=0:1:x", "theta=nan"])
    def test_unparsable_axis_usage_error(self, tmp_path, capsys, spec):
        code = main([
            "scan", "--family", "ghz-sym", "--axis", spec, "--axis", "kappa=0",
            "--axis", "alpha=0.5", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert repr(spec.split("=", 1)[1]) in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_axis_without_equals_usage_error(self, tmp_path, capsys):
        code = main([
            "scan", "--family", "ghz-sym", "--axis", "theta0.3", "--axis", "kappa=0",
            "--axis", "alpha=0.5", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "NAME=SPEC" in capsys.readouterr().err


class TestPathCommand:
    def test_rows_and_sign_changes(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code = main(["path", "--id", "ghz", "--resolution", "120", "-o", str(out)])
        assert code == 0
        msg = capsys.readouterr().out
        assert "delta_D sign changes: 3" in msg
        rows = list(csv.reader(out.open()))
        assert len(rows) == 121

    def test_resolution_one_usage_error(self, tmp_path, capsys):
        code = main(["path", "--id", "ghz", "--resolution", "1", "-o", str(tmp_path / "p.csv")])
        assert code == 2
        assert "resolution must be >= 2" in capsys.readouterr().err


class TestSampleCommand:
    def test_summary_line_and_csv(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = main(["sample", "-n", "200", "--seed", "7", "--epsilon", "1e-2", "-o", str(out)])
        assert code == 0
        msg = capsys.readouterr().out
        assert "n=200" in msg and "max_ggm_overall=" in msg
        rows = list(csv.reader(out.open()))
        assert len(rows) == 201

    def test_seed_determinism(self, capsys):
        main(["sample", "-n", "100", "--seed", "5"])
        first = capsys.readouterr().out
        main(["sample", "-n", "100", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_summary_json(self, tmp_path):
        out = tmp_path / "summary.json"
        main(["sample", "-n", "50", "--seed", "1", "--summary-json", str(out)])
        data = json.loads(out.read_text())
        assert data["n"] == 50

    @pytest.mark.parametrize("epsilon", ["0", "1e-2"])  # no state in the band, then some
    def test_summary_json_bytes(self, tmp_path, epsilon):
        out = tmp_path / "summary.json"
        assert main(["sample", "-n", "300", "--seed", "2", "--epsilon", epsilon, "--summary-json", str(out)]) == 0
        summary = sample_experiment(300, 2, epsilon=float(epsilon))
        assert (summary.max_ggm_in_band is None) == (epsilon == "0")
        oracle = io.StringIO()
        json.dump(dataclasses.asdict(summary), oracle, indent=1)
        assert out.read_bytes() == oracle.getvalue().encode()

    def test_zero_samples_usage_error(self, capsys):
        assert main(["sample", "-n", "0"]) == 2
        assert "n must be >= 1" in capsys.readouterr().err


class TestBellCommand:
    def test_ghz_bell(self, ghz_file, capsys):
        code = main(["bell", "--state", ghz_file, "--restarts", "10", "--seed", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert_allclose(data["mk_value"], 2.0, atol=1e-4)
        assert data["violates"] is True
        assert len(data["settings_a"]) == 3


_AMPS = [[1, 0]] + [[0, 0]] * 7
MALFORMED_STATE_FILES = {
    "no-dims": {"amplitudes": _AMPS},
    "flat-amplitudes": {"dims": [2, 2, 2], "amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]},
    "string-entry": {"dims": [2, 2, 2], "amplitudes": [["a", 0]] + _AMPS[1:]},
    "top-level-list": _AMPS,
    "three-numbers": {"dims": [2, 2, 2], "amplitudes": [[1, 0, 0]] + _AMPS[1:]},
    "negative-dims": {"dims": [-1, -1, 1], "matrix": [[[1, 0]]]},
    "null-entry": {"dims": [2, 2, 2], "amplitudes": [[None, 0]] + _AMPS[1:]},
    "nan-entry": {"dims": [2, 2, 2], "amplitudes": [[float("nan"), 0]] + _AMPS[1:]},
    "ragged-matrix": {"dims": [2], "matrix": [[[0.5, 0]], [[0, 0], [0.5, 0]]]},
    "dims-not-a-list": {"dims": 8, "amplitudes": _AMPS},
    "dims-a-string": {"dims": "222", "amplitudes": _AMPS},
    "fractional-dims": {"dims": [2.5, 2, 2], "amplitudes": _AMPS},
    "boolean-dims": {"dims": [True, 2, 2], "amplitudes": _AMPS[:4]},
    "no-state-key": {"dims": [2, 2, 2]},
}


@pytest.mark.parametrize("command", ["measures", "bell"])
@pytest.mark.parametrize("name", sorted(MALFORMED_STATE_FILES))
def test_malformed_state_file_numeric_exit(tmp_path, capsys, command, name):
    """A state file that is not a state is exit 1 with one 'qmono:' line, never a traceback."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_STATE_FILES[name]))
    assert main([command, "--state", str(path), "--restarts", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qmono: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


class TestRestartsUsageError:
    """--restarts below 1 leaves no optimizer start: a usage error, not a traceback."""

    @pytest.fixture
    def commands(self, ghz_file, tmp_path):
        mixed = tmp_path / "mixed.json"
        save_state(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), mixed)
        out = str(tmp_path / "out.csv")
        return [
            ["bell", "--state", ghz_file],
            ["path", "--id", "ghz", "--mk", "optimize", "--resolution", "2", "-o", out],
            ["scan", "--family", "ghz-sym", "--mk", "optimize", "--axis", "theta=0.3",
             "--axis", "kappa=0", "--axis", "alpha=1", "-o", out],
            ["measures", "--state", str(mixed)],
        ]

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_flag(self, commands, restarts, capsys):
        for argv in commands:
            assert main(argv + ["--restarts", restarts]) == 2
            assert f"restarts must be >= 1, got {restarts}" in capsys.readouterr().err

    def test_config_file(self, commands, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("restarts = 0\n")
        for argv in commands:
            assert main(argv + ["--config", str(conf)]) == 2
            assert "restarts must be >= 1" in capsys.readouterr().err

    def test_one_restart_runs(self, ghz_file, capsys):
        assert main(["bell", "--state", ghz_file, "--restarts", "1"]) == 0
        assert_allclose(json.loads(capsys.readouterr().out)["mk_value"], 2.0, atol=1e-9)


class TestSeedUsageError:
    """A negative --seed is a usage error on every subcommand that takes one, before numpy
    sees it, also where nothing random runs (a pure state's report, closed-form MK)."""

    @pytest.fixture
    def commands(self, ghz_file, tmp_path):
        out = str(tmp_path / "out.csv")
        return [
            ["measures", "--state", ghz_file],
            ["scan", "--family", "ghz-sym", "--mk", "closed", "--axis", "theta=0.3",
             "--axis", "kappa=0", "--axis", "alpha=1", "-o", out],
            ["path", "--id", "ghz", "--mk", "optimize", "--resolution", "2", "-o", out],
            ["sample", "-n", "3"],
            ["bell", "--state", ghz_file],
        ]

    def test_flag(self, commands, tmp_path, capsys):
        for argv in commands:
            assert main(argv + ["--seed", "-1"]) == 2
            assert capsys.readouterr() == ("", "qmono: seed must be >= 0, got -1\n")
        assert not (tmp_path / "out.csv").exists()

    def test_config_file(self, commands, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("seed = -5\n")
        for argv in commands:
            assert main(argv + ["--config", str(conf)]) == 2
            assert capsys.readouterr() == ("", "qmono: seed must be >= 0, got -5\n")

    def test_seed_zero_runs(self, capsys):
        assert main(["sample", "-n", "3", "--seed", "0"]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["surface", "--theta", "0.4", "--kappa", "1", "--xtol", "0"], "xtol must be"),
        (["surface", "--theta", "0.4", "--kappa", "1", "--xtol", "-1"], "xtol must be"),
        (["surface", "--theta", "0.4", "--kappa", "1", "--xtol", "inf"], "xtol must be"),
        (["sample", "-n", "3", "--epsilon", "-1"], "epsilon must be"),
        (["path", "--id", "ghz", "--resolution", "2", "--epsilon", "nan"], "epsilon must be"),
        (["scan", "--family", "ghz-sym", "--axis", "theta=0.3", "--axis", "kappa=0",
          "--axis", "alpha=1", "--epsilon", "inf"], "epsilon must be"),
        (["scan", "--family", "path-ghz", "--mk", "closed", "--axis", "mu=0.3"],
         "closed-form MK is defined for the ghz-sym family only"),
    ],
    # each case keeps the id it was given when its message still named the flag
    ids=[*(f"argv{i}---xtol must be" for i in range(3)), *(f"argv{i}---epsilon must be" for i in range(3, 6)),
         "argv6---mk closed is defined for the ghz-sym family only"],
)
def test_out_of_range_tolerance_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestSurfaceCommand:
    def test_single_point(self, tmp_path):
        out = tmp_path / "surface.csv"
        code = main(["surface", "--theta", "0.4", "--kappa", "1.0", "-o", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 2
        assert 0.4 < float(rows[1][2]) < 0.7  # alpha_star of the Fig-2 line


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("n = 60\nseed = 3\n")
        code = main(["sample", "--config", str(conf), "-n", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n=40" in out  # flag wins over config
        assert "seed=3" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("bogus = 1\n")
        code = main(["sample", "--config", str(conf), "-n", "10"])
        assert code == 2
        assert "--bogus" in capsys.readouterr().err

    def test_unreadable_file_usage_error(self, tmp_path, capsys):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"\xff\xfe n = 3\n")
        for path in (tmp_path / "missing.cfg", binary):
            assert main(["sample", "--config", str(path), "-n", "3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("qmono: cannot read config file") and str(path) in err

    def test_unconvertible_value_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("n = abc\n")
        assert main(["sample", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert "-n" in err and "'abc'" in err

    def test_choices_checked(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("mk = bogus\n")
        argv = ["scan", "--family", "ghz-sym", "--axis", "theta=0.3", "--axis", "kappa=0",
                "--axis", "alpha=1", "-o", str(tmp_path / "x.csv"), "--config", str(conf)]
        assert main(argv) == 2
        assert "'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_required_options_from_config(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("n = 5\nsummary_json = %s\n" % (tmp_path / "s.json"))
        assert main(["sample", "--config", str(conf)]) == 0
        assert "n=5 " in capsys.readouterr().out
        conf.write_text("family = ghz-sym\naxis = theta=0.3\no = %s\n" % (tmp_path / "x.csv"))
        assert main(["scan", "--config", str(conf), "--axis", "kappa=0", "--axis", "alpha=1"]) == 0
        assert len(list(csv.reader((tmp_path / "x.csv").open()))) == 2

    def test_every_axis_from_config(self, tmp_path, capsys):
        # each 'axis = ...' line is its own --axis flag, so the file alone names all three
        conf = tmp_path / "conf"
        conf.write_text("family = ghz-sym\naxis = theta=0.3\naxis = kappa=0\naxis = alpha=1\n"
                        "o = %s\n" % (tmp_path / "from_config.csv"))
        assert main(["scan", "--config", str(conf)]) == 0
        flags = ["scan", "--family", "ghz-sym", "--axis", "theta=0.3", "--axis", "kappa=0",
                 "--axis", "alpha=1", "-o", str(tmp_path / "from_flags.csv")]
        assert main(flags) == 0
        written = [(tmp_path / f"from_{src}.csv").read_bytes() for src in ("config", "flags")]
        assert written[0] == written[1] and written[0].count(b"\n") == 2

    def test_equals_form_and_abbreviation(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("seed = 7\n")
        for flag in ([f"--config={conf}"], ["--conf", str(conf)]):
            assert main(["sample", "-n", "5", *flag]) == 0
            assert "seed=7 " in capsys.readouterr().out

    def test_config_without_path_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("seed = 7\n")
        for _ in range(2):  # the one pre-parser keeps nothing from a call
            assert main(["sample", "-n", "5", "--config"]) == 2
            assert "--config: expected one argument" in capsys.readouterr().err
            assert main(["sample", "-n", "5", "--conf", str(conf)]) == 0
            assert "seed=7 " in capsys.readouterr().out

    def test_value_with_leading_dash(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("kappa = -1:1:3\n")
        out = tmp_path / "surface.csv"
        assert main(["surface", "--theta", "0.4", "--config", str(conf), "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out and out.exists()

    @pytest.mark.parametrize("key", ["help", "config"])
    def test_help_and_config_keys_rejected(self, tmp_path, capsys, key):
        conf = tmp_path / "conf"
        conf.write_text(f"{key} = 1\n")
        assert main(["sample", "-n", "5", "--config", str(conf)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_flag_wins_before_or_after(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("n = 60\nseed = 3\n")
        for argv in (["--seed", "4", "--config", str(conf)], ["--config", str(conf), "--seed", "4"]):
            assert main(["sample", *argv]) == 0
            assert "n=60 seed=4 " in capsys.readouterr().out

    def test_values_do_not_carry_over(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("seed = 7\n")
        assert main(["sample", "-n", "5", "--config", str(conf)]) == 0
        assert "seed=7 " in capsys.readouterr().out
        assert main(["sample", "-n", "5"]) == 0
        assert "seed=0 " in capsys.readouterr().out


class TestTopLevel:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "qmono 0.1.0" in capsys.readouterr().out

    def test_help_every_subcommand(self, capsys):
        for name in ("measures", "scan", "surface", "path", "sample", "bell"):
            assert main([name, "--help"]) == 0
            assert "usage" in capsys.readouterr().out

    def test_console_entry_point(self):
        res = subprocess.run(
            [sys.executable, "-m", "qmono.cli", "--version"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert "qmono" in res.stdout


def _scipy_loaded(commands):
    """Run each argv through ``qmono.cli.main`` in one fresh interpreter.

    Returns the exit codes, and whether any ``scipy`` module was imported after
    ``import qmono`` and after the commands.
    """
    script = (
        "import json, sys\n"
        "def scipy_loaded():\n"
        "    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "import qmono\n"
        "bare = scipy_loaded()\n"
        "from qmono.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, bare, scipy_loaded()]))\n"
    )
    src = str(Path(qmono.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(res.stdout.splitlines()[-1])


class TestLazyScipyImport:
    """scipy is a test-only dependency: no command may import it."""

    def test_closed_form_commands_skip_it(self, ghz_file, tmp_path):
        out = str(tmp_path)
        codes, bare, after = _scipy_loaded([
            ["sample", "-n", "20", "-o", f"{out}/sample.csv", "--summary-json", f"{out}/s.json"],
            ["scan", "--family", "ghz-sym", "--mk", "closed", "--axis", "theta=0:0.8:2",
             "--axis", "kappa=0", "--axis", "alpha=0:1.5:3", "-o", f"{out}/scan.csv"],
            ["surface", "--theta", "0.4", "--kappa", "1", "-o", f"{out}/surface.csv"],
            ["measures", "--state", ghz_file, "-o", f"{out}/measures.json"],
        ])
        assert codes == [0, 0, 0, 0]
        assert not bare
        assert not after

    def test_polishes_skip_it(self, ghz_file, tmp_path):
        # the MK polish (bell, path and scan) and the U(d) polish (a rank-4 state)
        g = np.random.default_rng(63).standard_normal((8, 4, 2)) @ [1, 1j]
        rank4 = tmp_path / "rank4.json"
        save_state(DensityMatrix(g @ g.conj().T / np.sum(np.abs(g) ** 2), (2, 2, 2)), rank4)
        out = str(tmp_path)
        codes, bare, after = _scipy_loaded([
            ["bell", "--state", ghz_file, "--restarts", "2", "-o", f"{out}/bell.json"],
            ["path", "--id", "ghz", "--mk", "optimize", "--resolution", "2", "-o", f"{out}/path.csv"],
            ["scan", "--family", "ghz-sym", "--mk", "optimize", "--axis", "theta=0.3",
             "--axis", "kappa=0", "--axis", "alpha=1", "-o", f"{out}/scan.csv"],
            ["measures", "--state", str(rank4), "--restarts", "2", "-o", f"{out}/measures.json"],
        ])
        assert codes == [0, 0, 0, 0]
        assert not bare
        assert not after
        report = json.loads(Path(f"{out}/measures.json").read_text())
        assert report["D_A_BC_kernel"] == "unitary-search"
