"""Each bad input the library and the CLI reject, with its exception type and message."""

import re

import numpy as np
import pytest

from qmono.bell import MKSettings
from qmono.cli import main
from qmono.measures import DiscordResult, MeasurementBasis, OptimizerTrace, ggm, unitary_from_angles
from qmono.monogamy import delta_c, delta_d
from qmono.qcore import DensityMatrix, PureState, state_to_dict
from qmono.scan import find_zero_crossings, grid_scan, path_trace, prop4_check, sample_experiment
from qmono.states import GHZClassParams, family_states

Z, X = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
GHZ_SYM_AXES = [("theta", [0.3]), ("kappa", [0.0]), ("alpha", [0.5])]
W_AXES = [(n, [0.5]) for n in ("theta1", "theta2", "theta3", "phi1", "phi2", "phi3")]

LIBRARY = {
    "mk-settings-empty": (lambda: MKSettings((), ()), "need matching nonempty direction lists"),
    "mk-settings-unequal": (lambda: MKSettings((Z, Z), (X,)), "need matching nonempty direction lists"),
    "mk-settings-2-vectors": (lambda: MKSettings((Z[:2],), (X[:2],)), "directions must be 3-vectors"),
    "mk-settings-angles": (lambda: MKSettings.from_angles(np.zeros(6)), "need 4 angles per party"),
    "basis-projector-count": (lambda: MeasurementBasis(("B",), (np.eye(2),)), "need 2 projectors for dimension 2"),
    "discord-not-i-minus-j": (
        lambda: DiscordResult(1.0, 0.5, 0.0, 0.0, None, OptimizerTrace(0, 0.0, "pure")), "discord != I - J",
    ),
    "unitary-angle-count": (lambda: unitary_from_angles(np.zeros(11)), "expected 12 angles"),
    "ggm-two-qubits": (lambda: ggm(PureState([1, 0, 0, 1], (2, 2))), "requires a pure three-qubit state"),
    "delta-d-two-parties": (lambda: delta_d(PureState([1, 0, 0, 1], (2, 2)), "A"), "expected a three-party state"),
    "pure-zero-vector": (lambda: PureState(np.zeros(8), (2, 2, 2)), "cannot normalize the zero vector"),
    "density-shape": (lambda: DensityMatrix(np.eye(3) / 3, (2,)), "matrix shape (3, 3) does not match dims (2,)"),
    "state-to-dict-array": (lambda: state_to_dict(np.eye(2) / 2), "expected PureState or DensityMatrix"),
    "grid-axes-order": (
        lambda: grid_scan("ghz-sym", GHZ_SYM_AXES[::-1]),
        "axes ['alpha', 'kappa', 'theta'] must match ('theta', 'kappa', 'alpha') for family 'ghz-sym'",
    ),
    "grid-closed-mk-off-family": (
        lambda: grid_scan("w", W_AXES, mk_mode="closed"), "closed-form MK is defined for the ghz-sym family only",
    ),
    "crossing-axis": (
        lambda: find_zero_crossings("ghz-sym", {"theta": 0.3, "kappa": 0.0}, "beta", 0.1, 1.0),
        "axis 'beta' not a parameter of 'ghz-sym'",
    ),
    "sample-none": (lambda: sample_experiment(0, seed=1), "need n >= 1"),
    "path-mk-mode": (
        lambda: path_trace("ghz", 5, mk_mode="closed"), "closed-form MK is defined for the ghz-sym family only",
    ),
    "ghz-alpha-range": (lambda: GHZClassParams(0.3, 1.0, 0.5, 2.0, 0.5), "alpha=2.0 outside [0, pi/2]"),
    "family-row-width": (lambda: family_states("ghz", [[0.1, 0.2]]), "family 'ghz' takes 5 parameters per row"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY))
def test_library_rejects(case):
    call, message = LIBRARY[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "state",
    [PureState([1, 0, 0, 1], (2, 2)), PureState([1.0], ()), DensityMatrix(np.eye(8) / 8, (2, 2, 2)), np.eye(8)[0]],
    ids=["two-qubits", "no-parties", "mixed", "array"],
)
def test_pure_three_qubit_rule_is_one_check(state):
    """``ggm``, ``delta_c`` and ``prop4_check`` reject a state that is not pure three-qubit alike."""
    for call in (lambda: ggm(state), lambda: delta_c(state, "A"), lambda: prop4_check(state)):
        with pytest.raises(ValueError, match="^requires a pure three-qubit state$"):
            call()


def _config_without_equals(tmp_path):
    conf = tmp_path / "conf"
    conf.write_text("seed = 1\nn 5\n")
    return ["sample", "-n", "3", "--config", str(conf)], f"{conf}:2: expected 'key = value'"


def _zero_axis_count(tmp_path):
    axes = ["--axis", "theta=0.1:0.5:0", "--axis", "kappa=0", "--axis", "alpha=0.5"]
    return ["scan", "--family", "ghz-sym", *axes, "-o", str(tmp_path / "x.csv")], "axis count must be >= 1 in '0.1:0.5:0'"


def _missing_axis(tmp_path):
    axes = ["--axis", "theta=0.3", "--axis", "kappa=0"]
    return ["scan", "--family", "ghz-sym", *axes, "-o", str(tmp_path / "x.csv")], "missing axis ['alpha'] for family 'ghz-sym'"


@pytest.mark.parametrize("case", [_config_without_equals, _zero_axis_count, _missing_axis])
def test_cli_usage_errors(case, tmp_path, capsys):
    argv, message = case(tmp_path)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"qmono: {message}\n" and out.out == ""
    assert not (tmp_path / "x.csv").exists()
