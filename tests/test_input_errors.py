"""Each bad input the library and the CLI reject, with its exception type and message.

A bad argument value is a ``UsageError``, raised by the library function that uses the
value (``USAGE``); a state or parameter set that is not one is a plain ``ValueError``
(``LIBRARY``).  The CLI only parses, and exits 2 on either kind of usage error."""

import re

import numpy as np
import pytest

from qmono.bell import MKSettings, mk_optimize
from qmono.cli import main
from qmono.measures import DiscordResult, MeasurementBasis, OptimizerTrace, conditional_entropy_min, discord, ggm
from qmono.measures import unitary_from_angles
from qmono.monogamy import delta_c, delta_d
from qmono.qcore import Bipartition, DensityMatrix, PureState, UsageError, state_to_dict
from qmono.scan import find_zero_crossings, grid_scan, path_trace, prop4_check, sample_experiment, surface_zero
from qmono.states import family_state, family_states, ghz_state, haar_random_amplitudes

Z, X = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
GHZ_SYM_AXES = [("theta", [0.3]), ("kappa", [0.0]), ("alpha", [0.5])]
W_AXES_NAMES = ("theta1", "theta2", "theta3", "phi1", "phi2", "phi3")
W_AXES = [(n, [0.5]) for n in W_AXES_NAMES]

LIBRARY = {
    "mk-settings-empty": (lambda: MKSettings((), ()), "need three directions a and three a'"),
    "mk-settings-unequal": (lambda: MKSettings((Z, Z, Z), (X, X)), "need three directions a and three a'"),
    "mk-settings-2-vectors": (lambda: MKSettings((Z[:2],) * 3, (X[:2],) * 3), "directions must be 3-vectors"),
    "mk-settings-angles": (lambda: MKSettings.from_angles(np.zeros(8)), "expected 12 angles"),
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
    "ghz-alpha-range": (lambda: family_state("ghz", 0.3, 1.0, 0.5, 2.0, 0.5), "alpha2=2.0 outside [0, pi/2]"),
    "family-row-width": (lambda: family_states("ghz", [[0.1, 0.2]]), "family 'ghz' takes 5 parameters per row"),
}
MIXED = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
A_BC = Bipartition(("A",), ("B", "C"))


def _surface(xtol):
    return lambda: surface_zero([0.4], [1.0], xtol=xtol)


USAGE = {
    "nodal-unknown": (lambda: delta_d(ghz_state(), "Z"), "unknown party label 'Z'; the parties are ['A', 'B', 'C']"),
    "grid-closed-mk-off-family": (
        lambda: grid_scan("w", W_AXES, mk_mode="closed"), "closed-form MK is defined for the ghz-sym family only",
    ),
    "path-mk-mode": (
        lambda: path_trace("ghz", 5, mk_mode="closed"), "closed-form MK is defined for the ghz-sym family only",
    ),
    "grid-unknown-axis": (
        lambda: grid_scan("ghz-sym", [*GHZ_SYM_AXES, ("beta", [1.0])]), "unknown axis ['beta'] for family 'ghz-sym'",
    ),
    "grid-missing-axis": (lambda: grid_scan("ghz-sym", GHZ_SYM_AXES[:2]), "missing axis ['alpha'] for family 'ghz-sym'"),
    "grid-repeated-axis": (
        lambda: grid_scan("ghz-sym", [*GHZ_SYM_AXES, ("theta", [0.4])]),
        "axis repeated in ['theta', 'kappa', 'alpha', 'theta']",
    ),
    "grid-unknown-family": (lambda: grid_scan("bogus", GHZ_SYM_AXES), "unknown family 'bogus'"),
    "crossing-unknown-family": (lambda: find_zero_crossings("bogus", {}, "alpha", 0.1, 1.0), "unknown family 'bogus'"),
    "crossing-axis": (
        lambda: find_zero_crossings("ghz-sym", {"theta": 0.3, "kappa": 0.0}, "beta", 0.1, 1.0),
        "axis 'beta' not a parameter of 'ghz-sym'",
    ),
    "crossing-unknown-fixed": (
        lambda: find_zero_crossings("ghz-sym", {"theta": 0.4, "kappa": 1.0, "bogus": 3.0}, "alpha", 0.1, 1.0),
        "unknown fixed parameters ['bogus'] for family 'ghz-sym'",
    ),
    "crossing-fixed-axis": (
        lambda: find_zero_crossings("ghz-sym", {"theta": 0.4, "kappa": 1.0, "alpha": 3.0}, "alpha", 0.1, 1.0),
        "axis 'alpha' is scanned, so it takes no fixed value",
    ),
    "path-resolution": (lambda: path_trace("ghz", 1), "resolution must be >= 2, got 1"),
    "path-family-name": (lambda: path_trace("path-ghz", 5), "unknown path 'path-ghz'"),
    "sample-none": (lambda: sample_experiment(0, seed=1), "n must be >= 1, got 0"),
    "delta-d-restarts": (lambda: delta_d(PureState(haar_random_amplitudes(1, 1)[0], (2, 2, 2)), "A", restarts=0, seed=-3), "restarts must be >= 1, got 0"),
    "delta-d-seed": (lambda: delta_d(PureState(haar_random_amplitudes(1, 1)[0], (2, 2, 2)), "A", seed=-3), "seed must be >= 0, got -3"),
    "entropy-restarts": (lambda: conditional_entropy_min(MIXED, A_BC, restarts=0), "restarts must be >= 1, got 0"),
    "entropy-seed": (lambda: conditional_entropy_min(MIXED, A_BC, seed=-1), "seed must be >= 0, got -1"),
    "discord-restarts": (lambda: discord(ghz_state().density(), A_BC, restarts=0, seed=-5), "restarts must be >= 1, got 0"),
    "discord-seed": (lambda: discord(ghz_state().density(), A_BC, seed=-5), "seed must be >= 0, got -5"),
    "grid-mk-restarts": (lambda: grid_scan("ghz-sym", GHZ_SYM_AXES, mk_restarts=0), "mk_restarts must be >= 1, got 0"),
    "grid-seed": (lambda: grid_scan("ghz-sym", GHZ_SYM_AXES, seed=-1), "seed must be >= 0, got -1"),
    "sample-seed": (lambda: sample_experiment(5, seed=-1), "seed must be >= 0, got -1"),
    "mk-seed": (lambda: mk_optimize(ghz_state(), seed=-1), "seed must be >= 0, got -1"),
    "xtol-zero": (_surface(0.0), "xtol must be finite and > 0, got 0.0"),
    "xtol-negative": (_surface(-1.0), "xtol must be finite and > 0, got -1.0"),
    "xtol-inf": (_surface(np.inf), "xtol must be finite and > 0, got inf"),
    "epsilon-negative": (lambda: sample_experiment(50, 1, epsilon=-1.0), "epsilon must be finite and >= 0, got -1.0"),
    "epsilon-nan": (lambda: sample_experiment(50, 1, epsilon=np.nan), "epsilon must be finite and >= 0, got nan"),
    "epsilon-inf": (
        lambda: grid_scan("ghz-sym", GHZ_SYM_AXES, epsilon=np.inf), "epsilon must be finite and >= 0, got inf",
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY | USAGE))
def test_library_rejects(case):
    """A ``USAGE`` case raises ``UsageError``; a ``LIBRARY`` case a plain ``ValueError``."""
    call, message = (LIBRARY | USAGE)[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, UsageError) == (case in USAGE)


def test_grid_scan_takes_axes_in_any_order():
    """Shuffled axes give the family-order grid, bit for bit in every column."""
    ghz_sym = [("theta", [0.2, 0.5, 0.7]), ("kappa", [0.0, 1.0]), ("alpha", np.linspace(0.1, 1.5, 4))]
    w = [(name, np.linspace(0.3, 2.0 + i, 2)) for i, name in enumerate(W_AXES_NAMES)]
    for family, axes, mk_mode in (("ghz-sym", ghz_sym, "closed"), ("w", w, "skip")):
        shuffled = [axes[i] for i in np.random.default_rng(7).permutation(len(axes))]
        assert [n for n, _ in shuffled] != [n for n, _ in axes]
        ordered, table = grid_scan(family, axes, mk_mode=mk_mode), grid_scan(family, shuffled, mk_mode=mk_mode)
        for column in ("params", "delta_d", "delta_c", "ggm", "mk", "zero_band"):
            a, b = getattr(ordered, column), getattr(table, column)
            assert (a is None and b is None) or (a.dtype == b.dtype and a.tobytes() == b.tobytes())


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
