import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from qmono import bell
from qmono.bell import (
    MKSettings,
    mk_expectation,
    mk_operator,
    mk_optimize,
    mk_symmetric_closed_form,
    pauli_operator,
)
from qmono.measures import SIGMA_Z
from qmono.qcore import DensityMatrix, PureState
from qmono.states import ghz_state, haar_random_amplitudes, symmetric_ghz, w_state

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def settings_all(a, ap, n=3):
    return MKSettings((a,) * n, (ap,) * n)


def random_settings(rng, n=3):
    vecs = rng.standard_normal((2 * n, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return MKSettings(tuple(vecs[:n]), tuple(vecs[n:]))


class TestSettings:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            MKSettings((np.array([1.0, 1.0, 0.0]),), (Z,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_rejected(self, bad):
        with pytest.raises(ValueError, match="unit norm"):
            MKSettings((np.array([bad, 0.0, 0.0]),), (Z,))

    def test_angle_round_trip(self):
        rng = np.random.default_rng(2)
        s = random_settings(rng)
        s2 = MKSettings.from_angles(s.to_angles())
        for v, w in zip(s.a + s.a_prime, s2.a + s2.a_prime):
            assert_allclose(v, w, atol=1e-12)


class TestOperator:
    def test_single_party_base_case(self):
        op = mk_operator(MKSettings((Z,), (X,)))
        assert_allclose(op, SIGMA_Z, atol=1e-15)

    def test_chsh_norm(self):
        d1 = (X + Y) / np.sqrt(2)
        d2 = (X - Y) / np.sqrt(2)
        op = mk_operator(MKSettings((X, d1), (Y, d2)))
        assert_allclose(np.abs(np.linalg.eigvalsh(op)).max(), np.sqrt(2), atol=1e-12)

    def test_ghz_magnitude_two(self):
        # all a = y, a' = x: the recursion leaves only the three-spin terms
        # whose GHZ expectations are -1, -1, -1, -(+1)
        op = mk_operator(settings_all(Y, X))
        val = mk_expectation(ghz_state(), MKSettings((Y, Y, Y), (X, X, X)))
        assert_allclose(abs(val), 2.0, atol=1e-12)
        assert op.shape == (8, 8)

    def test_ghz_swapped_settings_vanish(self):
        # the interchanged choice (a = x, a' = y) leaves only odd-Y terms,
        # all of which average to zero on GHZ
        val = mk_expectation(ghz_state(), settings_all(X, Y))
        assert_allclose(val, 0.0, atol=1e-12)

    def test_hermitian_random_settings(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            op = mk_operator(random_settings(rng))
            assert np.max(np.abs(op - op.conj().T)) <= 1e-10

    def test_operator_norm_ceiling(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            for _ in range(10):
                op = mk_operator(random_settings(rng, n))
                top = np.abs(np.linalg.eigvalsh(op)).max()
                assert top <= 2 ** ((n - 1) / 2) + 1e-6

    def test_too_many_parties_rejected(self):
        with pytest.raises(ValueError):
            mk_operator(settings_all(X, Y, n=7))


class TestExpectation:
    def test_product_state_within_local_bound(self):
        rng = np.random.default_rng(3)
        amps = np.zeros(8)
        amps[0] = 1
        psi = PureState(amps, (2, 2, 2))
        for _ in range(50):
            assert abs(mk_expectation(psi, random_settings(rng))) <= 1.0 + 1e-9

    def test_maximally_mixed_zero(self):
        rng = np.random.default_rng(4)
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        for _ in range(10):
            assert abs(mk_expectation(rho, random_settings(rng))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mk_expectation(PureState([1, 0], (2,)), settings_all(X, Y))

    def test_violation_flag(self):
        assert abs(mk_expectation(ghz_state(), MKSettings((Y, Y, Y), (X, X, X)))) > 1.0


class TestOptimize:
    def test_ghz_reaches_two(self):
        val, settings = mk_optimize(ghz_state(), restarts=12, seed=1)
        assert_allclose(val, 2.0, atol=1e-4)
        assert settings.n_parties == 3

    def test_product_reaches_one(self):
        amps = np.zeros(8)
        amps[0] = 1
        val, _ = mk_optimize(PureState(amps, (2, 2, 2)), restarts=12, seed=1)
        assert_allclose(val, 1.0, atol=1e-4)

    def test_w_violates(self):
        val, _ = mk_optimize(w_state(), restarts=20, seed=3)
        assert val > 1.0
        assert_allclose(val, 1.523, atol=2e-3)

    def test_lower_bounds_any_manual_settings(self):
        rng = np.random.default_rng(11)
        psi = w_state()
        val, _ = mk_optimize(psi, restarts=16, seed=5)
        for _ in range(20):
            assert val >= abs(mk_expectation(psi, random_settings(rng))) - 1e-9

    def test_random_product_states_no_violation(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            kets = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
            amps = np.kron(np.kron(kets[0], kets[1]), kets[2])
            psi = PureState(amps, (2, 2, 2))
            val, _ = mk_optimize(psi, restarts=16, seed=6)
            assert val <= 1.0 + 1e-4

    def test_warm_start_helps_or_matches(self):
        val0, settings = mk_optimize(ghz_state(), restarts=4, seed=9)
        val1, _ = mk_optimize(ghz_state(), restarts=0, seed=9, initial=settings)
        assert val1 >= val0 - 1e-9

    def test_no_start_rejected(self):
        for restarts in (0, -1):
            with pytest.raises(ValueError, match="needs a start"):
                mk_optimize(ghz_state(), restarts=restarts)


def haar_states(n, seed):
    return [PureState(v, (2, 2, 2)) for v in haar_random_amplitudes(n, seed)]


def ginibre_states(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g @ g.conj().T
        out.append(DensityMatrix(m / np.trace(m).real, (2, 2, 2)))
    return out


def nelder_mead_oracle(state, starts):
    """Independent search: Nelder-Mead on the 8x8 operator's expectation value."""

    def objective(angles):
        return -abs(mk_expectation(state, MKSettings.from_angles(angles)))

    options = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 3000, "maxfev": 3000}
    return max(-minimize(objective, x0, method="Nelder-Mead", options=options).fun for x0 in starts)


class TestSeesawOracles:
    """The see-saw search against values it does not compute itself."""

    def test_value_is_attained_by_settings(self):
        for state in haar_states(4, 21) + ginibre_states(3, 22):
            val, settings = mk_optimize(state, restarts=4, seed=1)
            assert abs(val - abs(mk_expectation(state, settings))) <= 1e-12

    def test_noisy_ghz_closed_form(self):
        # tr(B_3 I) = 0, so the maximum over settings is p times GHZ's 2
        ghz = np.outer(ghz_state().amplitudes, ghz_state().amplitudes.conj())
        for p in (0.0, 0.2, 0.5, 0.75, 1.0):
            rho = DensityMatrix(p * ghz + (1 - p) * np.eye(8) / 8, (2, 2, 2))
            val, _ = mk_optimize(rho, restarts=4, seed=3)
            assert abs(val - 2 * p) <= 1e-9

    def test_at_least_symmetric_closed_form(self):
        rng = np.random.default_rng(23)
        for theta, kappa, alpha in rng.uniform(0.0, [np.pi / 4, 2 * np.pi, np.pi / 2], (100, 3)):
            val, _ = mk_optimize(symmetric_ghz(theta, kappa, alpha), restarts=2, seed=4)
            assert val >= mk_symmetric_closed_form(theta, alpha, kappa) - 1e-9

    def test_at_least_nelder_mead_oracle(self):
        # one random start, and one at the returned settings: Nelder-Mead finds
        # no higher value near them either
        rng = np.random.default_rng(24)
        for state in haar_states(1, 25) + ginibre_states(1, 26):
            val, settings = mk_optimize(state, restarts=8, seed=5)
            starts = [rng.uniform(0.0, np.pi, 12), settings.to_angles()]
            assert val >= nelder_mead_oracle(state, starts) - 1e-9

    def test_restart_monotonicity(self):
        for state in haar_states(6, 26) + ginibre_states(2, 27):
            vals = [mk_optimize(state, restarts=k, seed=7)[0] for k in (1, 4, 16)]
            assert vals[1] >= vals[0] - 1e-9
            assert vals[2] >= vals[1] - 1e-9


def correlation_tensor(state):
    """T_ijk = tr(eta s_i (x) s_j (x) s_k) from Kronecker products of the Pauli matrices."""
    rho = state.density().matrix if isinstance(state, PureState) else state.matrix
    paulis = [pauli_operator(e) for e in np.eye(3)]
    return np.array([[[np.trace(rho @ np.kron(np.kron(si, sj), sk)).real for sk in paulis]
                      for sj in paulis] for si in paulis])


class TestPartyMaps:
    def test_rows_give_the_operator_value_for_every_party(self):
        # (a_p.u + a_p'.v)/2 with party p's rows from its map is tr(B_3 eta) for each p
        rng = np.random.default_rng(28)
        for state in haar_states(4, 29) + ginibre_states(3, 30):
            maps = bell._party_maps(correlation_tensor(state))
            for _ in range(3):
                settings = random_settings(rng)
                s = np.array([settings.a, settings.a_prime])[None]  # (1, 2, 3 parties, 3)
                want = mk_expectation(state, settings)
                every = bell._party_rows(maps, s, np.arange(3))[0]  # all parties, as the polish asks
                for p in range(3):
                    u, v = bell._party_rows(maps, s, p)[0]
                    got = (s[0, 0, p] @ u + s[0, 1, p] @ v) / 2
                    assert abs(got - want) <= 1e-12
                    np.testing.assert_array_equal(every[p], [u, v])


class TestNewtonPolish:
    def test_matches_bfgs_from_the_same_start(self, polish_calls):
        calls = polish_calls(bell)
        values = [mk_optimize(s, restarts=2, seed=3)[0]
                  for s in haar_states(60, 31) + ginibre_states(40, 32)]
        assert len(calls) == 100
        for val, (start, polished, ref) in zip(values, calls):
            assert polished <= start
            assert abs(polished - ref) <= 1e-12
            assert abs(val + polished) <= 1e-12  # the returned value is the polished one

    def test_degenerate_states_stay_finite(self):
        product = np.zeros(8)
        product[0] = 1.0
        with np.errstate(all="raise"):
            val, settings = mk_optimize(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), restarts=4, seed=0)
            assert val == 0.0
            val, _ = mk_optimize(PureState(product, (2, 2, 2)), restarts=4, seed=0)
            assert abs(val - 1.0) <= 1e-12
        assert all(np.isfinite(v).all() for v in settings.a + settings.a_prime)


class TestClosedForm:
    def test_ghz_point(self):
        assert_allclose(mk_symmetric_closed_form(np.pi / 4, np.pi / 2, 0.0), 2.0, atol=1e-12)

    def test_alpha_zero_kills_it(self):
        assert_allclose(mk_symmetric_closed_form(0.4, 0.0, 1.0), 0.0, atol=1e-12)

    def test_formula_value_spot(self):
        theta, alpha, kappa = 0.4, 1.0, 1.0
        expected = (
            4
            * np.sin(alpha) ** 3
            * np.sin(theta)
            * (np.cos(theta) * np.cos(kappa) + np.cos(alpha) ** 3 * np.sin(theta))
        )
        assert_allclose(mk_symmetric_closed_form(theta, alpha, kappa), expected, atol=1e-15)

    def test_closed_form_below_optimum(self):
        from qmono.states import symmetric_ghz

        theta, kappa, alpha = 0.7, 0.5, 1.3
        closed = mk_symmetric_closed_form(theta, alpha, kappa)
        val, _ = mk_optimize(symmetric_ghz(theta, kappa, alpha), restarts=16, seed=2)
        assert closed <= val + 1e-6
