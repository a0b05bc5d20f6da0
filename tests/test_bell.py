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
)
from qmono.measures import SIGMA_X, SIGMA_Y, SIGMA_Z
from qmono.qcore import DensityMatrix, PureState, UsageError
from qmono.states import family_state, ghz_state, haar_random_amplitudes, w_state

from oracles import mk_operator_recursion

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def settings_all(a, ap):
    return MKSettings((a,) * 3, (ap,) * 3)


def random_settings(rng):
    vecs = rng.standard_normal((6, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return MKSettings(tuple(vecs[:3]), tuple(vecs[3:]))


class TestSettings:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            MKSettings((X, np.array([1.0, 1.0, 0.0]), X), (Z,) * 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_rejected(self, bad):
        with pytest.raises(ValueError, match="unit norm"):
            MKSettings((X, X, np.array([bad, 0.0, 0.0])), (Z,) * 3)


class TestOperator:
    def test_matches_the_recursion(self):
        # the coefficient sum against the paper's party-by-party recursion
        rng = np.random.default_rng(6)
        for _ in range(200):
            settings = random_settings(rng)
            assert np.max(np.abs(mk_operator(settings) - mk_operator_recursion(settings))) <= 1e-14

    def test_ghz_magnitude_two(self):
        # all a = y, a' = x: the coefficient sum leaves only the three-spin terms
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
        for _ in range(30):
            top = np.abs(np.linalg.eigvalsh(mk_operator(random_settings(rng)))).max()
            assert top <= 2 + 1e-6


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
        assert len(settings.a) == len(settings.a_prime) == 3

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
            with pytest.raises(UsageError, match=f"^restarts must be >= 1, got {restarts}$"):
                mk_optimize(ghz_state(), restarts=restarts)

    def test_raw_arrays_are_checked_states(self):
        # an unnormalized vector is normalized like a PureState, not read as twice the GHZ value
        ghz = np.array([1, 0, 0, 0, 0, 0, 0, 1.0])
        val, _ = mk_optimize(ghz, restarts=4)
        assert val == mk_optimize(PureState(ghz, (2, 2, 2)), restarts=4)[0]
        assert_allclose(val, 2.0, atol=1e-9)
        rho = np.outer(ghz, ghz) / 2
        assert mk_optimize(rho, restarts=4)[0] == mk_optimize(DensityMatrix(rho, (2, 2, 2)), restarts=4)[0]
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            mk_optimize(np.full(8, np.nan), restarts=4)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            mk_optimize(np.full((8, 8), np.nan), restarts=4)


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
            val, _ = mk_optimize(family_state("ghz-sym", theta, kappa, alpha), restarts=2, seed=4)
            assert val >= mk_symmetric_closed_form(theta, alpha, kappa) - 1e-9

    def test_at_least_nelder_mead_oracle(self):
        # one random start, and one at the returned settings: Nelder-Mead finds
        # no higher value near them either
        rng = np.random.default_rng(24)
        for state in haar_states(1, 25) + ginibre_states(1, 26):
            val, settings = mk_optimize(state, restarts=8, seed=5)
            v = np.array(settings.a + settings.a_prime)  # the returned directions' polar angles
            theta, phi = np.arccos(np.clip(v[:, 2], -1, 1)), np.arctan2(v[:, 1], v[:, 0]) % (2 * np.pi)
            starts = [rng.uniform(0.0, np.pi, 12), np.column_stack([theta, phi]).ravel()]
            assert val >= nelder_mead_oracle(state, starts) - 1e-9

    def test_restart_monotonicity(self):
        for state in haar_states(6, 26) + ginibre_states(2, 27):
            vals = [mk_optimize(state, restarts=k, seed=7)[0] for k in (1, 4, 16)]
            assert vals[1] >= vals[0] - 1e-9
            assert vals[2] >= vals[1] - 1e-9


def correlation_tensor(state):
    """T_ijk = tr(eta s_i (x) s_j (x) s_k) from Kronecker products of the Pauli matrices."""
    rho = state.density().matrix if isinstance(state, PureState) else state.matrix
    paulis = [SIGMA_X, SIGMA_Y, SIGMA_Z]
    return np.array([[[np.trace(rho @ np.kron(np.kron(si, sj), sk)).real for sk in paulis]
                      for sj in paulis] for si in paulis])


class TestPartyMaps:
    def test_maps_read_the_coefficient_tensor_bit_for_bit(self):
        # the MK sign table written out by hand: [w, s, t], the sign of T(a_q^(s), a_r^(t))
        # in row w, u (w = 0) or v (w = 1), the same for every party p
        uv_signs = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
        for state in haar_states(4, 33) + ginibre_states(3, 34):
            t = correlation_tensor(state)
            tp = np.stack([np.moveaxis(t, p, 0) for p in range(3)])
            want = np.einsum("wst,pijk->psjtkwi", uv_signs, tp).reshape(3, 36, 6)
            assert bell._party_maps(t).tobytes() == want.tobytes()

    def test_rows_give_the_operator_value_for_every_party(self):
        # (a_p.u + a_p'.v)/2 with party p's rows from its map is tr(B_3 eta) for each p
        rng = np.random.default_rng(28)
        for state in haar_states(4, 29) + ginibre_states(3, 30):
            maps = bell._party_maps(correlation_tensor(state))
            for _ in range(3):
                settings = random_settings(rng)
                s = np.array([settings.a, settings.a_prime]).swapaxes(0, 1)[None]  # (1, 3 parties, 2, 3)
                want = mk_expectation(state, settings)
                every = bell._party_rows(maps, s, np.arange(3))[0]  # all parties, as the polish asks
                for p in range(3):
                    u, v = bell._party_rows(maps, s, p)[0]
                    got = (s[0, p, 0] @ u + s[0, p, 1] @ v) / 2
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
        theta, kappa, alpha = 0.7, 0.5, 1.3
        closed = mk_symmetric_closed_form(theta, alpha, kappa)
        val, _ = mk_optimize(family_state("ghz-sym", theta, kappa, alpha), restarts=16, seed=2)
        assert closed <= val + 1e-6
