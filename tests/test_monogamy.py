import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmono import monogamy
from qmono.measures import conditional_entropy_min, discord, pure_scores_batch
from qmono.monogamy import delta_c, delta_d
from qmono.qcore import Bipartition, DensityMatrix, PureState, partial_trace, vn_entropy
from qmono.states import family_state, ghz_state, haar_random_amplitudes, w_state

from oracles import (
    discord_eof_pure_identity,
    interaction_information,
    kw_residual,
    prop1_check,
    prop2_residual,
    symmetric_condition_residual,
)


def product_000():
    amps = np.zeros(8)
    amps[0] = 1
    return PureState(amps, (2, 2, 2))


def biseparable():
    # |0>_A (x) |Phi+>_BC
    return PureState(np.kron([1, 0], [1, 0, 0, 1]), (2, 2, 2))


def haar_states(n, seed):
    return [PureState(v, (2, 2, 2)) for v in haar_random_amplitudes(n, seed)]


class TestDeltaD:
    def test_ghz_is_one(self):
        for nodal in "ABC":
            rep = delta_d(ghz_state(), nodal)
            assert_allclose(rep.delta_D, 1.0, atol=1e-6)
            assert rep.D_A_BC == rep.S_A == pytest.approx(1.0, abs=1e-12)
            assert not rep.heuristic

    def test_biseparable_zero_any_nodal(self):
        psi = biseparable()
        for nodal in "ABC":
            rep = delta_d(psi, nodal)
            assert abs(rep.delta_D) <= 1e-6

    def test_w_negative(self):
        rep = delta_d(w_state(), "A")
        assert rep.delta_D < -0.1
        # cross-check against an independent discord call on the marginal
        pair = partial_trace(w_state().density(), ("A", "B"))
        d_ab = discord(pair, Bipartition(("A",), ("B",))).discord
        assert_allclose(rep.delta_D, rep.S_A - 2 * d_ab, atol=1e-7)

    def test_report_arithmetic_invariants(self):
        for psi in haar_states(5, 21):
            rep = delta_d(psi, "A")
            assert abs(rep.delta_D - (rep.D_A_BC - rep.D_AB - rep.D_AC)) <= 1e-9
            assert abs(rep.delta_C - (rep.C_A_BC**2 - rep.C_AB**2 - rep.C_AC**2)) <= 1e-9
            lo, hi = rep.bound_lower, rep.bound_upper
            total = rep.S_cond_AB + rep.S_cond_AC
            assert lo <= total <= hi + 1e-6

    def test_closed_form_against_search_every_nodal(self):
        # the grid-and-zoom search on each pair bounds S(A|X) from above
        for psi in haar_states(20, 71):
            rho = psi.density()
            for nodal in "ABC":
                rep = delta_d(psi, nodal)
                others = [x for x in "ABC" if x != nodal]
                for other, got in zip(others, (rep.S_cond_AB, rep.S_cond_AC)):
                    pair = partial_trace(rho, (nodal, other))
                    search = conditional_entropy_min(pair, Bipartition((nodal,), (other,)))[0]
                    assert got <= search + 1e-12
                    assert abs(got - search) <= 1e-7

    def test_mixed_input_heuristic(self):
        rng = np.random.default_rng(40)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, (2, 2, 2))
        rep = delta_d(rho, "A", restarts=8)
        assert rep.heuristic
        assert rep.prop2_residual is None
        assert rep.bound_lower is None and rep.bound_upper is None
        assert rep.C_A_BC is None
        assert rep.D_A_BC >= -1e-9
        assert rep.D_A_BC_kernel == "unitary-search"
        assert rep.D_A_BC_gap >= 0.0

    def test_mixed_pairs_match_per_pair_discord(self, monkeypatch):
        # one K = 2 Bloch search per report gives what discord gives on each pair marginal
        calls, real = [], monogamy.conditional_entropy_qubit_batch
        monkeypatch.setattr(monogamy, "conditional_entropy_qubit_batch",
                            lambda rhos: calls.append(len(rhos)) or real(rhos))
        rng = np.random.default_rng(41)
        for i, rank in enumerate((2, 3, 4, 5, 6, 7, 8, 2, 4, 8)):
            g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
            m = g @ g.conj().T
            rho = DensityMatrix(m / np.trace(m).real, (2, 2, 2))
            nodal = "ABC"[i % 3]
            rep = delta_d(rho, nodal, restarts=2)
            others = [x for x in "ABC" if x != nodal]
            for other, d_got, cond_got in zip(others, (rep.D_AB, rep.D_AC), (rep.S_cond_AB, rep.S_cond_AC)):
                res = discord(partial_trace(rho, (nodal, other)), Bipartition((nodal,), (other,)))
                assert abs(d_got - res.discord) <= 1e-12
                assert abs(cond_got - res.conditional_entropy) <= 1e-12
            assert calls == [2] * (i + 1)

    def test_near_pure_input_takes_the_pure_path(self):
        # purity 1 - 5e-11 is inside qcore.PURITY_TOL, for discord and delta_d alike
        g, w = ghz_state().amplitudes, w_state().amplitudes  # orthogonal
        p = 2.5e-11
        rho = DensityMatrix((1 - p) * np.outer(g, g.conj()) + p * np.outer(w, w.conj()), (2, 2, 2))
        assert abs(rho.purity() - (1 - 5e-11)) < 1e-13
        res = discord(rho, Bipartition(("A",), ("B", "C")), restarts=2)
        assert res.optimizer_trace.kernel == "pure"
        assert not delta_d(rho, "A", restarts=2).heuristic

    def test_pure_report_is_the_batch_kernel_bit_for_bit(self):
        # PureState keeps a normalized vector's bits, so a state and its batch row agree exactly
        amps = haar_random_amplitudes(300, 0)
        batch = pure_scores_batch(amps)[0]
        assert [delta_d(PureState(a, (2, 2, 2)), "A").delta_D for a in amps] == batch.tolist()

    def test_unknown_keyword_rejected(self):
        # pure and mixed inputs both take only restarts and seed, as keywords
        mixed = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        for state in (ghz_state(), mixed):
            for bad in ({"zero_band": 1e-3}, {"restart": 8}):
                with pytest.raises(TypeError):
                    delta_d(state, "A", **bad)
            with pytest.raises(TypeError):
                delta_d(state, "A", 8)

    def test_serialization(self):
        rep = delta_d(ghz_state(), "A")
        data = json.loads(rep.to_json())
        assert data["nodal"] == "A"
        assert_allclose(data["delta_D"], 1.0, atol=1e-6)
        assert data["D_A_BC_kernel"] == "pure" and data["D_A_BC_gap"] is None
        assert list(data) == [
            "nodal", "delta_D", "delta_C", "D_A_BC", "D_A_BC_kernel", "D_A_BC_gap", "D_AB", "D_AC",
            "C_AB", "C_AC", "C_A_BC", "S_A", "S_cond_AB", "S_cond_AC",
            "prop1_satisfied", "prop1_slack", "prop2_residual",
            "bound_lower", "bound_upper", "heuristic",
        ]
        assert data["bound_lower"] == 0.0 and data["bound_upper"] == 2.0


class TestDiscordIdentity:
    """Every D of a report is S_X - S_AX + S(A|X), rebuilt from the public API."""

    @staticmethod
    def _rebuilt(rho, nodal, restarts):
        def s(*labels):
            return vn_entropy(partial_trace(rho, labels) if len(labels) < 3 else rho)

        others = tuple(x for x in rho.labels if x != nodal)
        for x in (others, others[:1], others[1:]):
            marginal = partial_trace(rho, (nodal, *x))
            if marginal.is_pure():  # S(A|X) = 0: measuring X in its Schmidt basis leaves A pure
                cond = 0.0
            else:
                cond = conditional_entropy_min(marginal, Bipartition((nodal,), x), restarts=restarts)[0]
            yield s(*x) - s(nodal, *x) + cond

    def _check(self, state, restarts):
        rho = state.density() if isinstance(state, PureState) else state
        for nodal in rho.labels:
            rep = delta_d(state, nodal, restarts=restarts)
            for got, want in zip((rep.D_A_BC, rep.D_AB, rep.D_AC), self._rebuilt(rho, nodal, restarts)):
                assert abs(got - want) <= 1e-12

    def test_mixed_three_qubit_ranks_2_to_8(self):
        rng = np.random.default_rng(43)
        for rank in range(2, 9):
            g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
            m = g @ g.conj().T
            self._check(DensityMatrix(m / np.trace(m).real, (2, 2, 2)), restarts=2)

    def test_pure_qutrit_qubit_qubit(self):
        rng = np.random.default_rng(44)
        for _ in range(3):
            self._check(PureState(rng.standard_normal(12) + 1j * rng.standard_normal(12), (3, 2, 2)), restarts=2)


class TestDeltaC:
    def test_w_zero(self):
        assert_allclose(delta_c(w_state(), "A"), 0.0, atol=1e-9)

    def test_ghz_one(self):
        assert_allclose(delta_c(ghz_state(), "A"), 1.0, atol=1e-12)

    def test_product_zero(self):
        assert_allclose(delta_c(product_000(), "A"), 0.0, atol=1e-12)

    def test_nonnegative_on_samples(self):
        for psi in haar_states(200, 3):
            assert delta_c(psi, "A") >= -1e-9

    def test_mixed_rejected(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(ValueError):
            delta_c(rho, "A")


class TestPropositions:
    def test_prop1_product(self):
        ok, slack = prop1_check(product_000(), "A")
        assert ok
        assert_allclose(slack, 0.0, atol=1e-9)

    def test_prop1_ghz_fails(self):
        # GHZ marginals are classically correlated: both conditional
        # entropies vanish, so the slack is -D(A:BC) = -1 and the necessary
        # condition correctly fails for this delta_D = 1 state
        ok, slack = prop1_check(ghz_state(), "A")
        assert not ok
        assert_allclose(slack, -1.0, atol=1e-6)

    def test_prop1_holds_on_zero_band_state(self):
        # a state on the vanishing-score surface satisfies the condition
        from qmono.scan import surface_zero

        pt = surface_zero([0.4], [1.0])
        psi = family_state("ghz-sym", pt.theta[0], pt.kappa[0], pt.alpha_star[0])
        ok, slack = prop1_check(psi, "A")
        assert ok
        assert slack >= -1e-6

    def test_prop2_equals_delta_d(self):
        for psi in haar_states(25, 9):
            rep = delta_d(psi, "A")
            res = prop2_residual(psi, "A")
            assert abs(rep.delta_D - res) <= 1e-5

    def test_prop2_ghz(self):
        # sign calibrated against the delta_D oracle: +1 for GHZ
        assert_allclose(prop2_residual(ghz_state(), "A"), 1.0, atol=1e-6)

    def test_prop2_biseparable(self):
        assert abs(prop2_residual(biseparable(), "A")) <= 1e-9

    def test_prop2_mixed_rejected(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(ValueError):
            prop2_residual(rho, "A")

    def test_symmetric_residual_product(self):
        assert_allclose(symmetric_condition_residual(product_000(), "A"), 0.0, atol=1e-9)

    def test_symmetric_residual_ghz(self):
        # S_A = 1 and S(A|B) = 0, so the residual is +1/2; for symmetric pure
        # states delta_D = 2 * residual, which pins the sign convention
        res = symmetric_condition_residual(ghz_state(), "A")
        assert_allclose(res, 0.5, atol=1e-6)

    def test_symmetric_residual_tracks_delta_d(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            psi = family_state("ghz-sym", rng.uniform(0.1, np.pi / 4), rng.uniform(0, 2 * np.pi),
                               rng.uniform(0.3, np.pi / 2))
            res = symmetric_condition_residual(psi, "A")
            rep = delta_d(psi, "A")
            assert abs(rep.delta_D - 2 * res) <= 1e-6

    def test_symmetric_w_accepted(self):
        # the standard W state is permutation symmetric; residual is defined
        res = symmetric_condition_residual(w_state(), "A")
        rep = delta_d(w_state(), "A")
        assert abs(rep.delta_D - 2 * res) <= 1e-6

    def test_asymmetric_rejected(self):
        amps = np.zeros(8)
        amps[1] = 1.0
        amps[0] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_condition_residual(PureState(amps, (2, 2, 2)), "A")


class TestInteractionInformation:
    def test_product_zero(self):
        assert_allclose(interaction_information(product_000()), 0.0, atol=1e-10)

    def test_ghz_zero(self):
        assert_allclose(interaction_information(ghz_state()), 0.0, atol=1e-10)

    def test_w_zero(self):
        # pure states: two-site entropies equal the complementary one-site ones
        assert_allclose(interaction_information(w_state()), 0.0, atol=1e-10)


class TestKoashiWinter:
    def test_product(self):
        assert_allclose(kw_residual(product_000(), "A"), 0.0, atol=1e-9)

    def test_ghz(self):
        assert_allclose(kw_residual(ghz_state(), "A"), 0.0, atol=1e-6)

    def test_random_states(self):
        worst = max(abs(kw_residual(psi, "A")) for psi in haar_states(100, 31))
        assert worst < 1e-4


def bounds(state, nodal, **opt):
    rep = delta_d(state, nodal, **opt)
    return rep.bound_lower, rep.bound_upper


class TestBounds:
    def test_product(self):
        assert bounds(product_000(), "A") == (0.0, 0.0)

    def test_ghz(self):
        lo, hi = bounds(ghz_state(), "A")
        assert_allclose(lo, 0.0, atol=1e-12)
        assert_allclose(hi, 2.0, atol=1e-12)

    def test_brackets_measured_sum(self):
        for psi in haar_states(25, 14):
            rep = delta_d(psi, "A")
            total = rep.S_cond_AB + rep.S_cond_AC
            assert rep.bound_lower - 1e-5 <= total <= rep.bound_upper + 1e-5

    def test_mixed_rejected(self):
        # the bracket holds for pure states only: a mixed report carries none
        assert bounds(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), "A") == (None, None)

    def test_qutrit_equals_the_pair_entropy_form(self):
        # the bounds read S_AB = S_C and S_AC = S_B; the traced pair entropies give the same
        # (one search restart: the bracket does not depend on the searches)
        rng = np.random.default_rng(45)
        for _ in range(10):
            psi = PureState(rng.standard_normal(12) + 1j * rng.standard_normal(12), (3, 2, 2))
            rho = psi.density()
            for nodal in "ABC":
                a, (b, c) = nodal, [x for x in "ABC" if x != nodal]
                s = {k: vn_entropy(partial_trace(rho, k)) for k in (a, b, c, (a, b), (a, c))}
                upper = min(s[a], s[b]) + min(s[a], s[c])
                lower = max(s[a] - s[a, b], s[b] - s[a, b], 0.0) + max(s[a] - s[a, c], s[c] - s[a, c], 0.0)
                assert_allclose(bounds(psi, nodal, restarts=1), (lower, upper), rtol=0, atol=1e-12)


class TestDiscordEofIdentity:
    def test_product(self):
        assert_allclose(discord_eof_pure_identity(product_000(), "A"), 0.0, atol=1e-9)

    def test_ghz(self):
        assert_allclose(discord_eof_pure_identity(ghz_state(), "A"), 0.0, atol=1e-6)

    def test_random_states(self):
        worst = max(abs(discord_eof_pure_identity(psi, "A")) for psi in haar_states(100, 55))
        assert worst < 1e-4
