import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmono import measures
from qmono.measures import (
    DiscordResult,
    MeasurementBasis,
    OptimizerTrace,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    concurrence,
    conditional_entropy_min,
    conditional_entropy_qubit_batch,
    discord,
    minimize,
    eof_batch,
    pure_scores_batch,
    unitary_from_angles,
    _minimize_dim4_side,
)
from qmono.monogamy import delta_d
from qmono.qcore import Bipartition, DensityMatrix, PureState, UsageError, partial_trace, vn_entropy
from qmono.states import haar_random_amplitudes

from oracles import eof_pure

AB = Bipartition(("A",), ("B",))
BC_MEASURED = Bipartition(("A",), ("B", "C"))


def dm(matrix, dims=(2, 2)):
    return DensityMatrix(matrix, dims)


def bell_phi_plus():
    return PureState([1, 0, 0, 1], (2, 2))


def bell_mixture():
    # (|00><00| + |11><11|) / 2 = equal mixture of the two phase Bell states
    return dm(np.diag([0.5, 0.0, 0.0, 0.5]))


def classically_correlated():
    return dm(np.diag([0.5, 0.0, 0.0, 0.5]))


def w_marginal():
    amps = np.zeros(8)
    amps[1] = amps[2] = amps[4] = 1
    w = PureState(amps, (2, 2, 2))
    return partial_trace(w.density(), ("A", "B"))


def haar_pure(rng, dim=4):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z, (2, dim // 2))


def wishart_state(rng, dim=4, dims=(2, 2), rank=None):
    g = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestMeasurementBasis:
    def test_returned_qubit_basis_attains_the_value(self):
        # sum_i p_i S(rho_A|i) over the returned projectors, M_i = tr_B[(I (x) P_i) rho]
        rng = np.random.default_rng(5)
        states = [wishart_state(rng, rank=r) for r in (1, 2, 3, 4)]
        states += [wishart_state(rng, dim=6, dims=(3, 2), rank=r) for r in (1, 2, 4, 6)]
        for rho in states:
            value, basis = conditional_entropy_min(rho, AB)
            assert basis.subsystem == ("B",)
            d_keep = rho.dims[0]
            r = rho.matrix.reshape(d_keep, 2, d_keep, 2)
            attained = 0.0
            for proj in basis.projectors:
                m = np.einsum("abcd,db->ac", r, proj)
                p = np.trace(m).real
                attained += p * vn_entropy(m / p)
            assert abs(attained - value) <= 1e-12

    def test_completeness_enforced(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            MeasurementBasis(("B",), (p, p))

    def test_rank_one_enforced(self):
        with pytest.raises(ValueError):
            MeasurementBasis(("B",), (np.eye(2), np.zeros((2, 2))))

    def test_non_finite_projectors_rejected(self):
        with pytest.raises(ValueError):
            MeasurementBasis(("B",), ([[1.0, np.nan], [np.nan, 0.0]], np.diag([0.0, 1.0])))

    def test_hermiticity_enforced(self):
        # trace-1 idempotents that sum to I, but not Hermitian: an oblique projection
        with pytest.raises(ValueError):
            MeasurementBasis(("B",), ([[1, 5], [0, 0]], [[0, -5], [0, 1]]))

    def test_unitary_from_angles_is_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = unitary_from_angles(rng.uniform(0, np.pi, 12))
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12


class TestConcurrence:
    def test_bell_state(self):
        assert_allclose(concurrence(bell_phi_plus().density()), 1.0, atol=1e-10)

    def test_product(self):
        assert_allclose(concurrence(dm(np.diag([1.0, 0, 0, 0]))), 0.0, atol=1e-10)

    def test_w_marginal_two_thirds(self):
        # independent oracle: eigenvalues of rho * rho~ straight from eigvals
        rho = w_marginal().matrix
        yy = np.kron(SIGMA_Y, SIGMA_Y)
        ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
        lam = np.sqrt(np.clip(np.sort(ev.real)[::-1], 0, None))
        oracle = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert_allclose(oracle, 2 / 3, atol=1e-9)
        assert_allclose(concurrence(w_marginal()), 2 / 3, atol=1e-9)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rho = wishart_state(rng)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = dm(u @ rho.matrix @ u.conj().T)
            assert abs(concurrence(rotated) - concurrence(rho)) <= 1e-9

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            concurrence(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))


class TestEoF:
    def test_pure_ghz_cut(self):
        amps = np.zeros(8)
        amps[0] = amps[7] = 1
        ghz = PureState(amps, (2, 2, 2))
        cut = Bipartition(("A",), ("B", "C"))
        assert_allclose(eof_pure(ghz, cut), 1.0, atol=1e-12)

    def test_pure_product(self):
        amps = np.zeros(8)
        amps[0] = 1
        psi = PureState(amps, (2, 2, 2))
        cut = Bipartition(("A",), ("B", "C"))
        assert_allclose(eof_pure(psi, cut), 0.0, atol=1e-12)

    def test_pure_w_cut(self):
        amps = np.zeros(8)
        amps[1] = amps[2] = amps[4] = 1
        w = PureState(amps, (2, 2, 2))
        cut = Bipartition(("A",), ("B", "C"))
        assert_allclose(eof_pure(w, cut), np.log2(3) - 2 / 3, atol=1e-12)

    def test_two_qubit_extremes(self):
        assert_allclose(eof_batch(concurrence(bell_phi_plus().density())), 1.0, atol=1e-10)
        assert_allclose(eof_batch(concurrence(dm(np.diag([1.0, 0, 0, 0])))), 0.0, atol=1e-12)

    def test_two_qubit_w_marginal(self):
        # C = 2/3 so h = (1 + sqrt(5)/3)/2; evaluate H(h) independently
        h = (1 + np.sqrt(5) / 3) / 2
        expected = -h * np.log2(h) - (1 - h) * np.log2(1 - h)
        assert_allclose(eof_batch(concurrence(w_marginal())), expected, atol=1e-9)
        assert_allclose(expected, 0.55005, atol=5e-5)

    def test_zero_concurrence_is_negative_zero(self):
        assert np.signbit(eof_batch([0.0])).all()  # CSVs print the sign of a zero entropy


def _mp_eof(mpmath, c2):
    """E_f = H((1 - sqrt(1 - C^2)) / 2) at the working precision."""
    p = (1 - mpmath.sqrt(1 - c2)) / 2
    return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)


def _mp_concurrence_sq_ac(mpmath, amps):
    """Wootters' C^2 of rho_AC from the eigenvalues of rho rho~, B traced out."""
    psi = [mpmath.mpc(z.real, z.imag) for z in amps]
    rho = mpmath.matrix(4, 4)
    for i in range(4):  # i = 2a + c
        for j in range(4):
            rho[i, j] = sum(psi[4 * (i // 2) + 2 * b + i % 2] * mpmath.conj(psi[4 * (j // 2) + 2 * b + j % 2])
                            for b in (0, 1))
    yy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    lam = sorted((mpmath.sqrt(abs(mpmath.re(x))) for x in mpmath.eig(rho * yy * rho.conjugate() * yy)[0]),
                 reverse=True)
    return max(lam[0] - lam[1] - lam[2] - lam[3], 0) ** 2


class TestEoFPrecision:
    """E_f and the kernel's S(A|B) keep their relative precision as the concurrence goes to 0."""

    def test_eof_batch_against_40_digits(self):
        # C from 1e-7 up: below C = 6.3e-8, C^2 / 4 is under XLOG_FLOOR and E_f is exactly 0
        mpmath = pytest.importorskip("mpmath")
        cs = np.append(np.geomspace(1e-7, 0.999, 200), [1e-2, 0.5, 2 / 3])
        with mpmath.workdps(40):
            for c, ef in zip(cs, eof_batch(cs)):
                want = _mp_eof(mpmath, mpmath.mpf(float(c)) ** 2)
                assert abs(ef - want) <= 1e-14 * want, c

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_kernel_cond_entropy_near_a_product_marginal(self, eps):
        # (|000> + |110>) / sqrt 2 leaves rho_AC near rho_A (x) |0><0|, so S(A|B) = E_f(AC) is small
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        base = np.zeros(8, dtype=complex)
        base[0b000] = base[0b110] = 1 / np.sqrt(2)
        amps = base + eps * (rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        cond_ab = pure_scores_batch(amps)[3]
        with mpmath.workdps(40):
            for a, got in zip(amps, cond_ab):
                want = _mp_eof(mpmath, _mp_concurrence_sq_ac(mpmath, a))
                assert abs(got - want) <= 1e-12 * want


class TestMutualInformation:
    """I = S_A + S_B - S_AB as ``DiscordResult`` reports it."""

    def test_product_zero(self):
        rng = np.random.default_rng(1)
        a = wishart_state(rng, 2, (2,)).matrix
        b = wishart_state(rng, 2, (2,)).matrix
        rho = dm(np.kron(a, b))
        assert_allclose(discord(rho, AB).mutual_information, 0.0, atol=1e-10)

    def test_bell_two_bits(self):
        assert_allclose(discord(bell_phi_plus().density(), AB).mutual_information, 2.0, atol=1e-10)

    def test_bell_mixture_one_bit(self):
        assert_allclose(discord(bell_mixture(), AB).mutual_information, 1.0, atol=1e-10)


def brute_force_cond_entropy(rho_ab, n_theta=200, n_phi=400, d_keep=2):
    """Direct oracle: explicit projectors, explicit post-measurement states.

    The measured qubit is the last factor; the kept side has dimension d_keep.
    """
    best = np.inf
    eye = np.eye(d_keep)
    m = rho_ab.matrix if isinstance(rho_ab, DensityMatrix) else rho_ab
    for th in np.linspace(0, np.pi, n_theta):
        for ph in np.linspace(0, 2 * np.pi, n_phi, endpoint=False):
            v = np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)])
            total = 0.0
            for ket in (v, np.array([np.sin(th / 2), -np.exp(1j * ph) * np.cos(th / 2)])):
                proj = np.kron(eye, np.outer(ket, ket.conj()))
                post = proj @ m @ proj
                p = np.trace(post).real
                if p < 1e-14:
                    continue
                red = post.reshape(d_keep, 2, d_keep, 2).trace(axis1=1, axis2=3) / p
                w = np.clip(np.linalg.eigvalsh(red), 0, None)
                w = w[w > 1e-12]
                total += p * float(-(w * np.log2(w)).sum())
            best = min(best, total)
    return best


class TestTangentFrame:
    @staticmethod
    def cross_form(n):
        """The frame as np.cross gives it."""
        e = np.where(np.abs(n[..., 2:]) > 0.9, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        u = np.cross(n, e)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        return u, np.cross(n, u)

    def directions(self):
        rng = np.random.default_rng(33)
        n = rng.standard_normal((1000, 3))
        phi = rng.uniform(0.0, 2 * np.pi, 8)
        for z in (0.9 - 1e-9, 0.9 + 1e-9, -0.9 - 1e-9, -0.9 + 1e-9):  # both sides of the switch
            ring = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(8)]) * np.sqrt(1 - z**2)
            n = np.vstack([n, ring + [0.0, 0.0, z]])
        n = np.vstack([n, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def test_orthonormal_right_handed(self):
        n = self.directions()
        u, v = measures.tangent_frame(n)
        for x, y in ((u, u), (v, v), (n, n)):
            assert_allclose(np.sum(x * y, axis=1), 1.0, atol=1e-15)
        for x, y in ((u, v), (u, n), (v, n)):
            assert np.max(np.abs(np.sum(x * y, axis=1))) <= 1e-15
        assert_allclose(np.cross(u, v), n, atol=1e-15)

    def test_matches_np_cross(self):
        n = self.directions()
        for stack in (n, n[:1], n[-1:]):
            for got, want in zip(measures.tangent_frame(stack), self.cross_form(stack)):
                assert np.max(np.abs(got - want)) <= 1e-15


class TestConditionalEntropyMin:
    def test_pure_product(self):
        rho = dm(np.diag([1.0, 0, 0, 0]))
        val, basis = conditional_entropy_min(rho, AB)
        assert_allclose(val, 0.0, atol=1e-9)
        assert basis.subsystem == ("B",)

    def test_bell_state(self):
        val, _ = conditional_entropy_min(bell_phi_plus().density(), AB)
        assert_allclose(val, 0.0, atol=1e-9)

    def test_bell_mixture_matches_brute_force(self):
        # the 200x400 grid oracle gives 0: the z measurement leaves A pure
        oracle = brute_force_cond_entropy(bell_mixture(), n_theta=60, n_phi=120)
        assert_allclose(oracle, 0.0, atol=1e-9)
        val, _ = conditional_entropy_min(bell_mixture(), AB)
        assert_allclose(val, oracle, atol=1e-8)

    def test_random_mixed_matches_brute_force(self):
        rng = np.random.default_rng(7)
        rho = wishart_state(rng)
        oracle = brute_force_cond_entropy(rho, n_theta=100, n_phi=200)
        val, _ = conditional_entropy_min(rho, AB)
        assert val <= oracle + 1e-6
        assert abs(val - oracle) <= 5e-4  # oracle grid resolution limit

    def test_bell_diagonal_closed_form(self):
        # for (I + sum_j c_j s_j x s_j)/4 the minimum is H((1 + c)/2), c = max |c_j|
        rng = np.random.default_rng(12)
        verts = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            c = p @ verts
            m = np.eye(4, dtype=complex) / 4
            for cj, s in zip(c, (SIGMA_X, SIGMA_Y, SIGMA_Z)):
                m += cj * np.kron(s, s) / 4
            val, _ = conditional_entropy_min(dm(m), AB)
            top = max(abs(x) for x in c)
            h = (1 + top) / 2
            expected = -h * np.log2(h) - (1 - h) * np.log2(1 - h) if h < 1 else 0.0
            assert_allclose(val, expected, atol=1e-7)

    def test_sanity_bound_and_restart_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = wishart_state(rng)
            val, _ = conditional_entropy_min(rho, AB)
            s_a = vn_entropy(partial_trace(rho, ("A",)))
            s_b = vn_entropy(partial_trace(rho, ("B",)))
            assert val <= s_a + s_b + 1e-9

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(5)
        rhos = np.stack([wishart_state(rng).matrix for _ in range(12)])
        batch = conditional_entropy_qubit_batch(rhos)
        for i in range(12):
            val, _ = conditional_entropy_min(dm(rhos[i]), AB)
            assert abs(batch[i] - val) <= 1e-7

    def test_unsupported_dimension(self):
        # a measured qutrit is supported (TestMeasuredQutrit); five levels are not
        rho = DensityMatrix(np.eye(10) / 10, (2, 5))
        with pytest.raises(ValueError, match="measured dimension"):
            conditional_entropy_min(rho, Bipartition(("A",), ("B",)))


class TestLargerKeptSide:
    """A qubit measured, a qutrit or a qubit pair kept."""

    def test_qutrit_qubit_matches_brute_force(self):
        rng = np.random.default_rng(17)
        rho = wishart_state(rng, 6, (3, 2))
        oracle = brute_force_cond_entropy(rho, n_theta=100, n_phi=200, d_keep=3)
        val, basis = conditional_entropy_min(rho, AB)
        assert val <= oracle + 1e-6
        assert abs(val - oracle) <= 5e-4  # oracle grid resolution limit
        assert basis.subsystem == ("B",)

    def test_pair_kept_matches_brute_force(self):
        rng = np.random.default_rng(19)
        rho = wishart_state(rng, 8, (2, 2, 2))
        oracle = brute_force_cond_entropy(rho, n_theta=100, n_phi=200, d_keep=4)
        val, basis = conditional_entropy_min(rho, Bipartition(("A", "B"), ("C",)))
        assert val <= oracle + 1e-6
        assert abs(val - oracle) <= 5e-4  # oracle grid resolution limit
        assert basis.subsystem == ("C",)

    def test_product_state_gives_kept_entropy(self):
        rng = np.random.default_rng(23)
        rho_a = wishart_state(rng, 3, (3,)).matrix
        rho_b = wishart_state(rng, 2, (2,)).matrix
        rho = DensityMatrix(np.kron(rho_a, rho_b), (3, 2))
        val, _ = conditional_entropy_min(rho, AB)
        assert_allclose(val, vn_entropy(partial_trace(rho, ("A",))), atol=1e-10)


class TestDim4MeasuredSide:
    def test_product_state_gives_nodal_entropy(self):
        rng = np.random.default_rng(9)
        rho_a = wishart_state(rng, 2, (2,)).matrix
        rho_bc = wishart_state(rng, 4, (2, 2)).matrix
        rho = DensityMatrix(np.kron(rho_a, rho_bc), (2, 2, 2))
        cut = Bipartition(("A",), ("B", "C"))
        val, basis = conditional_entropy_min(rho, cut, restarts=16, seed=2)
        s_a = vn_entropy(partial_trace(rho, ("A",)))
        assert abs(val - s_a) <= 1e-5
        assert len(basis.projectors) == 4

    def test_classically_correlated_resolves(self):
        m = np.zeros((8, 8), dtype=complex)
        m[0, 0] = 0.5  # |0>|00>
        m[7, 7] = 0.5  # |1>|11>
        rho = DensityMatrix(m, (2, 2, 2))
        cut = Bipartition(("A",), ("B", "C"))
        val, _ = conditional_entropy_min(rho, cut, restarts=16, seed=2)
        assert_allclose(val, 0.0, atol=1e-6)

    def test_restart_monotonicity(self):
        rng = np.random.default_rng(31)
        rho = wishart_state(rng, 8, (2, 2, 2))
        cut = Bipartition(("A",), ("B", "C"))
        v1, _ = conditional_entropy_min(rho, cut, restarts=8, seed=4)
        v2, _ = conditional_entropy_min(rho, cut, restarts=16, seed=4)
        assert v2 <= v1 + 1e-8

    def test_search_matches_rank2_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            rho = wishart_state(rng, 8, (2, 2, 2), rank=2)
            exact, basis = conditional_entropy_min(rho, BC_MEASURED)
            assert basis is None
            val, u, trace = _minimize_dim4_side(rho.matrix, 2, restarts=4, seed=1)
            assert abs(val - exact) <= 1e-9
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
            assert trace.kernel == "unitary-search" and trace.gap >= 0.0

    def test_entropy_bounds_at_every_rank(self):
        # S(ABC) - S(BC) <= measured S(A|BC) <= S_A
        rng = np.random.default_rng(43)
        for rank in (1, 2, 3, 4, 6, 8):
            rho = wishart_state(rng, 8, (2, 2, 2), rank=rank)
            val, _ = conditional_entropy_min(rho, BC_MEASURED, restarts=8, seed=0)
            lower = vn_entropy(rho) - vn_entropy(partial_trace(rho, ("B", "C")))
            assert lower - 1e-12 <= val <= vn_entropy(partial_trace(rho, ("A",))) + 1e-12

    def test_restarts_below_one_rejected(self):
        # a usage error on every path, also the closed-form, pure and Bloch ones that never read restarts
        rng = np.random.default_rng(49)
        rho = wishart_state(rng, 8, (2, 2, 2), rank=4)
        for bad in (0, -1):
            message = f"^restarts must be >= 1, got {bad}$"
            for state in (rho, wishart_state(rng, 8, (2, 2, 2), rank=2), PureState(haar_pure(rng, 8).amplitudes, (2, 2, 2))):
                with pytest.raises(UsageError, match=message):
                    delta_d(state, "A", restarts=bad)
            for cut in (BC_MEASURED, Bipartition(("A", "B"), ("C",))):
                with pytest.raises(UsageError, match=message):
                    conditional_entropy_min(rho, cut, restarts=bad)

    def test_restart_monotonicity_4_16_64(self):
        rng = np.random.default_rng(47)
        for rank in (3, 4, 8):
            rho = wishart_state(rng, 8, (2, 2, 2), rank=rank)
            vals = [conditional_entropy_min(rho, BC_MEASURED, restarts=k, seed=5)[0]
                    for k in (4, 16, 64)]
            assert vals[1] <= vals[0] + 1e-12 and vals[2] <= vals[1] + 1e-12

    def test_at_most_brute_force_oracle(self):
        """BFGS from random starts over U = expm(iH), H Hermitian, with explicit
        projectors and numerical gradients; shares no code with the search."""
        from scipy.linalg import expm
        from scipy.optimize import minimize

        def cond_entropy(m, u):
            proj = np.einsum("ac,mi,ni->iamcn", np.eye(2), u, u.conj()).reshape(4, 8, 8)
            post = (proj @ m @ proj).reshape(4, 2, 4, 2, 4).trace(axis1=2, axis2=4)
            p = np.trace(post, axis1=1, axis2=2).real
            w = np.clip(np.linalg.eigvalsh(post / p[:, None, None]), 1e-300, None)
            return float(-np.sum(p[:, None] * w * np.log2(w)))

        def unitary(x):
            h = np.diag(x[:4]).astype(complex)
            h[np.triu_indices(4, 1)] = x[4:10] + 1j * x[10:]
            return expm(1j * (h + np.triu(h, 1).conj().T))

        rng = np.random.default_rng(53)
        for rank in (3, 4, 8):
            rho = wishart_state(rng, 8, (2, 2, 2), rank=rank)
            oracle = min(
                minimize(lambda x: cond_entropy(rho.matrix, unitary(x)), rng.uniform(-2, 2, 16),
                         method="BFGS").fun
                for _ in range(2)
            )
            val, _ = conditional_entropy_min(rho, BC_MEASURED, restarts=16, seed=0)
            assert val <= oracle + 1e-9


class TestNewtonPolish:
    def test_descends_from_near_a_saddle(self):
        def fun(xs):  # x^2 - y^2 + y^4: a saddle at 0, minima -1/4 at y = +-1/sqrt(2)
            x, y = xs[:, 0], xs[:, 1]
            return x**2 - y**2 + y**4, np.stack([2 * x, 4 * y**3 - 2 * y], axis=1)

        res = minimize(fun, np.array([0.5, 1e-3]))
        assert abs(res.fun + 0.25) <= 1e-15
        assert_allclose(np.abs(res.x), [0.0, 2**-0.5], atol=1e-9)

    def test_matches_bfgs_from_the_same_start(self, polish_calls):
        calls = polish_calls(measures)
        rng = np.random.default_rng(71)
        for rank in (3, 4, 5, 6, 7, 8) * 2:
            _minimize_dim4_side(wishart_state(rng, 8, (2, 2, 2), rank=rank).matrix, 2, restarts=4, seed=0)
        for seed in range(4):  # d = 3: the measured qutrit of a [3, 2, 2] state
            rho = partial_trace(PureState(haar_random_amplitudes(1, seed, dim=12)[0], (3, 2, 2)).density(), ("A", "B"))
            conditional_entropy_min(rho, Bipartition(("B",), ("A",)), restarts=4, seed=seed)
        assert len(calls) == 16
        for start, polished, ref in calls:
            assert polished <= start
            assert abs(polished - ref) <= 1e-12

    def test_degenerate_states_stay_finite(self):
        product = np.zeros((8, 8), dtype=complex)
        product[0, 0] = 1.0
        with np.errstate(all="raise"):
            for m, want in ((np.eye(8, dtype=complex) / 8, 1.0), (product, 0.0)):
                val, u, trace = _minimize_dim4_side(m, 2, restarts=4, seed=0)
                assert abs(val - want) <= 1e-12  # S(A|BC) = S_A: A is uncorrelated
                assert np.isfinite(u).all() and np.isfinite(trace.gap)


class TestMeasuredQutrit:
    def test_koashi_winter_on_pure_qutrit_states(self):
        """Pure ABC, A measured: S(B|A) >= E_f(rho_BC) (Koashi-Winter), with
        equality when C(rho_BC) > 0, since Wootters' optimal decomposition then
        has rank(rho_BC) <= 3 members and a qutrit basis reaches it.  A separable
        rho_BC can need 4 members, which a projective qutrit measurement lacks."""
        entangled = 0
        for seed in range(8):
            rho = PureState(haar_random_amplitudes(1, seed, dim=12)[0], (3, 2, 2)).density()
            val, basis = conditional_entropy_min(
                partial_trace(rho, ("A", "B")), Bipartition(("B",), ("A",)), restarts=16, seed=seed
            )
            rho_bc = partial_trace(rho, ("B", "C"))
            ef = eof_batch(concurrence(rho_bc))
            assert val >= ef - 1e-9
            if concurrence(rho_bc) > 1e-6:
                entangled += 1
                assert val <= ef + 1e-7
            assert len(basis.projectors) == 3
        assert entangled >= 4


class TestDiscord:
    def test_bell_mixture_zero(self):
        res = discord(bell_mixture(), AB)
        assert_allclose(res.discord, 0.0, atol=1e-8)

    def test_pure_fast_path(self):
        res = discord(bell_phi_plus().density(), AB)
        assert_allclose(res.discord, 1.0, atol=1e-12)
        assert res.best_basis is None
        assert res.optimizer_trace.restarts == 0

    def test_classically_correlated_zero(self):
        res = discord(classically_correlated(), AB)
        assert_allclose(res.discord, 0.0, atol=1e-8)
        assert_allclose(res.classical_correlation, res.mutual_information, atol=1e-8)

    def test_result_identities(self):
        rng = np.random.default_rng(8)
        res = discord(wishart_state(rng), AB)
        assert abs(res.discord - (res.mutual_information - res.classical_correlation)) <= 1e-12
        s_a = vn_entropy(partial_trace(wishart_state(np.random.default_rng(8)), ("A",)))
        assert abs(res.classical_correlation - (s_a - res.conditional_entropy)) <= 1e-12

    def test_pure_discord_equals_eof(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            psi = haar_pure(rng)
            res = discord(psi.density(), AB)
            assert abs(res.discord - eof_pure(psi, AB)) <= 1e-6

    def test_nonnegative_on_wishart(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            res = discord(wishart_state(rng), AB)
            assert res.discord >= -1e-6

    def test_trace_gap(self):
        rng = np.random.default_rng(2)
        res = discord(wishart_state(rng), AB)
        assert res.optimizer_trace.restarts >= 1
        assert res.optimizer_trace.gap >= 0.0
