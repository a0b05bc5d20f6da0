import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmono import states
from qmono.measures import concurrence
from qmono.qcore import ZERO_NORM, PureState, partial_trace
from qmono.states import (
    FAMILY_PARAMS,
    PATH_GHZ_ENDPOINT,
    PATH_W_ENDPOINT,
    family_state,
    family_states,
    ghz_state,
    haar_random_amplitudes,
    symmetric_concurrence_closed_form,
    w_state,
)

from oracles import two_branch_amplitudes


class TestGHZClass:
    def test_maximal_point_is_ghz(self):
        psi = family_state("ghz", np.pi / 4, 0.0, np.pi / 2, np.pi / 2, np.pi / 2)
        assert_allclose(np.abs(psi.amplitudes), np.abs(ghz_state().amplitudes), atol=1e-12)

    def test_alpha_zero_face_is_product(self):
        psi = family_state("ghz", 0.3, 1.0, 0.0, 0.0, 0.0)
        expected = np.zeros(8)
        expected[0] = 1
        assert_allclose(np.abs(psi.amplitudes), expected, atol=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            family_state("ghz", 1.0, 0.0, 0.5, 0.5, 0.5)  # theta > pi/4
        with pytest.raises(ValueError):
            family_state("ghz", 0.3, 7.0, 0.5, 0.5, 0.5)  # kappa > 2pi

    def test_normalization_generic(self):
        psi = family_state("ghz", *PATH_GHZ_ENDPOINT)
        assert_allclose(np.linalg.norm(psi.amplitudes), 1.0, atol=1e-12)

    def test_symmetric_matches_general(self):
        sym = family_state("ghz-sym", 0.5, 2.0, 0.8)
        gen = family_state("ghz", 0.5, 2.0, 0.8, 0.8, 0.8)
        assert_allclose(sym.amplitudes, gen.amplitudes, atol=0)

    def test_symmetric_under_all_permutations(self):
        psi = family_state("ghz-sym", 0.6, 1.3, 1.1)
        t = psi.amplitudes.reshape(2, 2, 2)
        for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            assert np.max(np.abs(np.transpose(t, perm) - t)) <= 1e-14


class TestClosedFormConcurrence:
    def test_alpha_right_angle_gives_zero(self):
        assert_allclose(symmetric_concurrence_closed_form(0.5, 1.0, np.pi / 2), 0.0, atol=1e-12)

    def test_alpha_to_zero_vanishes(self):
        assert symmetric_concurrence_closed_form(0.5, 1.0, 1e-4) <= 1e-6

    def test_matches_wootters(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            th = rng.uniform(0.05, np.pi / 4)
            ka = rng.uniform(0.0, 2 * np.pi)
            al = rng.uniform(0.05, np.pi / 2)
            closed = symmetric_concurrence_closed_form(th, ka, al)
            rho = partial_trace(family_state("ghz-sym", th, ka, al).density(), ("A", "B"))
            assert abs(closed - concurrence(rho)) <= 1e-6

    def test_array_call_equals_scalar_calls(self):
        rng = np.random.default_rng(16)
        th = rng.uniform(0.0, np.pi / 4, 200)
        ka = rng.uniform(0.0, 2 * np.pi, 200)
        al = rng.uniform(0.0, np.pi / 2, 200)
        scalar = [symmetric_concurrence_closed_form(*x) for x in zip(th, ka, al)]
        assert np.array_equal(symmetric_concurrence_closed_form(th, ka, al), scalar)

    def test_against_40_digit_wootters(self):
        # near alpha = 0 and pi / 2 sqrt(lambda_1) - sqrt(lambda_2) cancels; the product does not
        mpmath = pytest.importorskip("mpmath")
        theta, kappa = 0.4, 1.0
        for alpha in (1e-3, np.pi / 2 - 1e-6):
            with mpmath.workdps(40):
                t, k, a = (mpmath.mpf(x) for x in (theta, kappa, alpha))
                phi = [mpmath.cos(a), mpmath.sin(a)]
                psi = [(mpmath.cos(t) if i == 0 else 0) + mpmath.expj(k) * mpmath.sin(t)
                       * phi[i >> 2] * phi[(i >> 1) & 1] * phi[i & 1] for i in range(8)]
                rho = mpmath.matrix(4, 4)  # rho_AB: trace out the last qubit
                for i in range(4):
                    for j in range(4):
                        rho[i, j] = sum(psi[2 * i + c] * mpmath.conj(psi[2 * j + c]) for c in (0, 1))
                rho /= sum(abs(x) ** 2 for x in psi)
                yy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
                lam = sorted((mpmath.sqrt(abs(mpmath.re(x))) for x in mpmath.eig(rho * yy * rho.conjugate() * yy)[0]),
                             reverse=True)
                exact = lam[0] - lam[1] - lam[2] - lam[3]
            closed = symmetric_concurrence_closed_form(theta, kappa, alpha)
            assert abs(closed - exact) <= 1e-14 * exact, alpha

    def test_finite_on_the_faces(self):
        # kappa = pi is left out: there theta = pi / 4, alpha = 0 is the zero vector
        th, ka, al = np.meshgrid(np.linspace(0.0, np.pi / 4, 9), np.linspace(0.0, 2 * np.pi, 10),
                                 np.linspace(0.0, np.pi / 2, 9), indexing="ij")
        conc = symmetric_concurrence_closed_form(th, ka, al)
        assert np.all((conc >= 0.0) & (conc <= 1.0))
        assert np.all(conc[0] == 0.0) and np.all(conc[:, :, 0] == 0.0)  # theta = 0, alpha = 0: product states


class TestWClass:
    def test_theta1_zero_is_product(self):
        psi = family_state("w", 0.0, 1.0, 2.0, 0.3, 0.4, 0.5)
        expected = np.zeros(8)
        expected[0] = 1
        assert_allclose(np.abs(psi.amplitudes), expected, atol=1e-12)

    def test_standard_w_from_half_angles(self):
        # equal weights need theta3 = pi/2 and tan(theta2/2) = sqrt(2)
        psi = family_state("w", np.pi, 2 * np.arctan(np.sqrt(2)), np.pi / 2, 0.0, 0.0, 0.0)
        assert_allclose(np.abs(psi.amplitudes), np.abs(w_state().amplitudes), atol=1e-12)

    def test_endpoint_normalized(self):
        psi = family_state("w", *PATH_W_ENDPOINT)
        assert_allclose(np.linalg.norm(psi.amplitudes), 1.0, atol=1e-12)


class TestPaths:
    def test_ghz_path_endpoints(self):
        start = family_state("path-ghz", 0.0)
        assert_allclose(start.amplitudes, family_state("ghz", *PATH_GHZ_ENDPOINT).amplitudes, atol=1e-12)
        end = family_state("path-ghz", np.pi / 2)
        assert_allclose(np.abs(end.amplitudes), np.abs(ghz_state().amplitudes), atol=1e-12)

    def test_w_path_endpoints(self):
        start = family_state("path-w-ghz", 0.0)
        assert_allclose(start.amplitudes, family_state("w", *PATH_W_ENDPOINT).amplitudes, atol=1e-12)
        end = family_state("path-w-ghz", np.pi / 2)
        assert_allclose(np.abs(end.amplitudes), np.abs(ghz_state().amplitudes), atol=1e-12)

    def test_midpoint_normalized(self):
        for path in ("path-ghz", "path-w-ghz"):
            psi = family_state(path, np.pi / 4)
            assert_allclose(np.linalg.norm(psi.amplitudes), 1.0, atol=1e-12)

    @pytest.mark.parametrize("family, kind, row", [("path-ghz", "ghz", PATH_GHZ_ENDPOINT),
                                                   ("path-w-ghz", "w", PATH_W_ENDPOINT)])
    def test_interpolates_a_fresh_endpoint_bit_for_bit(self, family, kind, row):
        mu = np.append(np.linspace(0.0, np.pi / 2, 41), np.random.default_rng(3).uniform(0, 2, 200))[:, None]
        ghz = np.zeros(8, dtype=complex)
        ghz[[0, 7]] = 1 / np.sqrt(2)
        want = np.cos(mu) * family_states(kind, [row])[0] + np.sin(mu) * ghz
        want /= np.linalg.norm(want, axis=1)[:, None]
        assert family_states(family, mu).tobytes() == want.tobytes()
        for cached in states._path_ends(family):  # built once, so no caller may write to them
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            family_state("path-ghz", -0.1)
        with pytest.raises(ValueError):
            family_state("path-w-ghz", 2.0)


@pytest.mark.parametrize("family", ["ghz", "ghz-sym"])
def test_two_branch_families_equal_the_eight_pass_oracle(family):
    # random rows over and past the ranges, then the theta = 0 face and each alpha_j = 0 face
    rng = np.random.default_rng(17)
    n_alpha = 3 if family == "ghz" else 1
    rows = rng.uniform(-1.0, 7.0, (12_000, 2 + n_alpha))
    rows[:1000, 0] = 0.0
    for j in range(n_alpha):
        rows[1000 * (j + 1) : 1000 * (j + 2), 2 + j] = 0.0
    rows[-500:, 2:] = 0.0
    assert family_states(family, rows).tobytes() == two_branch_amplitudes(family, rows).tobytes()


class TestHaar:
    def test_deterministic_per_seed(self):
        a = haar_random_amplitudes(1, 123)
        b = haar_random_amplitudes(1, 123)
        assert_allclose(a, b, atol=0)
        c = haar_random_amplitudes(1, 124)
        assert np.max(np.abs(a - c)) > 1e-3

    def test_normalized(self):
        amps = haar_random_amplitudes(100, 5)
        assert_allclose(np.linalg.norm(amps, axis=1), 1.0, atol=1e-12)

    def test_mean_single_site_purity(self):
        # Haar expectation of tr(rho_A^2) on C^2 (x) C^4 is (2 + 4) / (2*4 + 1) = 2/3
        amps = haar_random_amplitudes(20000, 42)
        p = amps.reshape(-1, 2, 4)
        rho = np.einsum("kam,kbm->kab", p, p.conj())
        purity = np.einsum("kab,kba->k", rho, rho).real
        assert abs(purity.mean() - 2 / 3) < 5e-3
        # independent second stream, direct per-sample loop
        rng = np.random.default_rng(777)
        total = 0.0
        n = 2000
        for _ in range(n):
            z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            z /= np.linalg.norm(z)
            m = z.reshape(2, 4)
            r = m @ m.conj().T
            total += float(np.trace(r @ r).real)
        assert abs(total / n - purity.mean()) < 2e-2


@pytest.mark.parametrize(
    "build",
    [
        lambda x: family_state("path-ghz", x),
        lambda x: family_state("path-w-ghz", x),
        lambda x: family_state("ghz", 0.3, 1.0, 0.5, x, 0.5),
    ],
    ids=["path-ghz", "path-w-ghz", "ghz-alpha"],
)
def test_one_range_slack(build):
    """Every [0, pi/2] parameter takes the same slack at both ends: 1e-13 out is a range end
    computed in floats, 1e-11 out is outside."""
    for x in (-1e-13, np.pi / 2 + 1e-13):
        build(x)
    for x in (-1e-11, np.pi / 2 + 1e-11):
        with pytest.raises(ValueError, match=r"=.* outside \[0, pi/2\]$"):
            build(x)


FAMILY_ROWS = {
    "ghz-sym": [(0.6, 2.2, 0.9), (0.0, 1.0, 0.4), (0.3, 1.0, 0.0)],
    "ghz": [PATH_GHZ_ENDPOINT, (0.0, 2.0, 0.1, 0.2, 0.3), (0.5, 4.0, 0.7, 0.0, 1.2)],
    "w": [PATH_W_ENDPOINT, (0.0, 1.0, 2.0, 0.3, 0.4, 0.5)],
    "path-ghz": [(0.0,), (0.4,), (np.pi / 2,)],
    "path-w-ghz": [(0.0,), (1.1,), (np.pi / 2,)],
}


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_family_state_is_a_batch_of_one(family):
    """``family_state`` is row 0 of ``family_states`` bit for bit, on the faces (theta = 0,
    alpha_j = 0, the paths' ends) as inside."""
    for row in FAMILY_ROWS[family]:
        psi = family_state(family, *row)
        assert psi.labels == ("A", "B", "C")
        assert psi.amplitudes.tobytes() == family_states(family, [row])[0].tobytes()


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_one_zero_norm(factor):
    """PureState and family_states call a vector the zero vector below the same norm.  At
    kappa = pi and alpha_j = 0 the ghz family's one amplitude is cos(theta) - sin(theta),
    about sqrt(2) (pi/4 - theta), so theta sets the norm just inside or outside ZERO_NORM."""
    theta = np.pi / 4 - factor * ZERO_NORM / np.sqrt(2)
    amps = np.zeros(8, dtype=complex)
    amps[0] = np.cos(theta) + np.exp(1j * np.pi) * np.sin(theta)  # family_states' unnormalized |000>
    is_zero = abs(amps[0]) < ZERO_NORM
    assert is_zero == (factor < 1)
    for build in (
        lambda: family_states("ghz", [[theta, np.pi, 0.0, 0.0, 0.0]])[0],
        lambda: PureState(amps, (2, 2, 2)).amplitudes,
    ):
        if is_zero:
            with pytest.raises(ValueError, match="zero vector"):
                build()
        else:
            assert_allclose(abs(build()[0]), 1.0, atol=1e-15)
