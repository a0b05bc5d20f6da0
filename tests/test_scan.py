import csv
from dataclasses import astuple, fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmono.measures import (
    concurrence,
    concurrence_batch,
    conditional_entropy_min,
    conditional_entropy_qubit_batch,
)
from qmono.qcore import Bipartition, DensityMatrix, PureState, partial_trace, schmidt_sq_max, vn_entropy
from qmono.scan import (
    delta_c_batch,
    delta_d_batch,
    family_states,
    find_zero_crossings,
    ggm_batch,
    grid_scan,
    path_trace,
    prop4_check,
    pure_scores_batch,
    sample_experiment,
    surface_zero,
    write_csv,
    _marginals,
)
from qmono.states import (
    PATH_W_ENDPOINT,
    ghz_state,
    haar_random_amplitudes,
    path_w_ghz,
    symmetric_ghz,
    w_class,
)

GHZ_PARAMS = [("theta", [np.pi / 4]), ("kappa", [0.0]), ("alpha", [np.pi / 2])]


class TestBatchKernels:
    def test_delta_d_matches_scalar(self):
        # against S_A - S(A|B) - S(A|C) by the grid-and-zoom search on the partial traces
        amps = haar_random_amplitudes(6, 19)
        batch = delta_d_batch(amps)
        for i in range(6):
            rho = PureState(amps[i], (2, 2, 2)).density()
            search = vn_entropy(partial_trace(rho, "A")) - sum(
                conditional_entropy_min(partial_trace(rho, ("A", x)), Bipartition(("A",), (x,)))[0]
                for x in "BC"
            )
            assert abs(batch[i] - search) <= 1e-7

    def test_ggm_matches_scalar(self):
        # against the Schmidt coefficients of the three single-site cuts
        amps = haar_random_amplitudes(10, 23)
        batch = ggm_batch(amps)
        for i in range(10):
            psi = PureState(amps[i], (2, 2, 2))
            cuts = [Bipartition((x,), tuple(y for y in "ABC" if y != x)) for x in "ABC"]
            assert abs(batch[i] - (1 - max(schmidt_sq_max(psi, c) for c in cuts))) <= 1e-12

    def test_delta_c_matches_scalar(self):
        # against 4 det(rho_A) and the eigh form of ``concurrence`` on the partial
        # traces; the two concurrence paths agree to the sqrt-of-eigenvalue noise floor
        amps = haar_random_amplitudes(10, 29)
        batch = delta_c_batch(amps)
        for i in range(10):
            rho = PureState(amps[i], (2, 2, 2)).density()
            tangle = 4 * np.linalg.det(partial_trace(rho, "A").matrix).real
            c2 = [concurrence(partial_trace(rho, ("A", x))) ** 2 for x in "BC"]
            assert abs(batch[i] - (tangle - sum(c2))) <= 5e-8

    def test_concurrence_matches_scalar(self):
        rng = np.random.default_rng(31)
        rhos = []
        for _ in range(10):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            rhos.append(m / np.trace(m).real)
        batch = concurrence_batch(np.stack(rhos))
        for i, m in enumerate(rhos):
            assert abs(batch[i] - concurrence(DensityMatrix(m, (2, 2)))) <= 1e-9

    def test_closed_form_against_optimizer(self):
        # the grid-and-zoom minimizer bounds each S(A|X) from above, so its
        # delta_D sits at or just below the Koashi-Winter closed form
        rng = np.random.default_rng(53)
        n = 2000
        rows = np.stack(
            [rng.uniform(0.02, np.pi / 4, n), rng.uniform(0.0, 2 * np.pi, n),
             rng.uniform(0.02, np.pi / 2, n)],
            axis=1,
        )
        amps = np.concatenate([haar_random_amplitudes(n, 51), family_states("ghz-sym", rows)])
        for i in range(0, len(amps), 1000):
            part = amps[i : i + 1000]
            closed, _, s_a = pure_scores_batch(part)[:3]
            rho_ab, rho_ac = _marginals(part)
            optimized = (
                s_a - conditional_entropy_qubit_batch(rho_ab) - conditional_entropy_qubit_batch(rho_ac)
            )
            gap = optimized - closed
            assert gap.min() >= -1e-6 and gap.max() <= 1e-12
            clear = np.abs(closed) > 1e-6
            assert np.array_equal(np.sign(optimized[clear]), np.sign(closed[clear]))

    def test_delta_c_nonnegative_large_sample(self):
        amps = haar_random_amplitudes(10000, 47)
        assert delta_c_batch(amps).min() >= -1e-9


def _kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


KET0, KET1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
GHZ = (_kron3(KET0, KET0, KET0) + _kron3(KET1, KET1, KET1)) / np.sqrt(2)


def _two_branch(theta, kappa, a1, a2, a3):
    """cos(theta)|000> + e^{i kappa} sin(theta)|f1 f2 f3>, |f> = cos(a)|0> + sin(a)|1>, normalized."""
    branch = _kron3(*(np.cos(a) * KET0 + np.sin(a) * KET1 for a in (a1, a2, a3)))
    v = np.cos(theta) * _kron3(KET0, KET0, KET0) + np.exp(1j * kappa) * np.sin(theta) * branch
    return v / np.linalg.norm(v)


def _w_class(t1, t2, t3, p1, p2, p3):
    """The four-term W-class superposition on |000>, |001>, |010>, |100>."""
    s1, s2, s3 = np.sin(t1 / 2), np.sin(t2 / 2), np.sin(t3 / 2)
    c1, c2, c3 = np.cos(t1 / 2), np.cos(t2 / 2), np.cos(t3 / 2)
    return (
        c1 * _kron3(KET0, KET0, KET0)
        + s1 * s2 * c3 * np.exp(1j * p1) * _kron3(KET0, KET0, KET1)
        + s1 * s2 * s3 * np.exp(1j * p2) * _kron3(KET0, KET1, KET0)
        + s1 * c2 * np.exp(1j * p3) * _kron3(KET1, KET0, KET0)
    )


def _path(end, mu):
    v = np.cos(mu) * end + np.sin(mu) * GHZ
    return v / np.linalg.norm(v)


class TestFamilyStates:
    """``family_states`` against the paper's amplitudes written out with np.kron."""

    def test_ghz_sym_matches_generator(self):
        rows = np.array([[0.5, 2.0, 0.8], [0.3, 1.0, 1.2]])
        amps = family_states("ghz-sym", rows)
        for (theta, kappa, alpha), a in zip(rows, amps):
            assert_allclose(a, _two_branch(theta, kappa, alpha, alpha, alpha), atol=1e-14)
        row = (0.7, 3.06, 0.55, 0.56, 0.63)
        assert_allclose(family_states("ghz", [row])[0], _two_branch(*row), atol=1e-14)

    def test_w_matches_generator(self):
        row = np.array([list((3.25, 4.38, 11.02, 4.16, 3.98, 2.45))])
        amps = family_states("w", row)
        assert_allclose(amps[0], _w_class(*row[0]), atol=1e-14)

    def test_path_matches_generator(self):
        ghz_end = _two_branch(0.7, 3.06, 0.55, 0.56, 0.63)
        w_end = _w_class(3.25, 4.38, 11.02, 4.16, 3.98, 2.45)
        for mu in (0.0, 0.3, 1.2, np.pi / 2):
            assert_allclose(family_states("path-ghz", [[mu]])[0], _path(ghz_end, mu), atol=1e-14)
            assert_allclose(family_states("path-w-ghz", [[mu]])[0], _path(w_end, mu), atol=1e-14)

    def test_constructors_match_generator(self):
        sym = _two_branch(0.5, 2.0, 0.8, 0.8, 0.8)
        assert_allclose(symmetric_ghz(0.5, 2.0, 0.8).amplitudes, sym, atol=1e-14)
        w_end = _w_class(*astuple(PATH_W_ENDPOINT))
        assert_allclose(w_class(PATH_W_ENDPOINT).amplitudes, w_end, atol=1e-14)
        assert_allclose(path_w_ghz(0.4).amplitudes, _path(w_end, 0.4), atol=1e-14)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_states("nope", np.zeros((1, 3)))

    def test_zero_vector_rejected(self):
        # theta = pi/4, kappa = pi, alpha_j = 0 collapses the superposition
        with pytest.raises(ValueError, match="zero vector"):
            family_states("ghz-sym", np.array([[np.pi / 4, np.pi, 0.0]]))


class TestGridScan:
    def test_single_point_ghz(self):
        table = grid_scan("ghz-sym", GHZ_PARAMS, mk_mode="closed")
        assert len(table) == 1
        assert_allclose(table.delta_d[0], 1.0, atol=1e-6)
        assert_allclose(table.ggm[0], 0.5, atol=1e-9)
        assert_allclose(table.mk[0], 2.0, atol=1e-12)
        assert not table.zero_band[0]

    def test_theta_zero_face_all_zero_band(self):
        axes = [("theta", [0.0]), ("kappa", [0.0, 1.0]), ("alpha", [0.3, 0.9, 1.5])]
        table = grid_scan("ghz-sym", axes)
        assert len(table) == 6
        for delta_d, zero_band, ggm_ in zip(table.delta_d, table.zero_band, table.ggm):
            assert abs(delta_d) <= 1e-6
            assert zero_band
            assert ggm_ <= 1e-8

    def test_ggm_rises_along_alpha_line(self):
        axes = [("theta", [np.pi / 4]), ("kappa", [0.2]), ("alpha", np.linspace(0.1, np.pi / 2, 12))]
        vals = grid_scan("ghz-sym", axes).ggm.tolist()
        assert vals[-1] > vals[0]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_row_major_ordering(self):
        axes = [("theta", [0.2, 0.4]), ("kappa", [0.0, 1.0]), ("alpha", [0.5])]
        params = [tuple(p) for p in grid_scan("ghz-sym", axes).params.tolist()]
        assert params == [
            (0.2, 0.0, 0.5), (0.2, 1.0, 0.5), (0.4, 0.0, 0.5), (0.4, 1.0, 0.5),
        ]

    def test_determinism(self):
        axes = [("theta", [0.3]), ("kappa", [1.0]), ("alpha", np.linspace(0.2, 1.5, 5))]
        a = grid_scan("ghz-sym", axes)
        b = grid_scan("ghz-sym", axes)
        assert a.family == b.family
        for f in fields(a)[1:]:
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    def test_unknown_mk_mode_rejected(self):
        with pytest.raises(ValueError, match="'closed', 'optimize', 'skip'.*'optimise'"):
            grid_scan("ghz-sym", GHZ_PARAMS, mk_mode="optimise")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            grid_scan("ghz-sym", [("theta", []), ("kappa", [0.0]), ("alpha", [0.5])])

    def test_sym_residual_populated(self):
        table = grid_scan("ghz-sym", GHZ_PARAMS)
        # GHZ point: S_A = 1, S(A|B) = 0, residual +1/2
        assert_allclose(table.sym_residual[0], 0.5, atol=1e-6)


class TestZeroCrossings:
    def test_fig2_line_single_interior_crossing(self):
        crossings = find_zero_crossings(
            "ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha", 1e-3, np.pi / 2,
        )
        assert len(crossings) == 1
        c = crossings[0]
        assert c.width <= 1e-6
        assert c.delta_lo < 0 < c.delta_hi
        # negative before, positive after, all the way to the ends
        before = delta_d_batch(family_states(
            "ghz-sym", np.array([[0.4, 1.0, a] for a in np.linspace(0.05, c.location - 0.01, 8)])
        ))
        after = delta_d_batch(family_states(
            "ghz-sym", np.array([[0.4, 1.0, a] for a in np.linspace(c.location + 0.01, np.pi / 2, 8)])
        ))
        assert np.all(before < 0)
        assert np.all(after > 0)

    def test_ghz_path_three_crossings(self):
        crossings = find_zero_crossings("path-ghz", {}, "mu", 0.0, np.pi / 2, presample=200)
        assert len(crossings) == 3
        for c in crossings:
            assert c.width <= 1e-6

    def test_w_path_single_crossing(self):
        crossings = find_zero_crossings("path-w-ghz", {}, "tau", 0.0, np.pi / 2, presample=200)
        assert len(crossings) == 1

    def test_no_crossing_empty(self):
        crossings = find_zero_crossings(
            "ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha", 1.0, 1.5,
        )
        assert crossings == []

    def test_missing_fixed_param(self):
        with pytest.raises(ValueError, match="missing"):
            find_zero_crossings("ghz-sym", {"theta": 0.4}, "alpha", 0.1, 1.5)


class TestSurfaceZero:
    def test_matches_line_crossing(self):
        line = find_zero_crossings("ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha", 1e-3, np.pi / 2)
        pts = surface_zero([0.4], [1.0])
        assert len(pts) == 1
        assert abs(pts.alpha_star[0] - line[0].location) <= 1e-5

    def test_sign_structure_and_residuals(self):
        pts = surface_zero(np.linspace(0.2, np.pi / 4, 4), np.linspace(0.0, 2 * np.pi, 5))
        assert len(pts)
        assert np.all(np.abs(pts.delta_d) <= 1e-4)
        # negative just below the surface, positive just above
        for step in (-0.05, 0.05):
            rows = np.stack([pts.theta, pts.kappa, pts.alpha_star + step], axis=1)
            assert np.all(np.sign(delta_d_batch(family_states("ghz-sym", rows))) == np.sign(step))
        assert np.all(pts.in_domain)
        assert np.all(pts.closed_form_residual <= 1e-4)


class TestSampleExperiment:
    def test_deterministic(self):
        a = sample_experiment(500, seed=7)
        b = sample_experiment(500, seed=7)
        assert a == b

    def test_single_sample_echo(self):
        s = sample_experiment(1, seed=3)
        assert s.n == 1
        assert s.band_count in (0, 1)
        assert 0.0 <= s.max_ggm_overall <= 0.5

    def test_band_statistics(self):
        s = sample_experiment(2000, seed=11, epsilon=1e-2)
        assert 0 < s.band_count < 2000
        assert s.max_ggm_in_band <= s.max_ggm_overall
        assert sum(s.delta_hist[1]) == 2000

    def test_per_sample_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        s = sample_experiment(50, seed=5, per_sample_path=path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family", "p1", "delta_D", "delta_C", "ggm", "mk", "zero_band"]
        assert len(rows) == 51
        assert rows[1][0] == "haar"


class TestPathTrace:
    def test_endpoints(self):
        table = path_trace("ghz", 9, mk_mode="skip")
        assert len(table) == 9
        assert table.delta_d[0] < 0
        assert_allclose(table.delta_d[-1], 1.0, atol=1e-6)
        assert_allclose(table.ggm[-1], 0.5, atol=1e-9)

    def test_w_path_ghz_endpoint(self):
        table = path_trace("w-ghz", 5, mk_mode="skip")
        assert_allclose(table.ggm[-1], 0.5, atol=1e-9)

    def test_with_mk_optimize(self):
        table = path_trace("ghz", 3, mk_mode="optimize", mk_restarts=6)
        assert table.mk is not None and np.all(table.mk > 0.5)
        assert_allclose(table.mk[-1], 2.0, atol=1e-3)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            path_trace("ghz", 1)

    def test_unknown_path(self):
        with pytest.raises(ValueError):
            path_trace("spiral", 5)


class TestProp4:
    def test_product_state(self):
        amps = np.zeros(8)
        amps[0] = 1
        res = prop4_check(PureState(amps, (2, 2, 2)), "A")
        assert res.lhs == pytest.approx(0.0, abs=1e-9)
        assert res.rhs == pytest.approx(0.0, abs=1e-9)
        assert res.satisfied
        assert res.precondition_met
        assert res.equality_residual <= 1e-9

    def test_ghz_out_of_scope(self):
        res = prop4_check(ghz_state(), "A")
        assert not res.precondition_met  # delta_D = 1: the claim does not apply
        assert res.lhs == pytest.approx(0.0, abs=1e-9)
        assert res.rhs == pytest.approx(1.0, abs=1e-9)
        assert not res.satisfied

    def test_surface_points_equality(self):
        pts = surface_zero([0.35, np.pi / 4], [0.5, 2.5])
        for theta, kappa, alpha in zip(pts.theta, pts.kappa, pts.alpha_star):
            psi = symmetric_ghz(theta, kappa, alpha)
            res = prop4_check(psi, "A")
            assert res.precondition_met
            assert res.satisfied
            assert res.equality_residual <= 1e-4


class TestCsv:
    def test_format(self, tmp_path):
        table = grid_scan("ghz-sym", GHZ_PARAMS, mk_mode="closed")
        path = tmp_path / "out.csv"
        write_csv(table, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family", "p1", "p2", "p3", "delta_D", "delta_C", "ggm", "mk", "zero_band"]
        assert rows[1][0] == "ghz-sym"
        assert rows[1][-1] == "false"
        # nine significant digits
        assert rows[1][4] == f"{table.delta_d[0]:.9g}"

    def test_skipped_mk_empty_field(self, tmp_path):
        table = path_trace("ghz", 3, mk_mode="skip")
        path = tmp_path / "path.csv"
        write_csv(table, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert all(row[5] == "" for row in rows[1:])

    def test_bit_identical_across_runs(self, tmp_path):
        axes = [("theta", [0.3]), ("kappa", [1.0]), ("alpha", np.linspace(0.2, 1.5, 4))]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(grid_scan("ghz-sym", axes), p1)
        write_csv(grid_scan("ghz-sym", axes), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")
