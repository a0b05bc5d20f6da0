import csv
import io
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmono.measures import (
    _columns,
    _concurrence_sq,
    concurrence,
    concurrence_batch,
    conditional_entropy_min,
    conditional_entropy_qubit_batch,
    eof_batch,
)
from qmono.qcore import Bipartition, DensityMatrix, PureState, partial_trace, schmidt_sq_max, vn_entropy
from qmono.scan import (
    _CHUNK,
    ScanTable,
    SurfaceTable,
    delta_c_batch,
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
    symmetric_concurrence_closed_form,
    symmetric_ghz,
    w_class,
)

GHZ_PARAMS = [("theta", [np.pi / 4]), ("kappa", [0.0]), ("alpha", [np.pi / 2])]


class TestBatchKernels:
    def test_delta_d_matches_scalar(self):
        # against S_A - S(A|B) - S(A|C) by the grid-and-zoom search on the partial traces
        amps = haar_random_amplitudes(6, 19)
        batch = pure_scores_batch(amps)[0]
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
        # traces (1.1e-15 apart on these states)
        amps = haar_random_amplitudes(10, 29)
        batch = delta_c_batch(amps)
        for i in range(10):
            rho = PureState(amps[i], (2, 2, 2)).density()
            tangle = 4 * np.linalg.det(partial_trace(rho, "A").matrix).real
            c2 = [concurrence(partial_trace(rho, ("A", x))) ** 2 for x in "BC"]
            assert abs(batch[i] - (tangle - sum(c2))) <= 1e-13

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

    def test_batch_invariance(self):
        # a state's scores are bit-for-bit the same in any batch: the root finders
        # compare midpoint trees with one-state bisection by ==
        amps = haar_random_amplitudes(_CHUNK + 40, 61)
        whole = [*pure_scores_batch(amps), ggm_batch(amps)]
        batches = ((1, range(0, _CHUNK + 40, 97)), (7, (0, 3, 1000, _CHUNK + 33)), (_CHUNK + 3, (0, 37)))
        for size, starts in batches:
            for i in starts:
                part = [*pure_scores_batch(amps[i : i + size]), ggm_batch(amps[i : i + size])]
                for got, want in zip(part, whole):
                    assert np.array_equal(got, want[i : i + size])

    def test_batch_invariance_past_temporary_reuse(self):
        # from 16,384 states a complex column reaches numpy's 256 KB threshold for reusing
        # temporaries in place, whose products round differently: the kernels score in
        # _CHUNK-state pieces, so a large call still equals small ones bit for bit
        amps = haar_random_amplitudes(20_000, 62)
        whole = [*pure_scores_batch(amps), ggm_batch(amps)]
        pieces = [[*pure_scores_batch(amps[i : i + 100]), ggm_batch(amps[i : i + 100])] for i in range(0, 20_000, 100)]
        assert len(whole) == 8
        for got, want in zip(map(np.concatenate, zip(*pieces)), whole):
            assert np.array_equal(got, want)

    def test_edge_states_against_eigh(self):
        # the elementwise kernels against eigh-based Wootters on the marginals and
        # eigh-based single-site spectra, on states with exact zero amplitudes
        rng = np.random.default_rng(67)

        def unit(d):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            return v / np.linalg.norm(v)

        ket = {f"{i:03b}": np.eye(8)[i] for i in range(8)}
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        amps = np.array([
            ket["000"],
            _kron3(unit(2), unit(2), unit(2)),  # product
            GHZ,
            np.sqrt(0.3) * ket["000"] + 1j * np.sqrt(0.7) * ket["111"],
            (ket["001"] + ket["010"] + ket["100"]) / np.sqrt(3),  # W
            np.kron(KET0, bell),
            np.kron(bell, KET0),
            np.kron(unit(2), unit(4)),
            (ket["001"] + 1j * ket["010"]) / np.sqrt(2),
            (ket["011"] - ket["100"] + 2 * ket["110"]) / np.sqrt(6),
        ])
        dd, dc, s_a, cond_ab, cond_ac, c2_ab, c2_ac = pure_scores_batch(amps)
        rho_ab, rho_ac = _marginals(amps)
        c_ab, c_ac = concurrence_batch(rho_ab), concurrence_batch(rho_ac)
        for i, v in enumerate(amps):
            rho = PureState(v, (2, 2, 2)).density()
            spectra = [np.linalg.eigvalsh(partial_trace(rho, x).matrix) for x in "ABC"]
            s = -sum(e * np.log2(e) for e in spectra[0] if e > 1e-15)
            tangle = 4 * spectra[0][0] * spectra[0][1]
            ef_ab, ef_ac = eof_batch(c_ab[i]), eof_batch(c_ac[i])
            want = (s - ef_ab - ef_ac, tangle - c_ab[i] ** 2 - c_ac[i] ** 2, s, ef_ac, ef_ab)
            got = (dd[i], dc[i], s_a[i], cond_ab[i], cond_ac[i])
            assert_allclose(got, want, rtol=0, atol=1e-13)
            assert_allclose(np.sqrt([c2_ab[i], c2_ac[i]]), [c_ab[i], c_ac[i]], rtol=0, atol=1e-13)
            assert abs(ggm_batch(v)[0] - (1 - max(e[-1] for e in spectra))) <= 1e-13

    def test_concurrence_rank2_precision(self):
        # eigh-based Wootters on rank-2 rho_AB keeps full precision: it matches the
        # amplitude form sqrt(_concurrence_sq) of the purifying three-qubit state
        amps = haar_random_amplitudes(600, 71)
        rho_ab, _ = _marginals(amps)
        want = np.sqrt(_concurrence_sq(_columns(amps)))
        assert np.max(np.abs(concurrence_batch(rho_ab) - want)) <= 1e-13


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

    def test_non_finite_axis_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            grid_scan("ghz-sym", [("theta", [0.3, np.nan]), ("kappa", [0.0]), ("alpha", [0.5])])

    def test_whole_grid_equals_small_slabs(self):
        # 18,000 points, past the 16,384 states at which numpy starts reusing temporaries:
        # one scan of the whole grid equals its 100-row slabs bit for bit in every column
        theta, kappa = np.linspace(0.0, np.pi / 4, 30), np.linspace(0.0, 2 * np.pi, 30)
        alpha = np.linspace(0.0, np.pi / 2, 20)
        whole = grid_scan("ghz-sym", [("theta", theta), ("kappa", kappa), ("alpha", alpha)])
        slabs = [
            grid_scan("ghz-sym", [("theta", [t]), ("kappa", kappa[j : j + 5]), ("alpha", alpha)])
            for t in theta for j in range(0, 30, 5)
        ]
        assert len(whole) == 18_000 and {len(s) for s in slabs} == {100}
        for f in fields(whole)[1:]:
            assert np.array_equal(getattr(whole, f.name), np.concatenate([getattr(s, f.name) for s in slabs])), f.name

    def test_sym_residual_populated(self):
        # Prop 3's residual S_A / 2 - S(A|B) is delta_D / 2 on the permutation-symmetric family
        table = grid_scan("ghz-sym", GHZ_PARAMS)
        # GHZ point: S_A = 1, S(A|B) = 0, residual +1/2
        assert_allclose(table.delta_d[0] / 2, 0.5, atol=1e-6)
        axes = [np.linspace(0.0, np.pi / 4, 20), np.linspace(0.0, 2 * np.pi, 20), np.linspace(0.0, np.pi / 2, 20)]
        rows = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)  # faces included
        cond_ab, cond_ac = pure_scores_batch(family_states("ghz-sym", rows))[3:5]
        assert np.max(np.abs(cond_ab - cond_ac)) <= 1e-15


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
        before = pure_scores_batch(family_states(
            "ghz-sym", np.array([[0.4, 1.0, a] for a in np.linspace(0.05, c.location - 0.01, 8)])
        ))[0]
        after = pure_scores_batch(family_states(
            "ghz-sym", np.array([[0.4, 1.0, a] for a in np.linspace(c.location + 0.01, np.pi / 2, 8)])
        ))[0]
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
            assert np.all(np.sign(pure_scores_batch(family_states("ghz-sym", rows))[0]) == np.sign(step))
        assert np.all(pts.in_domain)
        assert np.all(pts.closed_form_residual <= 1e-4)

    def test_many_cells_equal_one_theta_at_a_time(self):
        # 80 cells presample 5,120 states, above _CHUNK, in one kernel call: the same table as
        # ten-cell calls, bit for bit, though those bisect more levels per call
        thetas, kappas = np.linspace(0.35, 0.75, 8), np.linspace(0.2, 2.8, 10)
        whole = surface_zero(thetas, kappas)
        parts = [surface_zero([t], kappas) for t in thetas]
        assert 80 * 64 > _CHUNK and len(whole) == 80
        for f in fields(whole):
            assert np.array_equal(getattr(whole, f.name), np.concatenate([getattr(p, f.name) for p in parts])), f.name

    def test_in_domain_with_the_faces(self):
        # theta = 0 and alpha = 0 rows presampled; kappa = pi (a zero vector at alpha = 0) left out
        pts = surface_zero(np.linspace(0.0, np.pi / 4, 5), np.linspace(0.0, 2 * np.pi, 6), alpha_lo=0.0)
        assert len(pts) and np.all(pts.in_domain)
        assert np.all(pts.closed_form_residual <= 1e-4)

    def test_residual_at_small_concurrence(self):
        # near theta = 0 the marginal concurrence is ~1e-2; 2 H(h) against 40 digits at the same
        # C (h = (1 + sqrt(1 - C^2)) / 2 formed in floats lost up to ~2.5e-15 here)
        mpmath = pytest.importorskip("mpmath")
        pts = surface_zero(np.linspace(0.02, 0.06, 5), np.linspace(0.0, 6.0, 5))
        rows = np.stack([pts.theta, pts.kappa, pts.alpha_star], axis=1)
        s_a = pure_scores_batch(family_states("ghz-sym", rows))[2]
        conc = symmetric_concurrence_closed_form(pts.theta, pts.kappa, pts.alpha_star)
        assert len(pts) == 25 and conc.max() < 0.02
        with mpmath.workdps(40):
            for c, sa, residual in zip(conc, s_a, pts.closed_form_residual):
                c = mpmath.mpf(float(c))
                p = c * c / (2 * (1 + mpmath.sqrt(1 - c * c)))  # the smaller branch probability
                two_h = 2 * (-p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2))
                assert abs(residual - float(abs(two_h - float(sa)))) <= 4e-16  # 1 - p rounds: 1.6e-16 per H


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

    @staticmethod
    def _csv_writer_bytes(header, columns) -> bytes:
        def field(v):
            if isinstance(v, (bool, np.bool_)):
                return "true" if v else "false"
            if isinstance(v, str):
                return v
            return "" if v is None or np.isnan(v) else f"{float(v):.9g}"

        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows([field(v) for v in row] for row in zip(*columns))
        return buf.getvalue().encode()

    def test_bytes_match_csv_writer(self, tmp_path):
        # write_csv formats whole blocks itself; csv.writer's default dialect is the oracle.
        # Column 0 holds NaN, columns 1-2 -0.0, +-inf and values printed with an exponent.
        params = np.array(
            [[0.1, -2.5e-7, 3.0], [np.nan, -0.0, 1e-300], [2.0, np.inf, -np.inf], [1e-05, 1e20, 123456789.5]]
        )
        scan_table = ScanTable(
            "ghz-sym", params, np.array([1e-5, np.nan, np.inf, -0.0]), np.array([-0.0, 0.25, 1e-05, 1e20]),
            np.array([0.5, 1 / 3, -np.inf, 2.0]), None, np.array([True, False, False, True]),
        )
        rng, n = np.random.default_rng(5), _CHUNK + 3  # two blocks
        spread = [rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n) for _ in range(4)]
        big = ScanTable("haar", np.arange(n, dtype=float)[:, None], *spread, rng.random(n) < 0.5)
        surface = SurfaceTable(
            np.array([0.3, 0.4]), np.array([1.0, 2.0]), np.array([0.7, 1.2]), np.array([1e-9, -3e-8]),
            np.array([0.2, 0.4]), np.array([5e-6, np.nan]), np.array([True, False]),
        )
        cases = [
            (surface, ["theta", "kappa", "alpha_star", "delta_D", "ggm", "closed_form_residual", "in_domain"],
             [getattr(surface, f.name) for f in fields(surface)]),
        ]
        with_mk = replace(scan_table, family="5%s%%", mk=np.array([1.5, np.nan, -np.inf, 2.0]))
        for table in (scan_table, with_mk, big):
            k, rows = table.params.shape[1], len(table)
            header = ["family", *(f"p{i + 1}" for i in range(k)), "delta_D", "delta_C", "ggm", "mk", "zero_band"]
            mk = [None] * rows if table.mk is None else table.mk
            columns = [[table.family] * rows, *table.params.T, table.delta_d, table.delta_c, table.ggm, mk]
            cases.append((table, header, columns + [table.zero_band]))
        for table, header, columns in cases:
            path = tmp_path / "t.csv"
            write_csv(table, path)
            assert path.read_bytes() == self._csv_writer_bytes(header, columns)

    def test_no_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")
