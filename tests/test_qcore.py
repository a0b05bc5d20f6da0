import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmono.qcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    binary_entropy,
    load_state,
    partial_trace,
    save_state,
    state_from_dict,
    state_to_dict,
    vn_entropy,
    xlog2x,
)
from qmono.states import haar_random_amplitudes

from oracles import cut_of

def ghz():
    a = np.zeros(8)
    a[0] = a[7] = 1
    return PureState(a, (2, 2, 2))


def w_state():
    a = np.zeros(8)
    a[1] = a[2] = a[4] = 1
    return PureState(a, (2, 2, 2))


def bell_phi_plus():
    return PureState([1, 0, 0, 1], (2, 2))


def random_density(rng, dim, n_parties_dims):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, n_parties_dims)


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPureState:
    def test_normalizes(self):
        psi = PureState([2, 0, 0, 0], (2, 2))
        assert_allclose(np.abs(psi.amplitudes) ** 2 @ np.ones(4), 1.0, atol=1e-12)

    def test_index_convention_party_a_most_significant(self):
        # |011> for three qubits sits at index 0*4 + 1*2 + 1 = 3
        amps = np.zeros(8)
        amps[3] = 1
        psi = PureState(amps, (2, 2, 2))
        rho_a = partial_trace(psi.density(), "A").matrix
        assert_allclose(rho_a, np.diag([1, 0]), atol=1e-12)
        rho_c = partial_trace(psi.density(), "C").matrix
        assert_allclose(rho_c, np.diag([0, 1]), atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PureState([1, 0, 0], (2, 2))

    def test_default_labels(self):
        assert ghz().labels == ("A", "B", "C")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState([1.0, bad, 0.0, 0.0], (2, 2))

    def test_normalized_vector_keeps_its_bits(self, tmp_path):
        # its norm misses 1 by rounding only, and dividing by that norm would move the last bits
        path = tmp_path / "psi.json"
        for amps in haar_random_amplitudes(1000, 0):
            psi = PureState(amps, (2, 2, 2))
            save_state(psi, path)
            assert psi.amplitudes.tobytes() == amps.tobytes() == load_state(path).amplitudes.tobytes()
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[1] = complex(-0.0, 0.0), 1.0
        psi = PureState(amps, (2, 2, 2))
        amps[1] = 0.0  # the state holds a copy
        assert np.signbit(psi.amplitudes[0].real) and psi.amplitudes[1] == 1.0


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, (2,))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (2,))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_party_rule_shared_with_pure_states(self):
        # one rule for both kinds: a (1, 1) matrix with dims (-1, -1) no longer constructs
        for make in (lambda *p: PureState([1.0], *p), lambda *p: DensityMatrix(np.eye(1), *p)):
            with pytest.raises(ValueError, match="positive"):
                make((-1, -1))
            with pytest.raises(ValueError, match="distinct"):
                make((1, 1), ("A", "A"))
            assert make((1, 1)).labels == ("A", "B") and make((1, 1)).index_of("B") == 1
            with pytest.raises(ValueError, match="unknown party label 'Q'"):
                make((1, 1)).index_of("Q")

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.full((2, 2), np.nan), (2,))
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.diag([np.inf, 0.5]), (2,))

    @pytest.mark.parametrize("dims", [(2.5, 2, 2), (2.0, 2, 2), "222", (True, 2, 2), (np.float64(2), 2, 2)])
    def test_dims_must_be_integers(self, dims):
        # int() would make 2.5 a qubit, "222" three qubits and True a dimension of 1
        n = 4 if dims[0] is True else 8
        for make in (lambda d: PureState(np.ones(n), d), lambda d: DensityMatrix(np.eye(n) / n, d)):
            with pytest.raises(ValueError, match="integers"):
                make(dims)

    def test_numpy_integer_dims_accepted(self):
        psi = PureState(np.ones(8), tuple(np.array([2, 2, 2])))
        assert psi.dims == (2, 2, 2) and all(type(d) is int for d in psi.dims)

    def test_purity(self):
        assert ghz().density().is_pure()
        half = DensityMatrix(np.eye(2) / 2, (2,))
        assert not half.is_pure()


class TestBipartition:
    def test_requires_nonempty_disjoint(self):
        with pytest.raises(ValueError):
            Bipartition((), ("A",))
        with pytest.raises(ValueError):
            Bipartition(("A",), ("A", "B"))

    def test_of_complement(self):
        cut = cut_of(("A", "B", "C"), ("B",))
        assert cut.side_one == ("B",)
        assert cut.side_two == ("A", "C")

    def test_coverage_check(self):
        cut = Bipartition(("A",), ("B",))
        with pytest.raises(ValueError):
            cut.check_covers(("A", "B", "C"))


class TestPartialTrace:
    def test_ghz_single_site(self):
        rho = partial_trace(ghz().density(), "A")
        assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_bell_marginal_maximally_mixed(self):
        rho = partial_trace(bell_phi_plus().density(), "A")
        assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_w_single_site(self):
        rho = partial_trace(w_state().density(), "A")
        assert_allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_errors(self):
        rho = ghz().density()
        for keep in (set(), {"Q"}, {"A", "Q"}, ("A", "A"), ("B", "A", "B"), ()):
            with pytest.raises(ValueError):
                partial_trace(rho, keep)

    def test_order_of_keep(self):
        # a tuple orders the kept parties; a set or a single label keeps label order
        rng = np.random.default_rng(3)
        rho = random_density(rng, 12, (3, 2, 2))
        t = rho.matrix.reshape(3, 2, 2, 3, 2, 2)  # rows a b c, columns d e f
        direct = {
            ("C", "A"): np.einsum("abcdbf->cafd", t).reshape(6, 6),
            ("B", "A"): np.einsum("abcdec->baed", t).reshape(6, 6),
            ("C", "B", "A"): np.einsum("abcdef->cbafed", t).reshape(12, 12),
        }
        for keep, want in direct.items():
            got = partial_trace(rho, keep)
            assert got.labels == keep and got.dims == tuple(rho.dims[rho.index_of(l)] for l in keep)
            assert np.array_equal(got.matrix, want)
        for keep in ({"C", "A"}, frozenset(("C", "A"))):
            assert np.array_equal(partial_trace(rho, keep).matrix, partial_trace(rho, ("A", "C")).matrix)
        assert partial_trace(rho, "B").labels == ("B",)

    def test_composition_matches_single_shot(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            rho = random_density(rng, 8, (2, 2, 2))
            two_step = partial_trace(partial_trace(rho, ("A", "B")), ("A",))
            one_shot = partial_trace(rho, ("A",))
            assert np.max(np.abs(two_step.matrix - one_shot.matrix)) <= 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 8, (2, 2, 2))
        assert_allclose(np.trace(partial_trace(rho, ("B",)).matrix).real, 1.0, atol=1e-12)


class TestPermuteParties:
    # a reorder is partial_trace with every label, in the new order

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 8, (2, 2, 2))
        swapped = partial_trace(rho, ("B", "C", "A"))
        assert swapped.labels == ("B", "C", "A")
        back = partial_trace(swapped, ("A", "B", "C"))
        assert np.array_equal(back.matrix, rho.matrix)
        assert back.labels == rho.labels

    def test_marginal_agrees(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 8, (2, 2, 2))
        direct = partial_trace(rho, ("C",))
        via_perm = partial_trace(partial_trace(rho, ("C", "A", "B")), ("C",))
        assert_allclose(direct.matrix, via_perm.matrix, atol=1e-13)


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert_allclose(vn_entropy(DensityMatrix(np.eye(2) / 2, (2,))), 1.0, atol=1e-12)

    def test_pure_projector(self):
        assert_allclose(vn_entropy(ghz().density()), 0.0, atol=1e-12)

    def test_two_thirds_one_third(self):
        rho = DensityMatrix(np.diag([2 / 3, 1 / 3]), (2,))
        # H(1/3) = log2(3) - 2/3, an exact closed form
        assert_allclose(vn_entropy(rho), np.log2(3) - 2 / 3, atol=1e-12)

    def test_binary_entropy_matches(self):
        assert_allclose(binary_entropy(1 / 3), np.log2(3) - 2 / 3, atol=1e-12)
        assert binary_entropy(0.0) == 0.0

    def test_binary_entropy_keeps_nan_and_ends(self):
        out = binary_entropy(np.array([np.nan, 0.0, 1.0, 0.5]))
        assert np.isnan(out[0])
        assert out[1] == 0.0 and out[2] == 0.0 and out[3] == 1.0
        assert np.isnan(binary_entropy(np.nan)) and binary_entropy(1.0) == 0.0
        # CSVs print the sign of a zero entropy: the ends stay -0.0
        assert np.signbit([out[1], out[2], binary_entropy(0.0), binary_entropy(1.0)]).all()

    def test_binary_entropy_relative_precision(self):
        # against 40 digits from p = 2e-15 to 1/2, where 1 - p drops p's low bits
        mpmath = pytest.importorskip("mpmath")
        ps = np.append(np.geomspace(2e-15, 0.5, 200), [1e-3, 0.25, 1 / 3, 0.4999])
        got = binary_entropy(ps)
        with mpmath.workdps(40):
            for p, h in zip(ps, got):
                q = mpmath.mpf(float(p))
                want = -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2)
                assert abs(h - want) <= 1e-14 * want, p

    def test_unitary_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            rho = random_density(rng, 4, (2, 2))
            u = random_unitary(rng, 4)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
            assert abs(vn_entropy(rotated) - vn_entropy(rho)) <= 1e-9

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            vn_entropy(np.diag([1.5, -0.5]))

    def test_reads_the_checked_spectrum(self):
        rng = np.random.default_rng(8)
        for dim, dims in ((2, (2,)), (4, (2, 2)), (8, (2, 2, 2)), (12, (3, 2, 2))):
            rho = random_density(rng, dim, dims)
            want = 0.0 - xlog2x(np.clip(np.linalg.eigvalsh(rho.matrix), 0, None)).sum()
            assert vn_entropy(rho) == want
            assert vn_entropy(rho.matrix) == want  # a raw matrix is checked the same way
            assert not rho.spectrum.flags.writeable
            with pytest.raises(ValueError):
                rho.spectrum[0] = 1.0

    def test_strong_subadditivity(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            rho = random_density(rng, 8, (2, 2, 2))
            s_ab = vn_entropy(partial_trace(rho, ("A", "B")))
            s_ac = vn_entropy(partial_trace(rho, ("A", "C")))
            s_b = vn_entropy(partial_trace(rho, ("B",)))
            s_c = vn_entropy(partial_trace(rho, ("C",)))
            assert s_ab + s_ac - s_b - s_c >= -1e-9

    def test_pure_state_complementary_entropies(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            rho = PureState(z, (2, 2, 2)).density()
            for pair, single in ((("A", "B"), "C"), (("A", "C"), "B"), (("B", "C"), "A")):
                s_pair = vn_entropy(partial_trace(rho, pair))
                s_single = vn_entropy(partial_trace(rho, (single,)))
                assert abs(s_pair - s_single) <= 1e-10


def top_schmidt_sq(psi, cut):
    """Largest squared Schmidt coefficient across ``cut``: the top of one side's spectrum."""
    return partial_trace(psi.density(), cut.side_one).spectrum[-1]


class TestSchmidt:
    def test_ghz_half(self):
        cut = Bipartition(("A",), ("B", "C"))
        assert_allclose(top_schmidt_sq(ghz(), cut), 0.5, atol=1e-12)

    def test_product_state(self):
        amps = np.zeros(8)
        amps[0] = 1
        psi = PureState(amps, (2, 2, 2))
        for side in ("A", "B", "C"):
            cut = cut_of(psi.labels, (side,))
            assert_allclose(top_schmidt_sq(psi, cut), 1.0, atol=1e-12)

    def test_w_two_thirds(self):
        cut = Bipartition(("A",), ("B", "C"))
        assert_allclose(top_schmidt_sq(w_state(), cut), 2 / 3, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(9)
        cut = Bipartition(("A",), ("B", "C"))
        for _ in range(50):
            z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            val = top_schmidt_sq(PureState(z, (2, 2, 2)), cut)
            assert 0.5 - 1e-12 <= val <= 1.0 + 1e-12


class TestStateFiles:
    def test_pure_round_trip(self, tmp_path):
        psi = ghz()
        path = tmp_path / "ghz.json"
        save_state(psi, path)
        loaded = load_state(path)
        assert isinstance(loaded, PureState)
        assert loaded.dims == (2, 2, 2)
        assert_allclose(loaded.amplitudes, psi.amplitudes, atol=1e-15)

    def test_density_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 4, (2, 2))
        path = tmp_path / "rho.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert isinstance(loaded, DensityMatrix)
        assert_allclose(loaded.matrix, rho.matrix, atol=1e-15)

    def test_dict_format(self):
        d = state_to_dict(bell_phi_plus())
        assert d["dims"] == [2, 2]
        assert d["labels"] == ["A", "B"]
        s = 1 / np.sqrt(2)
        assert_allclose(d["amplitudes"], [[s, 0], [0, 0], [0, 0], [s, 0]], atol=1e-12)

    def test_bad_dict_rejected(self):
        with pytest.raises(ValueError):
            state_from_dict({"dims": [2]})

    def test_round_trip_keeps_every_bit(self):
        # signed zeros included: the pairs are read as one float array viewed as complex, as
        # complex(re, im) reads each pair (re + 1j * im would turn a -0.0 real part into +0.0)
        pure = {"dims": [2, 2], "labels": ["A", "B"],
                "amplitudes": [[0.6, -0.0], [-0.0, -0.8], [0.0, -0.0], [0.0, 0.0]]}
        rows = [[[0.5, 0.0], [-0.0, -0.0]], [[-0.0, 0.0], [0.5, -0.0]]]
        mixed = {"dims": [2], "labels": ["A"], "matrix": rows}
        for data in (pure, mixed):
            field = "amplitudes" if "amplitudes" in data else "matrix"
            state = state_from_dict(data)
            pairs = np.array([complex(re, im) for re, im in np.reshape(data[field], (-1, 2))])
            want = type(state)(pairs.reshape(getattr(state, field).shape), data["dims"])
            assert getattr(state, field).tobytes() == getattr(want, field).tobytes()
            again = state_from_dict(state_to_dict(state))
            assert getattr(again, field).tobytes() == getattr(state, field).tobytes()
            assert json.dumps(state_to_dict(state)) == json.dumps(data)
