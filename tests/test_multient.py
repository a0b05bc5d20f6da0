import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmono.measures import ggm
from qmono.qcore import PureState, partial_trace


def ghz():
    a = np.zeros(8)
    a[0] = a[7] = 1
    return PureState(a, (2, 2, 2))


def w_state():
    a = np.zeros(8)
    a[1] = a[2] = a[4] = 1
    return PureState(a, (2, 2, 2))


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_ghz_half():
    assert_allclose(ggm(ghz()), 0.5, atol=1e-9)


def test_product_zero():
    amps = np.zeros(8)
    amps[0] = 1
    assert_allclose(ggm(PureState(amps, (2, 2, 2))), 0.0, atol=1e-12)


def test_w_one_third():
    assert_allclose(ggm(w_state()), 1 / 3, atol=1e-9)


def test_local_unitary_invariance():
    rng = np.random.default_rng(6)
    for _ in range(30):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(z, (2, 2, 2))
        u = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)), random_unitary(rng, 2))
        rotated = PureState(u @ psi.amplitudes, (2, 2, 2))
        assert abs(ggm(rotated) - ggm(psi)) <= 1e-9


def test_zero_iff_some_marginal_pure():
    rng = np.random.default_rng(10)
    # biseparable: A pure marginal
    pair = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps = np.kron(np.array([1.0, 0.0]), pair / np.linalg.norm(pair))
    psi = PureState(amps, (2, 2, 2))
    assert ggm(psi) <= 1e-8
    # generic states: no pure marginal, strictly positive
    for _ in range(20):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(z, (2, 2, 2))
        purities = [partial_trace(psi.density(), l).purity() for l in "ABC"]
        if min(purities) < 1.0 - 1e-6:
            assert ggm(psi) > 1e-8


def test_upper_bound_three_qubits():
    rng = np.random.default_rng(77)
    for _ in range(100):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert ggm(PureState(z, (2, 2, 2))) <= 0.5 + 1e-12

