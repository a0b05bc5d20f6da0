"""Mermin-Klyshko Bell operators, expectation values and settings search.

The N-qubit operator is built by the recursion

    B_k  = (1/2) B_{k-1} (x) (s_a + s_a') + (1/2) B'_{k-1} (x) (s_a - s_a')
    B'_k = (1/2) B'_{k-1} (x) (s_a + s_a') - (1/2) B_{k-1} (x) (s_a - s_a')

from B_1 = s_{a_1}, B'_1 = s_{a_1'}; B'_k is B_k with every a_j and a_j'
interchanged, which is where the minus sign in the second line comes from.
s_a is the Pauli vector contraction a_x sx + a_y sy + a_z sz.  A state eta
violates local realism when |tr(B_N eta)| > 1; the operator norm of B_N is
at most 2^((N-1)/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .measures import SIGMA_X, SIGMA_Y, SIGMA_Z
from .qcore import DensityMatrix, PureState

_MAX_PARTIES = 6
_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class MKSettings:
    """Two unit measurement directions per party."""

    a: tuple[np.ndarray, ...]
    a_prime: tuple[np.ndarray, ...]

    def __post_init__(self):
        a = tuple(np.asarray(v, dtype=float) for v in self.a)
        ap = tuple(np.asarray(v, dtype=float) for v in self.a_prime)
        if len(a) != len(ap) or not a:
            raise ValueError("need matching nonempty direction lists")
        for v in a + ap:
            if v.shape != (3,):
                raise ValueError("directions must be 3-vectors")
            if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
                raise ValueError(f"direction {v} is not unit norm")
        for v in a + ap:
            v.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_prime", ap)

    @property
    def n_parties(self) -> int:
        return len(self.a)

    @classmethod
    def from_angles(cls, angles) -> "MKSettings":
        """Build from a flat (theta, phi) pair per direction, a's then a''s."""
        angles = np.asarray(angles, dtype=float).ravel()
        if angles.size % 4:
            raise ValueError("need 4 angles per party")
        n = angles.size // 4
        vecs = [_sphere(angles[2 * i], angles[2 * i + 1]) for i in range(2 * n)]
        return cls(tuple(vecs[:n]), tuple(vecs[n:]))

    def to_angles(self) -> np.ndarray:
        out = []
        for v in self.a + self.a_prime:
            out += [float(np.arccos(np.clip(v[2], -1, 1))),
                    float(np.arctan2(v[1], v[0]) % (2 * np.pi))]
        return np.array(out)


def _sphere(theta: float, phi: float) -> np.ndarray:
    s = np.sin(theta)
    return np.array([s * np.cos(phi), s * np.sin(phi), np.cos(theta)])


def pauli_operator(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    return d[0] * SIGMA_X + d[1] * SIGMA_Y + d[2] * SIGMA_Z


def _pauli_from_angles(theta: float, phi: float) -> np.ndarray:
    st, ct = np.sin(theta), np.cos(theta)
    e = st * np.exp(-1j * phi)
    return np.array([[ct, e], [e.conjugate(), -ct]])


def _mk_operator_from_angles(angles) -> np.ndarray:
    """Unvalidated fast path for the optimizer: 4 (theta, phi) pairs per party."""
    n = len(angles) // 4
    ops = [_pauli_from_angles(angles[2 * i], angles[2 * i + 1]) for i in range(2 * n)]
    b, bp = ops[0], ops[n]
    for k in range(1, n):
        s = ops[k] + ops[n + k]
        d = ops[k] - ops[n + k]
        b, bp = (np.kron(b, s) + np.kron(bp, d)) / 2, (np.kron(bp, s) - np.kron(b, d)) / 2
    return b


def mk_operator(settings: MKSettings) -> np.ndarray:
    """Hermitian 2^N x 2^N Bell operator for the given settings."""
    n = settings.n_parties
    if n > _MAX_PARTIES:
        raise ValueError(f"operator size 2^{n} refused (max {_MAX_PARTIES} parties)")
    b = pauli_operator(settings.a[0])
    bp = pauli_operator(settings.a_prime[0])
    for av, apv in zip(settings.a[1:], settings.a_prime[1:]):
        s = pauli_operator(av) + pauli_operator(apv)
        d = pauli_operator(av) - pauli_operator(apv)
        b, bp = (np.kron(b, s) + np.kron(bp, d)) / 2, (np.kron(bp, s) - np.kron(b, d)) / 2
    return b


def _state_matrix_or_vector(state, n_qubits: int):
    dim = 2**n_qubits
    if isinstance(state, PureState):
        if state.dim != dim:
            raise ValueError(f"state dimension {state.dim} != 2^{n_qubits}")
        return state.amplitudes, True
    if isinstance(state, DensityMatrix):
        if state.dim != dim:
            raise ValueError(f"state dimension {state.dim} != 2^{n_qubits}")
        return state.matrix, False
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1 and arr.size == dim:
        return arr, True
    if arr.shape == (dim, dim):
        return arr, False
    raise ValueError("state does not match the settings' party count")


def mk_expectation(state, settings: MKSettings) -> float:
    """tr(B_N eta); |value| > 1 witnesses violation of local realism."""
    op = mk_operator(settings)
    arr, is_vec = _state_matrix_or_vector(state, settings.n_parties)
    if is_vec:
        return float(np.real(arr.conj() @ op @ arr))
    return float(np.trace(op @ arr).real)


def violates_mk(state, settings: MKSettings, tol: float = 0.0) -> bool:
    return abs(mk_expectation(state, settings)) > 1.0 + tol


def mk_optimize(
    state,
    restarts: int = 100,
    seed: int = 0,
    initial: MKSettings | None = None,
    maxiter: int = 2000,
    tol: float = 1e-9,
) -> tuple[float, MKSettings]:
    """Maximize |tr(B_3 eta)| over the 12 setting angles, multistart.

    The returned value is a lower bound on the true maximum and is
    non-decreasing in the restart count for a fixed seed.  ``initial``
    adds a warm start (useful when tracing a path of nearby states).
    """
    arr, is_vec = _state_matrix_or_vector(state, 3)

    def objective(angles):
        op = _mk_operator_from_angles(angles)
        if is_vec:
            val = np.real(arr.conj() @ op @ arr)
        else:
            val = np.trace(op @ arr).real
        return -abs(float(val))

    rng = np.random.default_rng(seed)
    starts = []
    if initial is not None:
        starts.append(initial.to_angles())
    for _ in range(restarts):
        x0 = np.empty(12)
        x0[0::2] = rng.uniform(0.0, np.pi, 6)
        x0[1::2] = rng.uniform(0.0, 2 * np.pi, 6)
        starts.append(x0)

    # cheap exploration runs, then one tight polish from the winner
    best_val, best_x = np.inf, starts[0]
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-6, "maxiter": 400, "maxfev": 800},
        )
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    res = minimize(
        objective,
        best_x,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": tol, "maxiter": maxiter, "maxfev": 2 * maxiter},
    )
    if res.fun < best_val:
        best_val, best_x = float(res.fun), res.x
    return -best_val, MKSettings.from_angles(best_x)


def mk_symmetric_closed_form(theta, alpha, kappa, nu=0.0):
    """Bell-operator average for the symmetric two-branch family.

    4 sin^3(alpha) sin(theta) [cos(nu) (cos(theta) cos(kappa)
        + cos^3(alpha) sin(theta)) + cos(theta) sin(nu) sin(kappa)].

    nu parametrizes the (unspecified) measurement family; reproductions of
    the violation region fix nu = 0.  Arguments broadcast as arrays; scalar
    arguments give a float.
    """
    theta, alpha, kappa, nu = (np.asarray(x, dtype=float) for x in (theta, alpha, kappa, nu))
    value = (
        4.0
        * np.sin(alpha) ** 3
        * np.sin(theta)
        * (
            np.cos(nu) * (np.cos(theta) * np.cos(kappa) + np.cos(alpha) ** 3 * np.sin(theta))
            + np.cos(theta) * np.sin(nu) * np.sin(kappa)
        )
    )
    return float(value) if value.ndim == 0 else value
