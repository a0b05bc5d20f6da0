"""Mermin-Klyshko Bell operators, expectation values and settings search.

The N-qubit operator is built by the recursion

    B_k  = (1/2) B_{k-1} (x) (s_a + s_a') + (1/2) B'_{k-1} (x) (s_a - s_a')
    B'_k = (1/2) B'_{k-1} (x) (s_a + s_a') - (1/2) B_{k-1} (x) (s_a - s_a')

from B_1 = s_{a_1}, B'_1 = s_{a_1'}; B'_k is B_k with every a_j and a_j'
interchanged, which is where the minus sign in the second line comes from.
s_a is the Pauli vector contraction a_x sx + a_y sy + a_z sz.  A state eta
violates local realism when |tr(B_N eta)| > 1; the operator norm of B_N is
at most 2^((N-1)/2).

For N = 3, tr(B_3 eta) = (1/2)[T(a1,a2',a3) + T(a1',a2,a3) + T(a1,a2,a3')
- T(a1',a2',a3')] on the correlation tensor T_ijk = tr(eta s_i (x) s_j (x) s_k).
It is linear in each party's pair (a_p, a_p'), so with the others fixed the
best pair is a closed form (Werner & Wolf, PRA 64, 032112 (2001)): the
see-saw that ``mk_optimize`` runs from many starts before a Newton polish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_vector, minimize, tangent_frame
from .qcore import DensityMatrix, PureState

_MAX_PARTIES = 6
_UNIT_TOL = 1e-10
_PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
# The see-saw converges linearly (a start can still gain 1e-6 per sweep after 300
# sweeps), so it only carries each start into its basin: on 150 Haar and Ginibre
# states at 2 restarts, 20 sweeps picked a 256-start reference's basin; 50 leave margin.
_SEESAW_TOL = 1e-9  # stop once no start gains more than this in a sweep
_SEESAW_MAX_SWEEPS = 50


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
        vecs = bloch_vector(angles[0::2], angles[1::2]).T
        return cls(tuple(vecs[:n]), tuple(vecs[n:]))

    def to_angles(self) -> np.ndarray:
        v = np.array(self.a + self.a_prime)
        theta, phi = np.arccos(np.clip(v[:, 2], -1, 1)), np.arctan2(v[:, 1], v[:, 0]) % (2 * np.pi)
        return np.column_stack([theta, phi]).ravel()


def pauli_operator(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    return d[0] * SIGMA_X + d[1] * SIGMA_Y + d[2] * SIGMA_Z


def _mk_operator_from_angles(angles) -> np.ndarray:
    """Bell operator at a flat (theta, phi) pair per direction, a's then a''s."""
    return mk_operator(MKSettings.from_angles(angles))


def mk_operator(settings: MKSettings) -> np.ndarray:
    """Hermitian 2^N x 2^N Bell operator for the given settings."""
    n = settings.n_parties
    if n > _MAX_PARTIES:
        raise ValueError(f"operator size 2^{n} refused (max {_MAX_PARTIES} parties)")
    b, bp = pauli_operator(settings.a[0]), pauli_operator(settings.a_prime[0])
    for av, apv in zip(settings.a[1:], settings.a_prime[1:]):
        s, d = pauli_operator(av) + pauli_operator(apv), pauli_operator(av) - pauli_operator(apv)
        b, bp = (np.kron(b, s) + np.kron(bp, d)) / 2, (np.kron(bp, s) - np.kron(b, d)) / 2
    return b


def _density_matrix(state, n_qubits: int) -> np.ndarray:
    """The state as a 2^n x 2^n matrix; a pure state becomes |psi><psi|."""
    if isinstance(state, PureState):
        state = state.density()
    arr = np.asarray(state.matrix if isinstance(state, DensityMatrix) else state, dtype=complex)
    if arr.ndim == 1:
        arr = np.outer(arr, arr.conj())
    if arr.shape != (2**n_qubits,) * 2:
        raise ValueError(f"state of shape {arr.shape} is not a {n_qubits}-qubit state")
    return arr


def mk_expectation(state, settings: MKSettings) -> float:
    """tr(B_N eta); |value| > 1 witnesses violation of local realism."""
    rho = _density_matrix(state, settings.n_parties)
    return float(np.trace(mk_operator(settings) @ rho).real)


def _pair_gradients(t, a, ap, p: int):
    """(u, v) with B_3 = (a_p.u + a_p'.v)/2 on rows of (..., 3 parties, 3): for the other
    parties q < r, u = T(a_q', a_r) + T(a_q, a_r') and v = T(a_q, a_r) - T(a_q', a_r')."""
    q, r = (i for i in range(3) if i != p)
    tp = np.moveaxis(t, p, 0)

    def c(x, y):
        return np.einsum("ijk,...j,...k->...i", tp, x, y)

    aq, ar, bq, br = a[..., q, :], a[..., r, :], ap[..., q, :], ap[..., r, :]
    return c(bq, ar) + c(aq, br), c(aq, ar) - c(bq, br)


def _chart_directions(xi, vec0, frame):
    """The six unit directions normalize(vec0_i + frame_i xi_i) at a (P, 12) stack of
    tangent coordinates, as (P, 6, 3), and the norms before normalizing, as (P, 6, 1)."""
    w = vec0 + np.einsum("ijk,pik->pij", frame, xi.reshape(-1, 6, 2))
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    return w / norm, norm


def _negative_mk_and_gradient(xi, t, vec0, frame):
    """-B_3 and its gradient at a (P, 12) stack of tangent coordinates around the
    directions vec0 (a's then a''s); ``frame`` holds a tangent basis at each as (6, 3, 2)."""
    vec, norm = _chart_directions(xi, vec0, frame)
    pairs = [_pair_gradients(t, vec[:, :3], vec[:, 3:], p) for p in range(3)]
    grad = 0.5 * np.stack([u for u, _ in pairs] + [v for _, v in pairs], axis=1)  # dB_3/d(vec)
    value = np.sum(vec[:, [0, 3]] * grad[:, [0, 3]], axis=(1, 2))  # B_3 at party p = 0
    grad_w = (grad - np.sum(grad * vec, axis=-1, keepdims=True) * vec) / norm
    return -value, -np.einsum("pij,ijk->pik", grad_w, frame).reshape(-1, 12)


def mk_optimize(state, restarts: int = 100, seed: int = 0,
                initial: MKSettings | None = None) -> tuple[float, MKSettings]:
    """Maximize |tr(B_3 eta)| over the six measurement directions.

    The starts are ``initial`` (a warm start along a path of nearby states)
    and ``restarts`` random direction sets from ``default_rng(seed)``.
    See-saw sweeps (a_p = u/|u|, a_p' = v/|v|, party by party, on T computed
    once) raise all starts at once, a negative B_3 to |B_3| or more at the
    first step.  ``measures.minimize`` polishes the best in a chart of the tangent planes
    at its six directions (12 coordinates, evaluated on T; no polar singularity).

    The value is |tr(B_3 eta)| recomputed from the 8x8 operator at the
    returned settings, which attain it: a lower bound on the true maximum.
    For a fixed seed the starts of k restarts are the first k of any larger
    count, and a larger set sweeps at least as long, so the value does not
    fall as ``restarts`` grows (up to the polish).  No start: ValueError.
    """
    rho = _density_matrix(state, 3)
    if restarts < 0 or (restarts == 0 and initial is None):
        raise ValueError(f"mk_optimize needs a start: restarts={restarts} and no initial settings")
    starts = np.random.default_rng(seed).standard_normal((restarts, 2, 3, 3))
    if initial is not None:
        starts = np.concatenate([[[initial.a, initial.a_prime]], starts])
    starts /= np.linalg.norm(starts, axis=-1, keepdims=True)
    a, ap = starts[:, 0], starts[:, 1]
    t = np.einsum("iad,jbe,kcf,defabc->ijk", _PAULIS, _PAULIS, _PAULIS, rho.reshape((2,) * 6)).real
    value = np.full(len(starts), -np.inf)
    for _ in range(_SEESAW_MAX_SWEEPS):
        for p in range(3):
            g = np.stack(_pair_gradients(t, a, ap, p), axis=1)  # rows (u, v)
            norm = np.linalg.norm(g, axis=-1, keepdims=True)  # where 0, B_3 ignores the direction
            starts[:, :, p] = np.where(norm > 0, g / np.maximum(norm, 1e-300), starts[:, :, p])
        old, value = value, 0.5 * norm.sum(axis=(1, 2))  # (|u| + |v|) / 2 after the last party
        if np.max(value - old) <= _SEESAW_TOL:
            break
    best = int(np.argmax(value))
    vec0 = np.concatenate([a[best], ap[best]])
    frame = np.stack(tangent_frame(vec0), axis=-1)
    xi = minimize(_negative_mk_and_gradient, np.zeros(12), args=(t, vec0, frame)).x
    vec = _chart_directions(xi, vec0, frame)[0][0]  # (6, 3): a batch of one point
    x = MKSettings(tuple(vec[:3]), tuple(vec[3:])).to_angles()
    return abs(float(np.trace(_mk_operator_from_angles(x) @ rho).real)), MKSettings.from_angles(x)


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
