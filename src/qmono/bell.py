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
Both read T through one (36, 6) party map per party p, folded once per
state: it takes the outer product of the other two parties' settings,
(a_q, a_q') (x) (a_r, a_r'), to p's rows (u, v) with tr(B_3 eta) =
(a_p.u + a_p'.v)/2, so a party's rows are one outer product and one
matmul.  Settings are laid out as (..., 2, 3 parties, 3): a's, then a''s.
The search returns the polish's value from the party maps and the settings that
attain it, one point of the flat set of a state's maximizing settings: the value
reproduces to rounding, the settings to about 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_vector, minimize, row_norm, tangent_frame
from .qcore import INPUT_TOL, DensityMatrix, PureState, check_arg

_MAX_PARTIES = 6
_PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
# The see-saw converges linearly (a start can still gain 1e-6 per sweep after 300
# sweeps), so it only carries each start into its basin: on 150 Haar and Ginibre
# states at 2 restarts, 20 sweeps picked a 256-start reference's basin; 50 leave margin.
_SEESAW_TOL = 1e-9  # stop once no start gains more than this in a sweep
_SEESAW_MAX_SWEEPS = 50
MK_RESTARTS_DEFAULT = 100  # random starts of one state's search, ``qmono bell --restarts``
_PARTIES = np.arange(3)
_OTHER_Q, _OTHER_R = np.array([1, 0, 0]), np.array([2, 2, 1])  # the parties q < r other than p
# [w, s, t]: the sign of T(a_q^(s), a_r^(t)) in row w, u (w = 0) or v (w = 1); s, t = 1 is primed.
_UV_SIGNS = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])


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
            if not abs(np.linalg.norm(v) - 1.0) <= INPUT_TOL:  # NaN fails too
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


def pauli_operator(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    return d[0] * SIGMA_X + d[1] * SIGMA_Y + d[2] * SIGMA_Z


def _mk_operator_from_angles(angles) -> np.ndarray:
    """Bell operator at a flat (theta, phi) pair per direction, a's then a''s.  Nothing in
    ``qmono`` calls it; it stays because bench/spans.py wraps this name."""
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
    """The state as a 2^n x 2^n matrix; a pure state becomes |psi><psi|.  A raw array is
    checked first, as an n-qubit ``PureState`` (1-D) or ``DensityMatrix`` (otherwise)."""
    if not isinstance(state, (PureState, DensityMatrix)):
        arr = np.asarray(state)
        state = (PureState if arr.ndim == 1 else DensityMatrix)(arr, (2,) * n_qubits)
    if isinstance(state, PureState):
        state = state.density()
    if state.matrix.shape != (2**n_qubits,) * 2:
        raise ValueError(f"state of shape {state.matrix.shape} is not a {n_qubits}-qubit state")
    return state.matrix


def mk_expectation(state, settings: MKSettings) -> float:
    """tr(B_N eta); |value| > 1 witnesses violation of local realism."""
    rho = _density_matrix(state, settings.n_parties)
    return float(np.trace(mk_operator(settings) @ rho).real)


def _party_maps(t) -> np.ndarray:
    """(3, 36, 6): party p's map from (a_q, a_q') (x) (a_r, a_r'), q < r the other two,
    to its rows (u, v), u = T(a_q', a_r) + T(a_q, a_r') and v = T(a_q, a_r) - T(a_q', a_r')."""
    tp = np.stack([np.moveaxis(t, p, 0) for p in range(3)])  # [p, i, j, k]: i party p's index
    return np.einsum("wst,pijk->psjtkwi", _UV_SIGNS, tp).reshape(3, 36, 6)


def _party_rows(maps, s, p) -> np.ndarray:
    """Rows (u, v) at settings s of shape (P, 2, 3 parties, 3): party p's as (P, 2, 3) for an
    int p, each listed party's as (P, len(p), 2, 3) for an index array p.

    Each start and party multiplies one 1 x 36 row by its map, which numpy hands to BLAS
    as matrix-vector products: a first matrix-matrix product would page about 0.3 MB of
    OpenBLAS code and buffers into a process that otherwise never needs them."""
    x, y = (s[:, :, other[p]].swapaxes(1, -2) for other in (_OTHER_Q, _OTHER_R))  # (P, [n,] 2, 3)
    lead = x.shape[:-2]
    # the outer product by einsum: a broadcast multiply of these shapes allocates ~50 KB of buffers
    xy = np.einsum("...i,...j->...ij", x.reshape(*lead, 6), y.reshape(*lead, 6))
    return (xy.reshape(*lead, 1, 36) @ maps[p]).reshape(*lead, 2, 3)


def _chart_directions(xi, vec0, frame):
    """The six unit directions normalize(vec0_i + frame_i xi_i) at a (P, 12) stack of
    tangent coordinates, as (P, 6, 3), and the norms before normalizing, as (P, 6, 1)."""
    w = vec0 + np.einsum("ijk,pik->pij", frame, xi.reshape(-1, 6, 2))
    norm = row_norm(w)
    return w / norm, norm


def _negative_mk_and_gradient(xi, maps, vec0, frame):
    """-B_3 and its gradient at a (P, 12) stack of tangent coordinates around the
    directions vec0 (a's then a''s, (6, 3)); ``frame`` holds a tangent basis at each as
    (6, 3, 2) and ``maps`` the party maps of ``_party_maps``."""
    vec, norm = _chart_directions(xi, vec0, frame)
    rows = _party_rows(maps, vec.reshape(-1, 2, 3, 3), _PARTIES)  # (P, 3 parties, 2, 3)
    grad = 0.5 * rows.swapaxes(1, 2).reshape(-1, 6, 3)  # dB_3/d(vec)
    value = np.sum(vec[:, [0, 3]] * grad[:, [0, 3]], axis=(1, 2))  # B_3 at party p = 0
    grad_w = (grad - np.sum(grad * vec, axis=-1, keepdims=True) * vec) / norm
    return -value, -np.einsum("pij,ijk->pik", grad_w, frame).reshape(-1, 12)


def mk_optimize(state, restarts: int = MK_RESTARTS_DEFAULT, seed: int = 0,
                initial: MKSettings | None = None) -> tuple[float, MKSettings]:
    """Maximize |tr(B_3 eta)| over the six measurement directions.

    The starts are ``initial`` (a warm start along a path of nearby states)
    and ``restarts`` random direction sets from ``default_rng(seed)``.
    T is folded once into the three (36, 6) party maps of the module docstring.
    See-saw sweeps (a_p = u/|u|, a_p' = v/|v|, party by party, each party's rows
    (u, v) one product with its map) raise all starts at once, a negative B_3 to
    |B_3| or more at the first step.  ``measures.minimize`` polishes the best in a
    chart of the tangent planes at its six directions (12 coordinates, B_3 and its
    gradient from the same maps; no polar singularity).

    The value is the polish's |B_3| from the party maps, attained by the
    returned settings (its directions): a lower bound on the true maximum.
    The settings are the point of a flat set of maximizers where the polish
    stops: across summation orders they reproduce to about 1e-7, the value to rounding.
    For a fixed seed the starts of k restarts are the first k of any larger
    count, and a larger set sweeps at least as long, so the value does not
    fall as ``restarts`` grows (up to the polish).  No start (``restarts`` < 1 without
    ``initial``) and a negative ``seed`` are ``UsageError``.
    """
    check_arg("restarts", restarts, 1 if initial is None else 0)
    check_arg("seed", seed, 0)
    rho = _density_matrix(state, 3)
    starts = np.random.default_rng(seed).standard_normal((restarts, 2, 3, 3))
    if initial is not None:
        starts = np.concatenate([[[initial.a, initial.a_prime]], starts])
    starts /= row_norm(starts)
    t = np.einsum("iad,jbe,kcf,defabc->ijk", _PAULIS, _PAULIS, _PAULIS, rho.reshape((2,) * 6)).real
    maps = _party_maps(t)
    value = np.full(len(starts), -np.inf)
    for _ in range(_SEESAW_MAX_SWEEPS):
        for p in range(3):
            g = _party_rows(maps, starts, p)
            norm = row_norm(g)  # where 0, B_3 ignores the direction
            np.divide(g, norm, out=starts[:, :, p], where=norm > 0)
        old, value = value, 0.5 * norm.sum(axis=(1, 2))  # (|u| + |v|) / 2 after the last party
        if np.max(value - old) <= _SEESAW_TOL:
            break
    vec0 = starts[int(np.argmax(value))].reshape(6, 3)  # a's then a''s
    frame = np.stack(tangent_frame(vec0), axis=-1)
    res = minimize(_negative_mk_and_gradient, np.zeros(12), args=(maps, vec0, frame))
    vec = _chart_directions(res.x, vec0, frame)[0][0]  # (6, 3): a batch of one point
    return abs(res.fun), MKSettings(tuple(vec[:3]), tuple(vec[3:]))


def mk_symmetric_closed_form(theta, alpha, kappa):
    """Bell-operator average for the symmetric two-branch family,

    4 sin^3(alpha) sin(theta) (cos(theta) cos(kappa) + cos^3(alpha) sin(theta)),

    the paper's measurement family at nu = 0, where its violation region lies;
    ``mk_optimize`` reaches at least this.  Arguments broadcast as arrays;
    scalar arguments give a float.
    """
    theta, alpha, kappa = (np.asarray(x, dtype=float) for x in (theta, alpha, kappa))
    value = (
        4.0
        * np.sin(alpha) ** 3
        * np.sin(theta)
        * (np.cos(theta) * np.cos(kappa) + np.cos(alpha) ** 3 * np.sin(theta))
        + 0.0  # a face (sin = 0) times a negative bracket is -0.0; CSVs print 0
    )
    return float(value) if value.ndim == 0 else value
