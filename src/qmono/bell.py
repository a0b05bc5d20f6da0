"""Mermin-Klyshko Bell operator, expectation values and settings search.

The three-qubit MK inequality is defined once, as the coefficient tensor ``_MK``
over the eight correlators of each party's two directions, a_p^(0) = a_p and
a_p^(1) = a_p':

    tr(B_3 eta) = sum_s c[s1, s2, s3] T(a1^(s1), a2^(s2), a3^(s3)),

with c = 1/2 at (0,1,0), (1,0,0) and (0,0,1), c = -1/2 at (1,1,1) and 0 elsewhere,
on the correlation tensor T_ijk = tr(eta s_i (x) s_j (x) s_k).  s_a is the Pauli
vector contraction a_x sx + a_y sy + a_z sz.  A state eta violates local realism
when |tr(B_3 eta)| > 1; the operator norm of B_3 is at most 2.  Two readers take
the coefficients from ``_MK``: ``mk_operator`` sums c_s s_a1 (x) s_a2 (x) s_a3 into
the 8 x 8 operator, whose trace with eta is ``mk_expectation``, and ``_party_maps``
folds them into T for the search.

tr(B_3 eta) is linear in each party's pair (a_p, a_p'), so with the others fixed the
best pair is a closed form (Werner & Wolf, PRA 64, 032112 (2001)): the
see-saw that ``mk_optimize`` runs from many starts before a Newton polish.
Both read T through one (36, 6) party map per party p, folded once per
state: it takes the outer product of the other two parties' settings,
(a_q, a_q') (x) (a_r, a_r'), to p's rows (u, v) with tr(B_3 eta) =
(a_p.u + a_p'.v)/2, so a party's rows are one outer product and one
matmul.  The see-saw holds its settings party-major, as (..., 3 parties, 2, 3), so
party p's pair (a_p, a_p') is the view [:, p]; the polish chart takes a's, then a''s.
The search returns the polish's value from the party maps and the settings that
attain it, one point of the flat set of a state's maximizing settings: the value
reproduces to rounding, the settings to about 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import _PAULI, bloch_vector, minimize, row_norm, tangent_frame
from .qcore import INPUT_TOL, DensityMatrix, PureState, check_arg

_PAULIS = _PAULI[1:]  # s_x, s_y, s_z
# [s1, s2, s3]: the coefficient of T(a1^(s1), a2^(s2), a3^(s3)) in tr(B_3 eta); s_p = 1 is primed.
_MK = np.zeros((2, 2, 2))
_MK[0, 1, 0] = _MK[1, 0, 0] = _MK[0, 0, 1] = 0.5
_MK[1, 1, 1] = -0.5
# The see-saw converges linearly (a start can still gain 1e-6 per sweep after 300
# sweeps), so it only carries each start into its basin: on 150 Haar and Ginibre
# states at 2 restarts, 20 sweeps picked a 256-start reference's basin; 50 leave margin.
_SEESAW_TOL = 1e-9  # stop once no start gains more than this in a sweep
_SEESAW_MAX_SWEEPS = 50
MK_RESTARTS_DEFAULT = 100  # random starts of one state's search, ``qmono bell --restarts``
_PARTIES = np.arange(3)
_OTHER_Q, _OTHER_R = np.array([1, 0, 0]), np.array([2, 2, 1])  # the parties q < r other than p
# 2 c, party p's index moved first: [p, w, s, t], the sign of T(a_q^(s), a_r^(t)) in p's row w (u, v).
_SIGNS = 2 * np.stack([np.moveaxis(_MK, p, 0) for p in range(3)])


@dataclass(frozen=True)
class MKSettings:
    """Two unit measurement directions, a and a', for each of the three parties."""

    a: tuple[np.ndarray, ...]
    a_prime: tuple[np.ndarray, ...]

    def __post_init__(self):
        a = tuple(np.asarray(v, dtype=float) for v in self.a)
        ap = tuple(np.asarray(v, dtype=float) for v in self.a_prime)
        if len(a) != 3 or len(ap) != 3:
            raise ValueError("need three directions a and three a'")
        for v in a + ap:
            if v.shape != (3,):
                raise ValueError("directions must be 3-vectors")
            if not abs(np.linalg.norm(v) - 1.0) <= INPUT_TOL:  # NaN fails too
                raise ValueError(f"direction {v} is not unit norm")
            v.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_prime", ap)

    @classmethod
    def from_angles(cls, angles) -> "MKSettings":
        """Build from 12 angles, a flat (theta, phi) pair per direction, a's then a''s."""
        angles = np.asarray(angles, dtype=float).ravel()
        if angles.size != 12:
            raise ValueError("expected 12 angles")
        vecs = bloch_vector(angles[0::2], angles[1::2]).T
        return cls(tuple(vecs[:3]), tuple(vecs[3:]))


def _mk_operator_from_angles(angles) -> np.ndarray:
    """Bell operator at a flat (theta, phi) pair per direction, a's then a''s.  Nothing in
    ``qmono`` calls it; it stays because bench/spans.py wraps this name."""
    return mk_operator(MKSettings.from_angles(angles))


def mk_operator(settings: MKSettings) -> np.ndarray:
    """Hermitian 8 x 8 Bell operator sum_s c_s s(a1^(s1)) (x) s(a2^(s2)) (x) s(a3^(s3))."""
    sigma = np.einsum("spi,iab->psab", np.array([settings.a, settings.a_prime]), _PAULIS)  # [p, s]
    return np.einsum("xyz,xab,ycd,zef->acebdf", _MK, *sigma).reshape(8, 8)


def _density_matrix(state) -> np.ndarray:
    """The state as an 8 x 8 matrix; a pure state becomes |psi><psi|.  A raw array is
    checked first, as a three-qubit ``PureState`` (1-D) or ``DensityMatrix`` (otherwise)."""
    if not isinstance(state, (PureState, DensityMatrix)):
        arr = np.asarray(state)
        state = (PureState if arr.ndim == 1 else DensityMatrix)(arr, (2, 2, 2))
    if isinstance(state, PureState):
        state = state.density()
    if state.matrix.shape != (8, 8):
        raise ValueError(f"state of shape {state.matrix.shape} is not a three-qubit state")
    return state.matrix


def mk_expectation(state, settings: MKSettings) -> float:
    """tr(B_3 eta); |value| > 1 witnesses violation of local realism."""
    return float(np.trace(mk_operator(settings) @ _density_matrix(state)).real)


def _party_maps(t) -> np.ndarray:
    """(3, 36, 6): party p's map from (a_q, a_q') (x) (a_r, a_r'), q < r the other two,
    to its rows (u, v), row w = 2 sum_{s,t} c[p: w, q: s, r: t] T(., a_q^(s), a_r^(t))."""
    tp = np.stack([np.moveaxis(t, p, 0) for p in range(3)])  # [p, i, j, k]: i party p's index
    return np.einsum("pwst,pijk->psjtkwi", _SIGNS, tp).reshape(3, 36, 6)


def _party_rows(maps, s, p) -> np.ndarray:
    """Rows (u, v) at settings s of shape (P, 3 parties, 2, 3): party p's as (P, 2, 3) for an
    int p, each listed party's as (P, len(p), 2, 3) for an index array p.

    Each start and party multiplies one 1 x 36 row by its map, which numpy hands to BLAS
    as matrix-vector products: a first matrix-matrix product would page about 0.3 MB of
    OpenBLAS code and buffers into a process that otherwise never needs them."""
    x, y = (s[:, other[p]] for other in (_OTHER_Q, _OTHER_R))  # (P, [n,] 2, 3)
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
    rows = _party_rows(maps, vec.reshape(-1, 2, 3, 3).swapaxes(1, 2), _PARTIES)  # (P, 3 parties, 2, 3)
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
    rho = _density_matrix(state)
    starts = np.random.default_rng(seed).standard_normal((restarts, 2, 3, 3))
    if initial is not None:
        starts = np.concatenate([[[initial.a, initial.a_prime]], starts])
    starts = (starts / row_norm(starts)).swapaxes(1, 2).copy()  # party-major: p's pair is starts[:, p]
    t = np.einsum("iad,jbe,kcf,defabc->ijk", _PAULIS, _PAULIS, _PAULIS, rho.reshape((2,) * 6)).real
    maps = _party_maps(t)
    value = np.full(len(starts), -np.inf)
    for _ in range(_SEESAW_MAX_SWEEPS):
        for p in range(3):
            g = _party_rows(maps, starts, p)
            norm = row_norm(g)  # where 0, B_3 ignores the direction
            np.divide(g, norm, out=starts[:, p], where=norm > 0)
        old, value = value, 0.5 * norm.sum(axis=(1, 2))  # (|u| + |v|) / 2 after the last party
        if np.max(value - old) <= _SEESAW_TOL:
            break
    vec0 = starts[int(np.argmax(value))].swapaxes(0, 1).reshape(6, 3)  # a's then a''s
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
