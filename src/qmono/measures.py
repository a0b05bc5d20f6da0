"""Bipartite quantum-correlation measures.

Concurrence and entanglement of formation use the two-qubit closed forms.
Quantum discord is computed from the measured conditional entropy

    S(A|B) = min over rank-1 projective measurements {Pi_i} on B
             of sum_i p_i S(rho_{A|i}),

minimized over Bloch-parametrized bases for a qubit measured side and over
a 12-angle unitary family for a dimension-4 measured side.  The returned
minimum is an upper bound on the true one; the optimizer trace records the
restart count and the best-vs-runner-up gap as convergence evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .qcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    entropy_of_spectrum,
    partial_trace,
    permute_parties,
    vn_entropy,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = np.array([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])  # s_0 = I, s_1..s_3
_YY = np.kron(SIGMA_Y, SIGMA_Y)

_PURITY_TOL = 1e-12
_XLOG_FLOOR = 1e-15


@dataclass(frozen=True)
class MeasurementBasis:
    """Complete set of rank-1 orthonormal projectors on one subsystem."""

    subsystem: tuple[str, ...]
    projectors: tuple[np.ndarray, ...]
    parameters: tuple[float, ...]

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        d = projs[0].shape[0]
        if len(projs) != d:
            raise ValueError(f"need {d} projectors for dimension {d}")
        total = sum(projs)
        if np.max(np.abs(total - np.eye(d))) > 1e-10:
            raise ValueError("projectors do not sum to the identity")
        for i, p in enumerate(projs):
            if abs(np.trace(p).real - 1.0) > 1e-10 or np.max(np.abs(p @ p - p)) > 1e-10:
                raise ValueError(f"projector {i} is not rank-1 idempotent")
            for q in projs[i + 1:]:
                if np.max(np.abs(p @ q)) > 1e-10:
                    raise ValueError("projectors are not mutually orthogonal")
        for p in projs:
            p.setflags(write=False)
        object.__setattr__(self, "subsystem", tuple(self.subsystem))
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "parameters", tuple(float(x) for x in self.parameters))


@dataclass(frozen=True)
class OptimizerTrace:
    """Convergence evidence for a multistart minimization."""

    restarts: int
    best: float
    runner_up: float | None = None

    @property
    def gap(self) -> float:
        if self.runner_up is None:
            return 0.0
        return self.runner_up - self.best


@dataclass(frozen=True)
class DiscordResult:
    discord: float
    mutual_information: float
    classical_correlation: float
    conditional_entropy: float
    best_basis: MeasurementBasis | None
    optimizer_trace: OptimizerTrace

    def __post_init__(self):
        if abs(self.discord - (self.mutual_information - self.classical_correlation)) > 1e-12:
            raise ValueError("discord != I - J")


def bloch_vector(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def bloch_basis(theta: float, phi: float, subsystem=("B",)) -> MeasurementBasis:
    """Projective qubit basis along the Bloch direction (theta, phi)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * phi)
    up = np.array([c, e * s])
    dn = np.array([s, -e * c])
    return MeasurementBasis(
        tuple(subsystem),
        (np.outer(up, up.conj()), np.outer(dn, dn.conj())),
        (theta, phi),
    )


_GIVENS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def unitary_from_angles(angles) -> np.ndarray:
    """U(4) element from 12 angles: a product of 6 two-level rotations.

    Column phases are quotiented out, which is exactly the freedom that
    leaves a projective measurement basis unchanged.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size != 12:
        raise ValueError("expected 12 angles")
    u = np.eye(4, dtype=complex)
    for (i, j), th, ph in zip(_GIVENS_PAIRS, angles[0::2], angles[1::2]):
        g = np.eye(4, dtype=complex)
        c, s = np.cos(th), np.sin(th)
        g[i, i] = c
        g[i, j] = -np.exp(-1j * ph) * s
        g[j, i] = np.exp(1j * ph) * s
        g[j, j] = c
        u = u @ g
    return u


def unitary_basis(angles, subsystem=("B", "C")) -> MeasurementBasis:
    u = unitary_from_angles(angles)
    projs = tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(4))
    return MeasurementBasis(tuple(subsystem), projs, tuple(angles))


# --- 2x2 spectra and entropies ---------------------------------------------
#
# Elementwise, so one copy serves whole batches and the batches of one that
# the scalar API passes.


def _xlog2x(x) -> np.ndarray:
    return np.where(x > _XLOG_FLOOR, x * np.log2(np.maximum(x, _XLOG_FLOOR)), 0.0)


def _eig2(m00, m01, m11):
    """Eigenvalues (larger, smaller) of the Hermitian [[m00, m01], [m01*, m11]]."""
    half_t = (m00 + m11).real / 2
    disc = np.sqrt(np.maximum(((m00 - m11).real / 2) ** 2 + np.abs(m01) ** 2, 0.0))
    return half_t + disc, half_t - disc


def _eig2_entropy(m00, m01, m11):
    """-sum e log2 e over the (clipped) eigenvalues e of the 2x2 Hermitian above."""
    e1, e2 = _eig2(m00, m01, m11)
    return -_xlog2x(np.maximum(e1, 0.0)) - _xlog2x(np.maximum(e2, 0.0))


# --- two-qubit closed forms --------------------------------------------------


def concurrence_batch(rhos: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} over a (K, 4, 4) stack.

    The l_i are the square roots of the eigenvalues of rho * rho~ in
    decreasing order, rho~ = (sy (x) sy) rho* (sy (x) sy) with conjugation in
    the computational basis.  Computed through the Hermitian sandwich
    sqrt(rho) rho~ sqrt(rho), which keeps every eigensolve Hermitian.
    """
    rhos = np.asarray(rhos, dtype=complex).reshape(-1, 4, 4)
    w, v = np.linalg.eigh(rhos)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    m = sq @ (_YY @ np.conj(rhos) @ _YY) @ sq
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(m), 0.0, None))
    return np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0])


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence of one state: a batch of one of ``concurrence_batch``."""
    if rho.dims != (2, 2):
        raise ValueError("concurrence is defined for two-qubit states")
    return float(concurrence_batch(rho.matrix)[0])


def eof_batch(c) -> np.ndarray:
    """Entanglement of formation H((1 + sqrt(1 - C^2)) / 2) for an array of concurrences.

    The smaller branch probability is written as C^2 / (2 (1 + sqrt(1 - C^2))),
    which keeps its relative precision as C goes to 0.
    """
    c2 = np.asarray(c, dtype=float) ** 2
    p = c2 / (2.0 * (1.0 + np.sqrt(np.clip(1.0 - c2, 0.0, None))))
    return -_xlog2x(p) - _xlog2x(1.0 - p)


def eof_pure(psi: PureState, cut: Bipartition) -> float:
    """Entanglement of formation of a pure state across a cut, in bits."""
    cut.check_covers(psi.labels)
    return vn_entropy(psi.marginal(cut.side_one))


def eof_two_qubit(rho: DensityMatrix) -> float:
    """Entanglement of formation of a 2-qubit state: a batch of one of ``eof_batch``."""
    return float(eof_batch(concurrence(rho)))


def mutual_information(rho: DensityMatrix, cut: Bipartition) -> float:
    """I = S(side one) + S(side two) - S(joint), in bits."""
    cut.check_covers(rho.labels)
    s1 = vn_entropy(partial_trace(rho, cut.side_one))
    s2 = vn_entropy(partial_trace(rho, cut.side_two))
    return s1 + s2 - vn_entropy(rho)


# --- measured conditional entropy: vectorized qubit kernel -------------------
#
# For a (K, 4, 4) stack of two-qubit states with the SECOND qubit measured
# along the Bloch direction n, write R[m, j] = tr(rho s_m (x) s_j) with s_0 = I.
# Outcome +-1 leaves the unnormalized operator M = (v_0 I + v . s) / 4 on the
# first qubit, v = R[:, 0] +- R[:, 1:] n; its trace is v_0 / 2 and its
# eigenvalues are (v_0 +- |v|) / 4.  The objective sum_pm p S(M/p) is
# therefore closed form, so whole grids of directions (and whole batches of
# states) evaluate at once.

_PM = np.array([1.0, -1.0])  # the two outcomes
# p = v_0 / 2 and the eigenvalues (v_0 +- |v|) / 4 as _V0 * v_0 + _LEN * |v|
_V0 = np.array([0.5, 0.25, 0.25])[:, None, None, None]
_LEN = np.array([0.0, 0.25, -0.25])[:, None, None, None]


def _qubit_components(rhos: np.ndarray):
    """R[:, 0] as (4, K) and R[:, 1:] as (4, K, 3) for a (K, 4, 4) stack."""
    r = np.asarray(rhos, dtype=complex).reshape(-1, 2, 2, 2, 2)
    big_r = np.einsum("kabcd,mca,jdb->mkj", r, _PAULI, _PAULI).real
    return big_r[:, :, 0], big_r[:, :, 1:]


def _qubit_objective(comp, nvecs: np.ndarray) -> np.ndarray:
    """Objective for directions nvecs: (G, 3) shared or (K, G, 3) per item."""
    w0, w = comp
    d = w @ nvecs.T if nvecs.ndim == 2 else np.einsum("mkj,kgj->mkg", w, nvecs)
    v = w0[:, :, None, None] + d[..., None] * _PM
    x = _xlog2x(_V0 * v[0] + _LEN * np.sqrt(v[1] ** 2 + v[2] ** 2 + v[3] ** 2))
    f = x[0] - x[1] - x[2]
    return f[..., 0] + f[..., 1]


def _angle_grid(n_theta: int, n_phi: int):
    th = np.linspace(0.0, np.pi, n_theta)
    ph = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    return tt.ravel(), pp.ravel()


def conditional_entropy_qubit_batch(
    rhos: np.ndarray,
    n_theta: int = 32,
    n_phi: int = 64,
    zoom_stages: int = 6,
    return_angles: bool = False,
):
    """Vectorized minimum measured conditional entropy, second qubit measured.

    ``rhos`` is a (K, 4, 4) stack.  A shared coarse Bloch-angle grid is
    followed by per-item tangent-plane refinements with shrinking window:
    the local grids perturb the direction vector itself, so the refinement
    has no polar coordinate singularity.  Fully deterministic.  Returns the
    (K,) minima, and optionally the final (theta, phi) angles.
    """
    rhos = np.asarray(rhos, dtype=complex).reshape(-1, 4, 4)
    k = rhos.shape[0]
    comp = _qubit_components(rhos)
    tt, pp = _angle_grid(n_theta, n_phi)
    grid = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    )
    f = _qubit_objective(comp, grid)
    idx = np.argmin(f, axis=1)
    best = f[np.arange(k), idx]
    n_best = grid[idx]

    off = np.linspace(-1.0, 1.0, 9)
    oa, ob = np.meshgrid(off, off, indexing="ij")
    oa, ob = oa.ravel(), ob.ravel()
    h = 1.5 * np.pi / n_theta  # covers the coarse cell with margin
    for _ in range(zoom_stages):
        # orthonormal tangent frame at each current direction
        pole = np.abs(n_best[:, 2]) > 0.9
        ref = np.where(pole[:, None], np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        u = np.cross(n_best, ref)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = np.cross(n_best, u)
        cand = (
            n_best[:, None, :]
            + h * (oa[None, :, None] * u[:, None, :] + ob[None, :, None] * v[:, None, :])
        )
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        fl = _qubit_objective(comp, cand)
        j = np.argmin(fl, axis=1)
        bl = fl[np.arange(k), j]
        upd = bl < best
        best = np.where(upd, bl, best)
        n_best = np.where(upd[:, None], cand[np.arange(k), j], n_best)
        h /= 3.0
    best = np.maximum(best, 0.0)
    if return_angles:
        cth = np.arccos(np.clip(n_best[:, 2], -1.0, 1.0))
        cph = np.arctan2(n_best[:, 1], n_best[:, 0]) % (2 * np.pi)
        return best, (cth, cph)
    return best


# --- measured conditional entropy: public API --------------------------------


def _split_for_measurement(rho: DensityMatrix, cut: Bipartition):
    """Permute so the kept block comes first; return raw matrix and dims."""
    cut.check_covers(rho.labels)
    ordered = permute_parties(rho, cut.side_one + cut.side_two)
    d_keep = int(np.prod([rho.dims[rho.index_of(l)] for l in cut.side_one]))
    d_meas = ordered.dim // d_keep
    return ordered.matrix, d_keep, d_meas


def _measured_qubit_objective(matrix, d_keep):
    """Scalar objective (theta, phi) -> value for a measured qubit side."""
    if d_keep == 2:
        comp = _qubit_components(matrix.reshape(1, 4, 4))
        return lambda angles: float(_qubit_objective(comp, bloch_vector(*angles)[None, :])[0, 0])

    r = matrix.reshape(d_keep, 2, d_keep, 2)
    rho_keep = np.einsum("abcb->ac", r)
    t = np.einsum("abcd,jdb->jac", r, _PAULI[1:])

    def f(angles):
        nd = np.tensordot(bloch_vector(angles[0], angles[1]), t, axes=(0, 0))
        total = 0.0
        for sgn in (1.0, -1.0):
            m = (rho_keep + sgn * nd) / 2
            p = np.trace(m).real
            if p < _XLOG_FLOOR:
                continue
            w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
            total += entropy_of_spectrum(w) + p * np.log2(p)
        return total

    return f


def _minimize_qubit_side(matrix, d_keep, grid, refine_from, maxiter):
    tt, pp = _angle_grid(*grid)
    fun = _measured_qubit_objective(matrix, d_keep)
    if d_keep == 2:
        comp = _qubit_components(matrix.reshape(1, 4, 4))
        dirs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        )
        f_grid = _qubit_objective(comp, dirs)[0]
    else:
        f_grid = np.array([fun((t, p)) for t, p in zip(tt, pp)])
    order = np.argsort(f_grid)[:refine_from]
    results = [(float(f_grid[order[0]]), np.array([tt[order[0]], pp[order[0]]]))]
    for i in order:
        res = minimize(
            fun,
            np.array([tt[i], pp[i]]),
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-9, "maxiter": maxiter, "maxfev": 4 * maxiter},
        )
        results.append((float(res.fun), res.x))
    results.sort(key=lambda r: r[0])
    best_val, best_x = results[0]
    runner = results[1][0] if len(results) > 1 else None
    trace = OptimizerTrace(restarts=refine_from, best=max(best_val, 0.0), runner_up=runner)
    return max(best_val, 0.0), (float(best_x[0]), float(best_x[1])), trace


def _dim4_objective(matrix, d_keep):
    r = matrix.reshape(d_keep, 4, d_keep, 4)

    def f(angles):
        u = unitary_from_angles(angles)
        # unnormalized conditional ops on the kept side, one per column of u
        m = np.einsum("ambn,ni,mi->iab", r, u, u.conj())
        total = 0.0
        for i in range(4):
            p = np.trace(m[i]).real
            if p < _XLOG_FLOOR:
                continue
            w = np.clip(np.linalg.eigvalsh(m[i]), 0.0, None)
            total += entropy_of_spectrum(w) + p * np.log2(p)
        return total

    return f


def _minimize_dim4_side(matrix, d_keep, restarts, seed, maxiter):
    fun = _dim4_objective(matrix, d_keep)
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(restarts):
        x0 = np.empty(12)
        x0[0::2] = rng.uniform(0.0, np.pi / 2, 6)
        x0[1::2] = rng.uniform(0.0, 2 * np.pi, 6)
        res = minimize(
            fun,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": maxiter, "maxfev": 6 * maxiter},
        )
        results.append((float(res.fun), res.x))
    results.sort(key=lambda r: r[0])
    best_val, best_x = results[0]
    runner = results[1][0] if len(results) > 1 else None
    trace = OptimizerTrace(restarts=restarts, best=max(best_val, 0.0), runner_up=runner)
    return max(best_val, 0.0), tuple(float(x) for x in best_x), trace


def conditional_entropy_min(
    rho: DensityMatrix,
    cut: Bipartition,
    grid: tuple[int, int] = (32, 64),
    refine_from: int = 5,
    restarts: int = 64,
    seed: int = 0,
    maxiter: int = 200,
) -> tuple[float, MeasurementBasis]:
    """Minimized measured conditional entropy; measurement on ``cut.side_two``.

    Measured sides of dimension 2 use a coarse Bloch-angle grid followed by
    simplex refinement from the best ``refine_from`` cells; dimension-4 sides
    use ``restarts`` seeded random starts of a 12-angle unitary family.
    """
    value, basis, _ = _conditional_entropy_min_traced(
        rho, cut, grid, refine_from, restarts, seed, maxiter
    )
    return value, basis


def _conditional_entropy_min_traced(
    rho, cut, grid=(32, 64), refine_from=5, restarts=64, seed=0, maxiter=200
):
    matrix, d_keep, d_meas = _split_for_measurement(rho, cut)
    if d_meas == 2:
        value, (th, ph), trace = _minimize_qubit_side(matrix, d_keep, grid, refine_from, maxiter)
        basis = bloch_basis(th, ph, cut.side_two)
        return value, basis, trace
    if d_meas == 4:
        value, angles, trace = _minimize_dim4_side(matrix, d_keep, restarts, seed, maxiter)
        basis = unitary_basis(angles, cut.side_two)
        return value, basis, trace
    raise ValueError(f"unsupported measured dimension {d_meas} (need 2 or 4)")


def discord(rho: DensityMatrix, cut: Bipartition, **opt) -> DiscordResult:
    """Quantum discord D = I - J with the measurement on ``cut.side_two``.

    Pure inputs take a fast path: their discord equals the entanglement
    entropy of the ``side_one`` marginal and needs no optimization.
    """
    cut.check_covers(rho.labels)
    s_one = vn_entropy(partial_trace(rho, cut.side_one))
    if rho.is_pure(_PURITY_TOL):
        return DiscordResult(
            discord=s_one,
            mutual_information=2.0 * s_one,
            classical_correlation=s_one,
            conditional_entropy=0.0,
            best_basis=None,
            optimizer_trace=OptimizerTrace(restarts=0, best=0.0),
        )
    mi = mutual_information(rho, cut)
    cond, basis, trace = _conditional_entropy_min_traced(rho, cut, **opt)
    j = s_one - cond
    return DiscordResult(
        discord=mi - j,
        mutual_information=mi,
        classical_correlation=j,
        conditional_entropy=cond,
        best_basis=basis,
        optimizer_trace=trace,
    )
