"""Bipartite quantum-correlation measures.

Concurrence and entanglement of formation use the two-qubit closed forms.
Quantum discord D(A:B) = S_B - S_AB + S(A|B) takes the measured conditional entropy

    S(A|B) = min over rank-1 projective measurements {Pi_i} on B
             of sum_i p_i S(rho_{A|i}),

which for a pure three-qubit state is exact by Koashi-Winter: S(A|B) =
E_f(AC).  ``pure_scores_batch`` takes it that way, with the concurrences,
the three-tangle and S_A, from one pass over (K, 8) amplitudes whose first
qubit is the nodal one (``nodal_first`` puts it there); ``ggm_batch`` is
the generalized geometric measure of such a batch.  Both are elementwise on
the (K,) amplitude columns x_abc (C^2 through the 2x2 tau of ``_concurrence_sq``),
so a state's scores are bit-for-bit the same in any batch.  Other inputs are
minimized: a qubit measured side over its Bloch direction n by one
deterministic grid-and-zoom search (whole batches at once; the scalar API is
a batch of one, and the tests use it as the closed form's oracle), basis
(I +- n.sigma) / 2; a measured pair, a kept qubit and rank <= 2 by the exact
Koashi-Winter value E_f(rho_AE), E purifying rho; other measured sides of
dimension 3 or 4 by a seeded multistart gradient search over U(d) that the
saddle-free Newton polish ``minimize`` ends (it ends the MK search in ``bell``
too).  Searches give upper bounds; the trace names the kernel, restarts and
best-vs-runner-up gap.  ``DiscordResult`` reports the mutual information I = D + J.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    XLOG_FLOOR,
    binary_entropy,
    partial_trace,
    vn_entropy,
    xlog2x,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = np.array([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])  # s_0 = I, s_1..s_3
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_PROJECTOR_TOL = 1e-10  # MeasurementBasis checks; the searches' projectors meet them to ~1e-15


# --- the Newton polish that ends the MK and U(d) searches ---------------------
#
# Checked against a BFGS polish from the same start on 300 Haar and Ginibre MK states
# (2 restarts) and 48 U(d) states (ranks 3-8 at d = 4, measured qutrits at d = 3): the
# values agree to 2.4e-15 for every Hessian step from 1e-7 to 1e-3 and every floor from
# 1e-12 to 1e-5.  Polishes take 3-4 steps on average; one MK state in a flat valley took 54.
# A floor of 1e-3 stalls there and ends 3.3e-8 short.
_POLISH_GTOL = 1e-10  # at O(1) curvature this leaves f within ~1e-20 of the local minimum
_POLISH_MAX_STEPS = 200  # about 4x the most steps seen above
_FD_STEP = 1e-5  # central-difference step of the Hessian, mid-range of the working 1e-7..1e-3
_EIG_FLOOR = 1e-8  # floor on |lambda| of the Hessian, mid-range of the working 1e-12..1e-5
_ARMIJO = 1e-4  # sufficient-decrease constant of every line search here
_BACKTRACK = 0.5 ** np.arange(30)  # step lengths tried, from the whole Newton step down


@dataclass(frozen=True)
class PolishResult:
    x: np.ndarray
    fun: float


def minimize(fun, x0, args=()) -> PolishResult:
    """Saddle-free Newton descent of ``fun`` from ``x0``; never ends above f(x0).

    ``fun(xs, *args)`` takes a (P, n) stack of points and returns their values (P,)
    and gradients (P, n).  Each step takes the Hessian H from central differences of
    the gradient (one call on 2n points) and moves along -|H|^-1 grad, |lambda|
    floored at _EIG_FLOOR, so it descends at saddles and in flat directions as well;
    backtracking keeps the longest step of _BACKTRACK that meets the Armijo
    condition, one call for all of them.  Stops at gradient norm _POLISH_GTOL, after
    _POLISH_MAX_STEPS steps, or when no step length lowers f (f is then at rounding level).
    """
    x = np.asarray(x0, dtype=float)
    n = x.size
    probe = _FD_STEP * np.concatenate([np.eye(n), -np.eye(n)])
    (f,), (g,) = fun(x[None], *args)
    for _ in range(_POLISH_MAX_STEPS):
        if np.linalg.norm(g) <= _POLISH_GTOL:
            break
        g2 = fun(x + probe, *args)[1]
        h = (g2[:n] - g2[n:]) / (2 * _FD_STEP)
        w, v = np.linalg.eigh((h + h.T) / 2)
        p = -v @ ((v.T @ g) / np.maximum(np.abs(w), _EIG_FLOOR))
        f_t, g_t = fun(x + _BACKTRACK[:, None] * p, *args)
        ok = np.flatnonzero(f_t < f + _ARMIJO * _BACKTRACK * (g @ p))
        if not ok.size:
            break
        x, f, g = x + _BACKTRACK[ok[0]] * p, f_t[ok[0]], g_t[ok[0]]
    return PolishResult(x, float(f))


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement on one subsystem: d trace-1 P, each with P^dagger P = P (so
    P = P^dagger = P^2), that sum to I, hence mutually orthogonal and of rank 1."""

    subsystem: tuple[str, ...]
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        d = projs[0].shape[0]
        if len(projs) != d:
            raise ValueError(f"need {d} projectors for dimension {d}")
        total = sum(projs)
        if not np.max(np.abs(total - np.eye(d))) <= _PROJECTOR_TOL:  # NaN fails too
            raise ValueError("projectors do not sum to the identity")
        for i, p in enumerate(projs):
            if max(abs(np.trace(p).real - 1.0), np.max(np.abs(p.conj().T @ p - p))) > _PROJECTOR_TOL:
                raise ValueError(f"projector {i} is not a rank-1 orthogonal projector")
            p.setflags(write=False)
        object.__setattr__(self, "subsystem", tuple(self.subsystem))
        object.__setattr__(self, "projectors", projs)


@dataclass(frozen=True)
class OptimizerTrace:
    """Convergence evidence for a multistart minimization."""

    restarts: int
    best: float
    kernel: str  # "pure", "bloch-grid", "rank2-koashi-winter" or "unitary-search"
    runner_up: float | None = None

    @property
    def gap(self) -> float:
        return 0.0 if self.runner_up is None else self.runner_up - self.best


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


def bloch_vector(theta, phi) -> np.ndarray:
    """Unit vectors from polar angles: the x, y and z components stacked first."""
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


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


# --- 2x2 spectra and entropies ---------------------------------------------
#
# Elementwise, so one copy serves whole batches and the batches of one that
# the scalar API passes.


def _eig2(m00, m01, m11):
    """Eigenvalues (larger, smaller) of the Hermitian [[m00, m01], [m01*, m11]]."""
    half_t = (m00 + m11).real / 2
    disc = np.sqrt(np.maximum(((m00 - m11).real / 2) ** 2 + np.abs(m01) ** 2, 0.0))
    return half_t + disc, half_t - disc


def _eig2_entropy(m00, m01, m11):
    """-sum e log2 e over the eigenvalues e of the 2x2 Hermitian above (xlog2x is 0 below 0)."""
    e1, e2 = _eig2(m00, m01, m11)
    return -xlog2x(e1) - xlog2x(e2)


# --- two-qubit closed forms --------------------------------------------------


def concurrence_batch(rhos: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} over a (K, 4, 4) stack.

    The l_i are the square roots of the eigenvalues of rho * rho~ in
    decreasing order, rho~ = (sy (x) sy) rho* (sy (x) sy) with conjugation in
    the computational basis, or the singular values of tau = W^T (sy (x) sy) W
    for rho = W W^dagger, W = v sqrt(w) from ``eigh`` (``_concurrence_sq``'s tau
    at any rank), which keeps full precision at zero eigenvalues.
    """
    rhos = np.asarray(rhos, dtype=complex).reshape(-1, 4, 4)
    w, v = np.linalg.eigh(rhos)
    wm = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    lam = np.linalg.svd(np.swapaxes(wm, 1, 2) @ (_YY @ wm), compute_uv=False)  # decreasing
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


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
    return binary_entropy(c2 / (2.0 * (1.0 + np.sqrt(np.clip(1.0 - c2, 0.0, None)))))


def eof_two_qubit(rho: DensityMatrix) -> float:
    """Entanglement of formation of a 2-qubit state: a batch of one of ``eof_batch``."""
    return float(eof_batch(concurrence(rho)))


# --- pure three-qubit batches ---------------------------------------------------
#
# (K, 8) amplitudes in the basis order |abc> -> 4a + 2b + c.  The scores take
# the first qubit as the nodal one; ``nodal_first`` moves any qubit there.


def nodal_first(amps, site: int) -> np.ndarray:
    """(K, 8) amplitudes with qubit ``site`` (0, 1 or 2) first and the other two in order."""
    p = np.asarray(amps, dtype=complex).reshape(-1, 2, 2, 2)
    return np.moveaxis(p, site + 1, 1).reshape(-1, 8)


_CHUNK = 4096  # states per kernel pass: a (K,) complex column of 64 KB


def _in_chunks(kernel):
    """``kernel`` over pieces of at most ``_CHUNK`` states, and one pass up to that: the one
    place a batch is split, so callers pass whole batches.  From 256 KB a column (16,384
    complex states) numpy reuses temporaries in place, and the in-place products round
    differently, so scores would depend on the batch."""

    @functools.wraps(kernel)
    def run(amps):
        amps = np.asarray(amps, dtype=complex).reshape(-1, 8)
        if len(amps) <= _CHUNK:
            return kernel(amps)
        parts = [kernel(amps[i : i + _CHUNK]) for i in range(0, len(amps), _CHUNK)]
        return tuple(map(np.concatenate, zip(*parts))) if isinstance(parts[0], tuple) else np.concatenate(parts)

    return run


def _columns(amps) -> np.ndarray:
    """(2, 2, 2, K) amplitudes: x[a, b, c] is the contiguous (K,) column of |abc>.  The
    kernels multiply complex columns only when contiguous and of one shape: numpy's
    strided complex loop may round differently, so scores would depend on the batch."""
    return np.ascontiguousarray(np.asarray(amps, dtype=complex).reshape(-1, 8).T).reshape(2, 2, 2, -1)


def _abs2(z):
    out = z.real * z.real
    out += z.imag * z.imag
    return out


def _site_marginals(x, sites) -> list:
    """[(r00, r01, r11) for each qubit of ``sites``], each entry a (K,) left-to-right
    sum of four products of the columns x[a, b, c]."""
    x2, out = _abs2(x), []
    for site in sites:
        order = (site, *(q for q in range(3) if q != site), 3)
        y, y2 = x.transpose(order), x2.transpose(order)
        u, v = ([y[q, j, k] for j in (0, 1) for k in (0, 1)] for q in (0, 1))
        r00, r11 = (y2[q, 0, 0] + y2[q, 0, 1] + y2[q, 1, 0] + y2[q, 1, 1] for q in (0, 1))
        r01 = u[0] * v[0].conj() + u[1] * v[1].conj() + u[2] * v[2].conj() + u[3] * v[3].conj()
        out.append((r00, r01, r11))
    return out


def _concurrence_sq(w) -> np.ndarray:
    """Rank-2 Wootters C^2 of rho = V V^dagger, V[ab, e] = w[a, b, e], from contiguous (K,)
    columns w[a, b, e] (e: the traced qubit).  tau = V^T (sy (x) sy) V is complex symmetric,
    tau_cd = w01c w10d + w10c w01d - w00c w11d - w11c w00d, and its singular values are
    Wootters' l_i, so C^2 = ||tau||_F^2 - 2 |det tau| = |t00|^2 + |t11|^2 + 2 |t01|^2 - 2 |det tau|."""

    def tau(c, d):
        return (
            w[0, 1, c] * w[1, 0, d] + w[1, 0, c] * w[0, 1, d]
            - w[0, 0, c] * w[1, 1, d] - w[1, 1, c] * w[0, 0, d]
        )

    t00, t01, t11 = tau(0, 0), tau(0, 1), tau(1, 1)
    c2 = _abs2(t00) + _abs2(t11) + 2.0 * _abs2(t01) - 2.0 * np.abs(t00 * t11 - t01 * t01)
    return np.maximum(c2, 0.0)


@_in_chunks
def pure_scores_batch(amps: np.ndarray):
    """(delta_D, delta_C, S_A, S(A|B), S(A|C), C_AB^2, C_AC^2) for a (K, 8) batch, nodal A.

    Exact: S(A|B) = E_f(C_AC) and S(A|C) = E_f(C_AB) (Koashi-Winter), and
    delta_C = 4 det(rho_A) - C_AB^2 - C_AC^2, from elementwise passes over the
    amplitude columns of ``_CHUNK`` states (C^2 through ``_concurrence_sq``'s tau),
    so a state's scores are bit-for-bit the same in any batch (the root finders rely on this).
    """
    x = _columns(amps)
    c2_ab, c2_ac = _concurrence_sq(x), _concurrence_sq(np.swapaxes(x, 1, 2))  # C, then B traced
    r00, r01, r11 = _site_marginals(x, (0,))[0]
    s_a = _eig2_entropy(r00, r01, r11)
    tangle = 4.0 * np.clip(r00 * r11 - _abs2(r01), 0.0, None)
    cond_ab, cond_ac = eof_batch(np.sqrt([c2_ac, c2_ab]))
    return s_a - cond_ab - cond_ac, tangle - c2_ab - c2_ac, s_a, cond_ab, cond_ac, c2_ab, c2_ac


@_in_chunks
def ggm_batch(amps: np.ndarray) -> np.ndarray:
    """Generalized geometric measure of a (K, 8) batch: 1 - the largest eigenvalue
    of the three single-qubit marginals, the three bipartitions of three qubits.
    Elementwise on (K,) columns, so batch-invariant like ``pure_scores_batch``."""
    return 1.0 - np.max([_eig2(*r)[0] for r in _site_marginals(_columns(amps), range(3))], axis=0)


def ggm(psi: PureState) -> float:
    """GGM of one pure three-qubit state: a batch of one of ``ggm_batch``."""
    if not isinstance(psi, PureState) or psi.dims != (2, 2, 2):
        raise ValueError("ggm requires a pure three-qubit state")
    return float(ggm_batch(psi.amplitudes)[0])


# --- measured conditional entropy: one Bloch-direction minimizer -------------
#
# A measured qubit is parametrized by its Bloch direction n.  Outcome +-1
# leaves the unnormalized kept-side operator M = (rho_keep +- n . T) / 2 with
# T_j = tr_meas(rho (I (x) s_j)), and the objective is
# sum_pm [p log p - sum_lambda lambda log lambda] over its trace p and
# eigenvalues lambda.  Every objective below takes directions as (G, 3),
# shared by all K items, or (K, G, 3), per item, and returns (K, G) values, so
# one grid-and-zoom driver serves whole batches and the scalar API's batches
# of one.

_PM = np.array([1.0, -1.0])  # the two outcomes
_N_THETA, _N_PHI = 32, 64  # shared coarse Bloch-angle grid
# Tangent-plane refinements, the window shrinking 3x per stage.  Against a
# Nelder-Mead polish of the 5 best grid cells, 6 stages left the minimum up
# to 8.8e-9 high, 8 stages 8.6e-11 and 10 stages 1.5e-12 (320 two-qubit
# states of ranks 1-4, 24 states with a qutrit or qubit-pair kept side).
_ZOOM_STAGES = 10


@functools.cache
def _coarse_grid() -> np.ndarray:
    """The (_N_THETA * _N_PHI, 3) directions every search starts from, built on the first
    search rather than at import: the temporaries add 0.1-0.25 MB to a process's peak RSS,
    also where nothing searches."""
    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi, _N_THETA),
        np.linspace(0.0, 2 * np.pi, _N_PHI, endpoint=False),
        indexing="ij",
    )
    return bloch_vector(tt.ravel(), pp.ravel()).T


_ZOOM_OFFSETS = tuple(x.ravel() for x in np.meshgrid(*[np.linspace(-1.0, 1.0, 9)] * 2, indexing="ij"))


def _cond_entropy_terms(m) -> np.ndarray:
    """p log2 p - sum lambda log2 lambda for each operator of a (..., d, d) stack.

    Summed over a measurement's outcomes this is sum_i p_i S(M_i / p_i).
    """
    p = np.trace(m, axis1=-2, axis2=-1).real
    lam = np.linalg.eigvalsh(m)  # xlog2x takes rounding below 0 as 0
    return xlog2x(p) - xlog2x(lam).sum(axis=-1)


# Qubit kept side, closed form.  With R[m, j] = tr(rho s_m (x) s_j), s_0 = I,
# M = (v_0 I + v . s) / 4 on the kept qubit, v = R[:, 0] +- R[:, 1:] n; its
# trace p = v_0 / 2 and its eigenvalues are (v_0 +- |v|) / 4.


def _qubit_components(rhos: np.ndarray):
    """R[:, 0] as (4, K) and R[:, 1:] as (4, K, 3) for a (K, 4, 4) stack."""
    r = np.asarray(rhos, dtype=complex).reshape(-1, 2, 2, 2, 2)
    big_r = np.einsum("kabcd,mca,jdb->mkj", r, _PAULI, _PAULI).real
    return big_r[:, :, 0], big_r[:, :, 1:]


def _qubit_objective(comp, nvecs: np.ndarray) -> np.ndarray:
    w0, w = comp
    # the shared grid one row of w at a time: matrix-vector products, as in bell._party_rows
    d = (w[:, :, None] @ nvecs.T)[:, :, 0] if nvecs.ndim == 2 else np.einsum("mkj,kgj->mkg", w, nvecs)

    def outcome(sign):  # one outcome at a time, and (K, G) terms: the coarse grid's peak memory
        v = d * sign
        v += w0[:, :, None]
        q, r = 0.25 * v[0], 0.25 * np.sqrt(v[1] ** 2 + v[2] ** 2 + v[3] ** 2)
        return xlog2x(0.5 * v[0]) - xlog2x(q + r) - xlog2x(q - r)

    return outcome(1.0) + outcome(-1.0)


def _kept_components(rhos: np.ndarray, d_keep: int):
    """Any kept dimension d: rho_keep as (K, d, d) and T_j as (K, 3, d, d)."""
    r = np.asarray(rhos, dtype=complex).reshape(-1, d_keep, 2, d_keep, 2)
    return np.einsum("kabcb->kac", r), np.einsum("kabcd,jdb->kjac", r, _PAULI[1:])


def _kept_objective(comp, nvecs: np.ndarray) -> np.ndarray:
    rho_keep, t = comp
    spec = "kjac,gj->kgac" if nvecs.ndim == 2 else "kjac,kgj->kgac"
    nt = np.einsum(spec, t, nvecs)
    m = (rho_keep[:, None, None] + _PM[:, None, None] * nt[:, :, None]) / 2
    return _cond_entropy_terms(m).sum(axis=-1)


def row_norm(x) -> np.ndarray:
    """np.linalg.norm(x, axis=-1, keepdims=True) of a real stack, the same sums without its
    dispatch (the small-batch searches call it thousands of times)."""
    return np.sqrt((x * x).sum(axis=-1, keepdims=True))


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])
_UNIT_X, _UNIT_Z = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])


def _cross(a, b) -> np.ndarray:
    """a x b over the last axis, the products and differences ``np.cross`` takes, without its
    axis handling, which costs more than the arithmetic on the small stacks searches pass."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def tangent_frame(n):
    """Orthonormal (u, v) with u x v = n spanning the tangent plane at each unit 3-vector of
    an (..., 3) stack: u = n x e / |n x e|, e = x^ where |n_z| > 0.9 and z^ elsewhere, and
    v = n x u.  The Bloch zoom perturbs directions in it, and the MK polish charts each
    of its six directions by it."""
    u = _cross(n, np.where(np.abs(n[..., 2:]) > 0.9, _UNIT_X, _UNIT_Z))
    u /= row_norm(u)
    return u, _cross(n, u)


def _minimize_bloch(objective):
    """Grid-and-zoom minimum of ``objective`` over Bloch directions for K items.

    A shared coarse Bloch-angle grid is followed by per-item tangent-plane
    refinements with shrinking window: the local grids perturb the direction
    vector itself, so the refinement has no polar coordinate singularity.
    Fully deterministic.  Returns the (K,) minima, clipped at 0, and the
    (K, 3) minimizing directions.
    """
    grid = _coarse_grid()
    f = objective(grid)
    k = f.shape[0]
    idx = np.argmin(f, axis=1)
    best = f[np.arange(k), idx]
    n_best = grid[idx]

    oa, ob = _ZOOM_OFFSETS
    h = 1.5 * np.pi / _N_THETA  # covers the coarse cell with margin
    for _ in range(_ZOOM_STAGES):
        u, v = tangent_frame(n_best)
        cand = (
            n_best[:, None, :]
            + h * (oa[None, :, None] * u[:, None, :] + ob[None, :, None] * v[:, None, :])
        )
        cand /= row_norm(cand)
        fl = objective(cand)
        j = np.argmin(fl, axis=1)
        bl = fl[np.arange(k), j]
        upd = bl < best
        best = np.where(upd, bl, best)
        n_best = np.where(upd[:, None], cand[np.arange(k), j], n_best)
        h /= 3.0
    return np.maximum(best, 0.0), n_best


def conditional_entropy_qubit_batch(rhos: np.ndarray) -> np.ndarray:
    """Minimum measured conditional entropy of a (K, 4, 4) stack, second qubit measured."""
    comp = _qubit_components(rhos)
    return _minimize_bloch(lambda n: _qubit_objective(comp, n))[0]


# --- measured conditional entropy: measured side of dimension 3 or 4 ---------

_RANK2_TOL = 1e-12  # dropping a noise eigenvalue e moves entropies by ~e log2(1/e) = 4e-11
# The descent finds basins and ``minimize`` ends the best: on 44 states (ranks 2-12, d = 3, 4)
# 25 steps of 4 starts matched a 64-start, 1000-step reference to 1e-14; ||Omega||_F < 1e-6
# took 40-300.
_SEARCH_GRAD_TOL = 1e-6  # a start stops once ||Omega||_F is below this
_SEARCH_MAX_STEPS = 100  # 4x the steps the basins needed above


def _basis_objective(r, u):
    """f(U) as (K,) and its gradient in conj(U) as (K, d, d) for a (K, d, d) stack.

    Basis u_i (columns of U) leaves M_i[a, b] = sum_mn r[a, m, b, n] conj(u_mi) u_ni, and
    f(U) = sum_i [p_i log p_i - tr M_i log M_i] has the gradient R_i u_i in conj(u_i) with
    R_i[m, n] = sum_ab G_i[b, a] r[a, m, b, n], G_i = log p_i I - log M_i (Audenaert,
    Verstraete and De Moor, PRA 64, 052304 (2001)).
    """
    m = np.einsum("ambn,kmi,kni->kiab", r, u.conj(), u)
    w, v = np.linalg.eigh(m)
    p = np.trace(m, axis1=-2, axis2=-1).real
    f = (xlog2x(p) - xlog2x(w).sum(axis=-1)).sum(axis=-1)
    log_g = np.log2(np.maximum(p, XLOG_FLOOR)[..., None] / np.maximum(w, XLOG_FLOOR))
    g = (v * log_g[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))  # G_i, eigenvalues log_g
    return f, np.einsum("kiba,ambn,kni->kmi", g, r, u)


def _cayley(x, u):
    """(I - X/2)^-1 (I + X/2) U = 2 (I - X/2)^-1 U - U: on U(d) for a skew-Hermitian X."""
    return 2 * np.linalg.solve(np.eye(x.shape[-1]) - x / 2, u) - u


def _skew_hermitian_basis(d):
    """A real basis of the d x d skew-Hermitian matrices as (d * d, d, d): i E_jj,
    E_jk - E_kj (j < k) and i (E_jk + E_kj) (j > k)."""
    basis = np.zeros((d, d, d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            if j < k:
                basis[j, k, j, k], basis[j, k, k, j] = 1, -1
            else:  # i E_jj on the diagonal, i (E_jk + E_kj) below it
                basis[j, k, j, k] = basis[j, k, k, j] = 1j
    return basis.reshape(d * d, d, d)


def _minimize_dim4_side(matrix, d_keep, restarts, seed):
    """Upper bound on min f over U(d), d = 3 or 4, as (value, U, trace).

    All ``restarts`` starts of ``default_rng(seed)`` take Cayley steps along -Omega at once, each
    with its own step length (doubled on Armijo success, else halved).  ``minimize`` then
    polishes the best in the Cayley chart around it, on the d * d real coordinates of X.
    """
    if restarts < 1:
        raise ValueError(f"the U(d) search needs restarts >= 1, got {restarts}")
    d = matrix.shape[0] // d_keep
    r = matrix.reshape(d_keep, d, d_keep, d)
    u = np.linalg.qr(np.random.default_rng(seed).standard_normal((restarts, d, d, 2)) @ [1, 1j])[0]
    (f, gam), step = _basis_objective(r, u), np.ones(restarts)
    for _ in range(_SEARCH_MAX_STEPS):
        omega = gam @ np.conj(np.swapaxes(u, 1, 2)) - u @ np.conj(np.swapaxes(gam, 1, 2))
        g2 = np.sum(np.abs(omega) ** 2, axis=(1, 2))
        live = g2 > _SEARCH_GRAD_TOL**2
        if not live.any():
            break
        trial = _cayley(-step[:, None, None] * omega, u)
        f_t, gam_t = _basis_objective(r, trial)
        ok = live & (f_t <= f - _ARMIJO * step * g2)
        u[ok], f[ok], gam[ok] = trial[ok], f_t[ok], gam_t[ok]
        step = np.where(ok, 2 * step, step / 2)  # a stopped start never moves again
    u0, eye, basis = u[np.argmin(f)], np.eye(d), _skew_hermitian_basis(d)

    def polish(x):  # X = x . basis; d(C U0) = A dX (C + I) U0 / 2, A = (I - X/2)^-1 = (C + I) / 2
        c1 = 2 * np.linalg.inv(eye - np.einsum("pk,kab->pab", x, basis) / 2)
        val, g = _basis_objective(r, (c1 - eye) @ u0)
        k = c1 @ u0 @ np.conj(np.swapaxes(g, 1, 2)) @ c1 / 2
        return val, np.einsum("pba,kab->pk", k, basis).real  # df = Re tr(K dX)

    res = minimize(polish, np.zeros(d * d))
    best, runner = max(float(res.fun), 0.0), float(np.sort(f)[1]) if restarts > 1 else None
    trace = OptimizerTrace(restarts=restarts, best=best, kernel="unitary-search", runner_up=runner)
    return best, _cayley(np.einsum("k,kab->ab", res.x, basis), u0), trace


# --- measured conditional entropy: public API --------------------------------


def conditional_entropy_min(
    rho: DensityMatrix, cut: Bipartition, restarts: int = 64, seed: int = 0
) -> tuple[float, MeasurementBasis | None]:
    """Minimized measured conditional entropy; measurement on ``cut.side_two``.

    A measured qubit (any kept dimension) is a batch of one of the
    deterministic grid-and-zoom search behind ``conditional_entropy_qubit_batch``;
    ``restarts`` and ``seed`` do not apply to it, nor to the Koashi-Winter
    closed form (a measured pair, a kept qubit, rank <= 2), whose basis is
    ``None``.  Other measured sides of dimension 3 or 4 take ``restarts``
    seeded starts of the U(d) search; larger ones raise ValueError.
    """
    value, basis, _ = _conditional_entropy_min_traced(rho, cut, restarts, seed)
    return value, basis


def _conditional_entropy_min_traced(rho, cut, restarts=64, seed=0):
    cut.check_covers(rho.labels)
    ordered = partial_trace(rho, cut.side_one + cut.side_two)  # kept block first
    matrix, d_keep = ordered.matrix, int(np.prod(ordered.dims[: len(cut.side_one)]))
    d_meas = matrix.shape[0] // d_keep
    if d_meas == 2:
        if d_keep == 2:
            comp, objective = _qubit_components(matrix), _qubit_objective
        else:
            comp, objective = _kept_components(matrix, d_keep), _kept_objective
        best, n = _minimize_bloch(lambda nv: objective(comp, nv))
        value, n_sigma = float(best[0]), np.einsum("j,jab->ab", n[0], _PAULI[1:])
        basis = MeasurementBasis(cut.side_two, ((_PAULI[0] + n_sigma) / 2, (_PAULI[0] - n_sigma) / 2))
        return value, basis, OptimizerTrace(restarts=1, best=value, kernel="bloch-grid")
    if d_meas > 4:  # the search's step cap and tolerance were checked up to d = 4
        raise ValueError(f"unsupported measured dimension {d_meas} (need 2, 3 or 4)")
    if d_keep == 2 and d_meas == 4 and ordered.spectrum[-3] <= _RANK2_TOL:
        w, v = np.linalg.eigh(matrix)  # E_f(tr_BC |psi><psi|), psi[a, bc, e] = sqrt(w_e) v_e[a, bc]
        p = (v[:, -2:] * np.sqrt(np.maximum(w[-2:], 0.0))).reshape(2, 4, 2)  # psi
        value = float(eof_batch(concurrence_batch(np.einsum("abe,cbf->aecf", p, p.conj())))[0])
        return value, None, OptimizerTrace(restarts=0, best=value, kernel="rank2-koashi-winter")
    value, u, trace = _minimize_dim4_side(matrix, d_keep, restarts, seed)
    return value, MeasurementBasis(cut.side_two, [np.outer(c, c.conj()) for c in u.T]), trace


def discord(rho: DensityMatrix, cut: Bipartition, **opt) -> DiscordResult:
    """Quantum discord D = I - J = S_two - S_joint + S(one|two), the measurement on ``cut.side_two``.

    A pure input needs no search: S_two = S_one, S_joint = 0 and S(one|two) = 0
    (measuring side two in its Schmidt basis leaves side one pure), so D = S_one.
    """
    cut.check_covers(rho.labels)
    s_one = vn_entropy(partial_trace(rho, cut.side_one))
    if rho.is_pure():
        s_two, s_joint, cond, basis = s_one, 0.0, 0.0, None
        trace = OptimizerTrace(restarts=0, best=0.0, kernel="pure")
    else:
        s_two, s_joint = vn_entropy(partial_trace(rho, cut.side_two)), vn_entropy(rho)
        cond, basis, trace = _conditional_entropy_min_traced(rho, cut, **opt)
    return DiscordResult(
        discord=s_two - s_joint + cond,
        mutual_information=s_one + s_two - s_joint,
        classical_correlation=s_one - cond,
        conditional_entropy=cond,
        best_basis=basis,
        optimizer_trace=trace,
    )
