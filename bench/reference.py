"""Reference values the benchmark checks qmono's outputs against.

Everything here is written from the definitions and imports nothing from
qmono, so a fault in a qmono layer cannot hide in its own check.  Pure
three-qubit states are (K, 8) complex arrays in the basis order
|abc> -> 4a + 2b + c; mixed states are (8, 8) density matrices.
"""

from __future__ import annotations

import numpy as np

_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)
_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": _SY,
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1 / np.sqrt(2)

# Endpoints of the paper's two interpolation paths (Figs 6 and 7).
PATH_GHZ_END = (0.7, 3.06, 0.55, 0.56, 0.63)
PATH_W_END = (3.25, 4.38, 11.02, 4.16, 3.98, 2.45)


def _normalize(amps: np.ndarray) -> np.ndarray:
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def xlog2x(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log2(safe), 0.0)


def entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits over the last axis (negative noise clipped)."""
    return -xlog2x(np.clip(probs, 0.0, None)).sum(axis=-1)


def vn_entropy(rho: np.ndarray) -> np.ndarray:
    return entropy(np.linalg.eigvalsh(rho))


# --- states ---------------------------------------------------------------------


def two_branch(theta, kappa, a1, a2, a3) -> np.ndarray:
    """cos(theta)|000> + e^{i kappa} sin(theta)|f1 f2 f3>, |f> = cos a|0> + sin a|1>."""
    theta, kappa, a1, a2, a3 = np.broadcast_arrays(*(np.asarray(x, float) for x in (theta, kappa, a1, a2, a3)))
    kets = [np.stack([np.cos(a), np.sin(a)], axis=-1) for a in (a1, a2, a3)]
    branch = np.einsum("...i,...j,...k->...ijk", *kets).reshape(theta.shape + (8,))
    amps = (np.exp(1j * kappa) * np.sin(theta))[..., None] * branch
    amps[..., 0] += np.cos(theta)
    return _normalize(amps)


def ghz_sym(theta, kappa, alpha) -> np.ndarray:
    return two_branch(theta, kappa, alpha, alpha, alpha)


def w_class(t1, t2, t3, p1, p2, p3) -> np.ndarray:
    """Half-angle superposition on {000, 001, 010, 100}."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = np.cos(t1 / 2)
    amps[0b001] = np.sin(t1 / 2) * np.sin(t2 / 2) * np.cos(t3 / 2) * np.exp(1j * p1)
    amps[0b010] = np.sin(t1 / 2) * np.sin(t2 / 2) * np.sin(t3 / 2) * np.exp(1j * p2)
    amps[0b100] = np.sin(t1 / 2) * np.cos(t2 / 2) * np.exp(1j * p3)
    return _normalize(amps)


def path_states(path: str, mu) -> np.ndarray:
    """cos(mu)|endpoint> + sin(mu)|GHZ>, renormalized; path is 'ghz' or 'w-ghz'."""
    end = two_branch(*PATH_GHZ_END) if path == "ghz" else w_class(*PATH_W_END)
    mu = np.asarray(mu, dtype=float)[..., None]
    return _normalize(np.cos(mu) * end + np.sin(mu) * GHZ)


def haar(n: int, seed: int) -> np.ndarray:
    """The draw `qmono sample` documents: complex Gaussians per seed, normalized."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    return _normalize(z)


# --- pure-state scores ------------------------------------------------------------


def _tensor(amps):
    return np.asarray(amps, dtype=complex).reshape(-1, 2, 2, 2)


def schmidt_probs(amps: np.ndarray, party: int) -> np.ndarray:
    """(K, 2) squared singular values of the 2x4 reshape that splits off one party."""
    t = np.moveaxis(_tensor(amps), party + 1, 1).reshape(-1, 2, 4)
    return np.linalg.svd(t, compute_uv=False) ** 2


def pair_density(amps: np.ndarray, other: int) -> np.ndarray:
    """(K, 4, 4) reduced state of A and party ``other`` (1 = B, 2 = C)."""
    t = _tensor(amps)
    if other == 2:
        t = t.transpose(0, 1, 3, 2)
    return np.einsum("kabc,kdec->kabde", t, t.conj()).reshape(-1, 4, 4)


def wootters(rho: np.ndarray) -> np.ndarray:
    """Concurrence from the non-Hermitian eigenvalues of rho (sy sy) rho* (sy sy)."""
    rho = np.asarray(rho, dtype=complex).reshape(-1, 4, 4)
    ev = np.linalg.eigvals(rho @ (_YY @ rho.conj() @ _YY))
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)), axis=-1)[:, ::-1]
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def eof(c: np.ndarray) -> np.ndarray:
    h = (1.0 + np.sqrt(np.clip(1.0 - c * c, 0.0, None))) / 2.0
    return entropy(np.stack([h, 1.0 - h], axis=-1))


def scores(amps: np.ndarray) -> dict[str, np.ndarray]:
    """Exact delta_D (Koashi-Winter), delta_C, GGM and their parts, nodal A."""
    pa = schmidt_probs(amps, 0)
    s_a = entropy(pa)
    c_ab = wootters(pair_density(amps, 1))
    c_ac = wootters(pair_density(amps, 2))
    lam_max = np.max([schmidt_probs(amps, p).max(axis=1) for p in range(3)], axis=0)
    return {
        "S_A": s_a,
        "C_AB": c_ab,
        "C_AC": c_ac,
        # min over measurements on B of S(A|B) is E_f(AC) for pure ABC
        "S_cond_AB": eof(c_ac),
        "S_cond_AC": eof(c_ab),
        "delta_D": s_a - eof(c_ab) - eof(c_ac),
        "delta_C": 4.0 * pa[:, 0] * pa[:, 1] - c_ab**2 - c_ac**2,
        "ggm": 1.0 - lam_max,
    }


def mk_symmetric(theta, kappa, alpha) -> np.ndarray:
    """The paper's closed-form MK value on the symmetric family (nu = 0)."""
    return (
        4.0 * np.sin(alpha) ** 3 * np.sin(theta)
        * (np.cos(theta) * np.cos(kappa) + np.cos(alpha) ** 3 * np.sin(theta))
    )


# --- Mermin-Klyshko ------------------------------------------------------------------


def mk_value(psi: np.ndarray, a: str, a_prime: str) -> float:
    """<psi|B_3|psi> with every party measuring Pauli ``a`` and ``a_prime``.

    B_k = (B_{k-1} (x) (s + s') + B'_{k-1} (x) (s - s')) / 2 and
    B'_k = (B'_{k-1} (x) (s + s') - B_{k-1} (x) (s - s')) / 2.
    """
    s, sp = _PAULI[a], _PAULI[a_prime]
    b, bp = s, sp
    for _ in range(2):
        b, bp = (np.kron(b, s + sp) + np.kron(bp, s - sp)) / 2, (np.kron(bp, s + sp) - np.kron(b, s - sp)) / 2
    return float(np.real(psi.conj() @ b @ psi))


MK_FIXED_SETTINGS = [(a, ap) for a in "xyz" for ap in "xyz" if a != ap]


def mk_fixed_lower_bound(psi: np.ndarray) -> float:
    """Largest |MK| over the fixed Pauli settings: a floor for any optimizer."""
    return max(abs(mk_value(psi, a, ap)) for a, ap in MK_FIXED_SETTINGS)


# --- mixed states ----------------------------------------------------------------------


def ginibre_state(seed: int, rank: int = 2) -> np.ndarray:
    """Random rank-``rank`` three-qubit density matrix G G^dag / tr."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def marginal(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced state of the parties in ``keep`` (0 = A, 1 = B, 2 = C), order kept."""
    t = rho.reshape((2,) * 6)
    row, col = list("abc"), list("abc")
    for i in keep:
        col[i] = "def"[i]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    d = 2 ** len(keep)
    return np.einsum("".join(row) + "".join(col) + "->" + out, t).reshape(d, d)


def mixed_entropies(rho: np.ndarray) -> dict[str, float]:
    parts = {"A": (0,), "B": (1,), "C": (2,), "AB": (0, 1), "AC": (0, 2), "BC": (1, 2)}
    out = {k: float(vn_entropy(marginal(rho, v))) for k, v in parts.items()}
    out["ABC"] = float(vn_entropy(rho))
    return out
