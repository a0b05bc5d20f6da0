"""Three-qubit state families, all built by ``family_states``, interpolation paths and Haar sampling."""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .qcore import PureState

_LABELS = ("A", "B", "C")
_RANGE_SLACK = 1e-12  # a range end computed in floats misses it by ulps: 25 * (pi / 100) > pi / 4


@dataclass(frozen=True)
class GHZClassParams:
    """Parameters of the two-branch family cos(theta)|000> + e^{ik} sin(theta)|f1 f2 f3>.

    Ranges are theta in (0, pi/4], kappa in [0, 2pi], alpha_j in (0, pi/2];
    the theta = 0 / alpha_j = 0 faces are degenerate (product states) and are
    admitted only with the ``degenerate`` flag, for face scans.
    """

    theta: float
    kappa: float
    alpha1: float
    alpha2: float
    alpha3: float
    degenerate: bool = False

    def __post_init__(self):
        eps = _RANGE_SLACK
        if not (-eps <= self.theta <= np.pi / 4 + eps):
            raise ValueError(f"theta={self.theta} outside [0, pi/4]")
        if not (-eps <= self.kappa <= 2 * np.pi + eps):
            raise ValueError(f"kappa={self.kappa} outside [0, 2pi]")
        for a in self.alphas:
            if not (-eps <= a <= np.pi / 2 + eps):
                raise ValueError(f"alpha={a} outside [0, pi/2]")
        on_face = self.theta <= eps or any(a <= eps for a in self.alphas)
        if on_face and not self.degenerate:
            raise ValueError(
                "theta = 0 or alpha_j = 0 is a degenerate face; pass degenerate=True"
            )

    @property
    def alphas(self) -> tuple[float, float, float]:
        return (self.alpha1, self.alpha2, self.alpha3)


@dataclass(frozen=True)
class WClassParams:
    """Half-angle parameters of the four-term superposition on {000,001,010,100}."""

    theta1: float
    theta2: float
    theta3: float
    phi1: float
    phi2: float
    phi3: float


def ghz_class(p: GHZClassParams) -> PureState:
    """Two-branch state, normalized (norm^2 = 1 + sin(2 theta) cos(kappa) prod cos(alpha_j))."""
    return _family_state("ghz", astuple(p)[:5])


def symmetric_ghz(theta: float, kappa: float, alpha: float) -> PureState:
    """ghz_class with equal alphas, faces admitted; permutation symmetric by construction."""
    return ghz_class(GHZClassParams(theta, kappa, alpha, alpha, alpha, degenerate=True))


def symmetric_concurrence_closed_form(theta, kappa, alpha):
    """Concurrence of a two-party marginal of the symmetric two-branch state,

    C = cos(alpha) sin^2(alpha) |sin(2 theta)| / |1 + cos^3(alpha) cos(kappa) sin(2 theta)|,

    the denominator being the unnormalized state's squared norm.  Wootters'
    lambdas are 2 (1 +- cos(alpha))^2 c with c = sin^4(alpha) sin^2(2 theta) /
    (8 norm^4), so sqrt(lambda_1) - sqrt(lambda_2) collapses to this product:
    no cancellation, and defined on the whole family, faces included.
    Arguments broadcast as arrays; scalar arguments give a float.
    """
    theta, kappa, alpha = (np.asarray(x, dtype=float) for x in (theta, kappa, alpha))
    sin_2t = np.sin(2.0 * theta)
    # float_power rounds like the scalar ``**`` (the array ``**`` may not), so
    # array and scalar calls agree bit for bit
    norm_sq = 1.0 + np.float_power(np.cos(alpha), 3) * np.cos(kappa) * sin_2t
    conc = np.cos(alpha) * np.float_power(np.sin(alpha), 2) * np.abs(sin_2t) / np.abs(norm_sq)
    return float(conc) if conc.ndim == 0 else conc


def w_class(p: WClassParams) -> PureState:
    """Four-term W-class superposition with the half-angle amplitudes."""
    return _family_state("w", astuple(p))


def ghz_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b111] = 1.0
    return PureState(amps, (2, 2, 2), _LABELS)


def w_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = amps[0b010] = amps[0b100] = 1.0
    return PureState(amps, (2, 2, 2), _LABELS)


# endpoints of the two interpolation paths
PATH_GHZ_ENDPOINT = GHZClassParams(0.7, 3.06, 0.55, 0.56, 0.63)
PATH_W_ENDPOINT = WClassParams(3.25, 4.38, 11.02, 4.16, 3.98, 2.45)


def path_ghz(mu: float) -> PureState:
    """cos(mu) |endpoint> + sin(mu) |GHZ| for mu in [0, pi/2]."""
    if not (0.0 <= mu <= np.pi / 2 + _RANGE_SLACK):
        raise ValueError(f"mu={mu} outside [0, pi/2]")
    return _family_state("path-ghz", (mu,))


def path_w_ghz(tau: float) -> PureState:
    """cos(tau) |W-class endpoint> + sin(tau) |GHZ| for tau in [0, pi/2]."""
    if not (0.0 <= tau <= np.pi / 2 + _RANGE_SLACK):
        raise ValueError(f"tau={tau} outside [0, pi/2]")
    return _family_state("path-w-ghz", (tau,))


# --- batched family evaluation --------------------------------------------------

FAMILY_PARAMS = {
    "ghz-sym": ("theta", "kappa", "alpha"),
    "ghz": ("theta", "kappa", "alpha1", "alpha2", "alpha3"),
    "w": ("theta1", "theta2", "theta3", "phi1", "phi2", "phi3"),
    "path-ghz": ("mu",),
    "path-w-ghz": ("tau",),
}


def family_states(family: str, rows) -> np.ndarray:
    """(K, 8) normalized amplitudes for parameter rows of a named family.

    The only implementation of each family formula: ghz_class, w_class and
    the path constructors are single rows of it.  The paths interpolate
    between their (normalized) endpoint and |GHZ>, then renormalize.
    """
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    want = len(FAMILY_PARAMS[family])
    if rows.shape[1] != want:
        raise ValueError(f"family {family!r} takes {want} parameters per row")
    if not np.isfinite(rows).all():
        raise ValueError("family parameters must be finite")
    k = rows.shape[0]
    if family in ("ghz", "ghz-sym"):
        theta, kappa = rows[:, 0], rows[:, 1]
        al = rows[:, 2][:, None].repeat(3, axis=1) if family == "ghz-sym" else rows[:, 2:5]
        cos_a, sin_a = np.cos(al), np.sin(al)
        amps = np.empty((k, 8), dtype=complex)
        branch = np.empty((k, 8))
        for idx in range(8):
            bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
            cols = [sin_a[:, j] if b else cos_a[:, j] for j, b in enumerate(bits)]
            branch[:, idx] = cols[0] * cols[1] * cols[2]
        amps[:] = (np.exp(1j * kappa) * np.sin(theta))[:, None] * branch
        amps[:, 0] += np.cos(theta)
    elif family == "w":
        t1, t2, t3, p1, p2, p3 = rows.T
        amps = np.zeros((k, 8), dtype=complex)
        amps[:, 0b000] = np.cos(t1 / 2)
        amps[:, 0b001] = np.sin(t1 / 2) * np.sin(t2 / 2) * np.cos(t3 / 2) * np.exp(1j * p1)
        amps[:, 0b010] = np.sin(t1 / 2) * np.sin(t2 / 2) * np.sin(t3 / 2) * np.exp(1j * p2)
        amps[:, 0b100] = np.sin(t1 / 2) * np.cos(t2 / 2) * np.exp(1j * p3)
    else:
        if family == "path-ghz":
            end = family_states("ghz", [astuple(PATH_GHZ_ENDPOINT)[:5]])[0]
        else:
            end = family_states("w", [astuple(PATH_W_ENDPOINT)])[0]
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        mu = rows[:, 0]
        amps = np.cos(mu)[:, None] * end[None, :] + np.sin(mu)[:, None] * ghz[None, :]
    norms = np.linalg.norm(amps, axis=1)
    zero = norms < 1e-12
    if np.any(zero):
        bad = rows[zero][0]
        raise ValueError(f"family {family!r} parameters {tuple(bad)} give the zero vector")
    return amps / norms[:, None]


def _family_state(family: str, row) -> PureState:
    return PureState(family_states(family, [row])[0], (2, 2, 2), _LABELS)


def haar_random_amplitudes(n: int, seed, dim: int = 8) -> np.ndarray:
    """(n, dim) array of Haar-uniform unit vectors, deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_random(seed, dims=(2, 2, 2)) -> PureState:
    """One Haar-random pure state (independent complex Gaussians, normalized)."""
    dims = tuple(dims)
    amps = haar_random_amplitudes(1, seed, dim=int(np.prod(dims)))[0]
    return PureState(amps, dims)
