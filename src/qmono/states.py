"""Three-qubit states: the paper's named families, GHZ, W and Haar draws.

``family_states`` holds the one formula of each family for a batch of parameter rows, and
``family_state`` is a range-checked batch of one.  ``ghz`` is the two-branch class
cos(theta)|000> + e^{i kappa} sin(theta)|f1 f2 f3>, |f_j> = cos(alpha_j)|0> + sin(alpha_j)|1>
(``ghz-sym``: equal alphas), ``w`` the four-term W class on {000, 001, 010, 100} in half angles,
and ``path-ghz`` / ``path-w-ghz`` run from a fixed GHZ-class / W-class endpoint to |GHZ>.
"""

from __future__ import annotations

import functools

import numpy as np

from .qcore import ZERO_NORM, PureState, UsageError

_LABELS = ("A", "B", "C")


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


def ghz_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b111] = 1.0
    return PureState(amps, (2, 2, 2), _LABELS)


def w_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = amps[0b010] = amps[0b100] = 1.0
    return PureState(amps, (2, 2, 2), _LABELS)


# --- the named families ---------------------------------------------------------

PATH_GHZ_ENDPOINT = (0.7, 3.06, 0.55, 0.56, 0.63)  # the paths' endpoints, a ghz and a w row
PATH_W_ENDPOINT = (3.25, 4.38, 11.02, 4.16, 3.98, 2.45)

FAMILY_PARAMS = {
    "ghz-sym": ("theta", "kappa", "alpha"),
    "ghz": ("theta", "kappa", "alpha1", "alpha2", "alpha3"),
    "w": ("theta1", "theta2", "theta3", "phi1", "phi2", "phi3"),
    "path-ghz": ("mu",),
    "path-w-ghz": ("tau",),
}

# the closed range [0, end] of each checked parameter, by name; the w family's angles take any
# value.  theta = 0 and alpha_j = 0 are faces of the ghz families (product states), admitted.
_PARAM_ENDS = {
    "theta": ("pi/4", np.pi / 4),
    "kappa": ("2pi", 2 * np.pi),
    **dict.fromkeys(("alpha", "alpha1", "alpha2", "alpha3", "mu", "tau"), ("pi/2", np.pi / 2)),
}
_RANGE_SLACK = 1e-12  # a range end computed in floats misses it by ulps: 25 * (pi / 100) > pi / 4
_BITS = (np.arange(8)[:, None] >> np.arange(2, -1, -1) & 1).astype(bool)  # [idx, j]: bit of qubit j


@functools.cache
def _path_ends(family: str) -> tuple[np.ndarray, np.ndarray]:
    """A path family's normalized endpoint and |GHZ>, read-only, built on first use."""
    kind, row = ("ghz", PATH_GHZ_ENDPOINT) if family == "path-ghz" else ("w", PATH_W_ENDPOINT)
    end, ghz = family_states(kind, [row])[0], np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    for v in (end, ghz):
        v.setflags(write=False)
    return end, ghz


def family_params(family: str) -> tuple[str, ...]:
    """The parameter names of a named family, in row order; an unknown name is a ``UsageError``."""
    try:
        return FAMILY_PARAMS[family]
    except KeyError:
        raise UsageError(f"unknown family {family!r}") from None


def family_states(family: str, rows) -> np.ndarray:
    """(K, 8) normalized amplitudes for parameter rows of a named family.

    The only implementation of each family formula; ``family_state`` is a batch of one.
    The paths interpolate between their ``_path_ends``, then renormalize.  Rows are not
    range checked: a scan may run past a family's ranges.
    """
    want = len(family_params(family))
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != want:
        raise ValueError(f"family {family!r} takes {want} parameters per row")
    if not np.isfinite(rows).all():
        raise ValueError("family parameters must be finite")
    if family in ("ghz", "ghz-sym"):
        theta, kappa = rows[:, 0], rows[:, 1]
        al = rows[:, 2][:, None].repeat(3, axis=1) if family == "ghz-sym" else rows[:, 2:5]
        f = np.where(_BITS, np.sin(al)[:, None], np.cos(al)[:, None])  # [k, idx, j]: qubit j's factor
        amps = (np.exp(1j * kappa) * np.sin(theta))[:, None] * (f[..., 0] * f[..., 1] * f[..., 2])
        amps[:, 0] += np.cos(theta)
    elif family == "w":
        t1, t2, t3, p1, p2, p3 = rows.T
        amps = np.zeros((len(rows), 8), dtype=complex)
        amps[:, 0b000] = np.cos(t1 / 2)
        amps[:, 0b001] = np.sin(t1 / 2) * np.sin(t2 / 2) * np.cos(t3 / 2) * np.exp(1j * p1)
        amps[:, 0b010] = np.sin(t1 / 2) * np.sin(t2 / 2) * np.sin(t3 / 2) * np.exp(1j * p2)
        amps[:, 0b100] = np.sin(t1 / 2) * np.cos(t2 / 2) * np.exp(1j * p3)
    else:
        end, ghz = _path_ends(family)
        amps = np.cos(rows[:, :1]) * end + np.sin(rows[:, :1]) * ghz
    norms = np.linalg.norm(amps, axis=1)
    zero = norms < ZERO_NORM
    if np.any(zero):
        bad = rows[zero][0]
        raise ValueError(f"family {family!r} parameters {tuple(bad)} give the zero vector")
    return amps / norms[:, None]


def family_state(family: str, *params: float) -> PureState:
    """Row 0 of ``family_states``, labelled A, B, C; a parameter named in ``_PARAM_ENDS`` outside
    [0, end], both ends widened by ``_RANGE_SLACK``, is a ``ValueError``."""
    for name, value in zip(family_params(family), params):
        if name in _PARAM_ENDS:
            label, end = _PARAM_ENDS[name]
            if not (-_RANGE_SLACK <= value <= end + _RANGE_SLACK):  # NaN fails too
                raise ValueError(f"{name}={value} outside [0, {label}]")
    return PureState(family_states(family, [params])[0], (2, 2, 2), _LABELS)


def haar_random_amplitudes(n: int, seed, dim: int = 8) -> np.ndarray:
    """(n, dim) array of Haar-uniform unit vectors, deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)

