"""Complex linear algebra and quantum primitives for small composite systems.

States live on tensor-product Hilbert spaces of total dimension <= 16.
The basis ordering is row-major over the parties in label order, with the
first party most significant: for three parties the computational index is
``((i_A * d_B) + i_B) * d_C + i_C``.  This matches ``numpy.kron`` applied
left to right, and every module in the package inherits it.

All values are immutable after construction and safe to share between
threads.  Entropies are in base 2 (bits).
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass, field

import numpy as np

# Hermiticity and trace of states, projectors, unit directions: the test suite's input meets them to ~1e-15
INPUT_TOL = 1e-10  # (28,871 matrices Hermitian to 2.2e-16); admits 11-digit files
PURITY_TOL = 1e-10  # at purity 1 - 1e-10 the neglected spectrum moves an entropy by ~2e-9
PSD_TOL = 1e-9  # their eigenvalues are >= -4.6e-16; 1e-10 entry errors move one by <= 1.6e-9 (d = 16)
NORM_TOL = 4 * np.finfo(float).eps  # normalized vectors: |norm - 1| <= 2 eps (2e5 Haar, 4-16 amplitudes)
# A shorter vector is the zero vector, for PureState and family_states alike: an amplitude summed from
ZERO_NORM = 1e-12  # O(1) terms rounds by ~1e-16 (ghz's zero point: 1.4e-16), off by > 1e-4 once normalized
XLOG_FLOOR = 1e-15  # x log2 x is 0 at and below this (<= 5e-14 bits), so E_f is 0 below C = 6.3e-8


class UsageError(ValueError):
    """A bad argument value, raised by the function that uses it: a count, seed, tolerance, mode,
    family, axis, path or party label outside its rule (``qmono`` exits 2).  A state that is not a
    state (a malformed file, a matrix that is not PSD, a two-qubit state where three are needed)
    and a family point that gives the zero vector are plain ``ValueError``: numeric failures (exit 1)."""


def check_arg(name: str, value, least, *, strict: bool = False, finite: bool = False) -> None:
    """Raise ``UsageError`` unless ``value`` >= ``least`` (> with ``strict``), and finite with ``finite``."""
    if not ((value > least if strict else value >= least) and (not finite or math.isfinite(value))):
        rule = ("finite and " if finite else "") + (">" if strict else ">=")
        raise UsageError(f"{name} must be {rule} {least}, got {value}")


class _Parties:
    """The party rule of ``PureState`` and ``DensityMatrix``: positive integer ``dims`` and one
    distinct label per party, 'A', 'B', ... when ``labels`` is empty (at most 26 parties then)."""

    def _set_parties(self) -> int:
        """Check and freeze ``dims`` and ``labels``; returns the total dimension."""
        dims = tuple(self.dims)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive integers, got {self.dims!r}")
        dims = tuple(map(int, dims))
        labels = tuple(self.labels) or tuple(string.ascii_uppercase[: len(dims)])
        if len(labels) != len(dims) or len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct and match dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        return int(np.prod(dims))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UsageError(f"unknown party label {label!r}; the parties are {list(self.labels)}") from None


@dataclass(frozen=True)
class PureState(_Parties):
    """Normalized state vector over a tensor product of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        d = self._set_parties()
        amps = np.array(np.ravel(self.amplitudes), dtype=complex)  # a copy: frozen below
        if amps.size != d:
            raise ValueError(f"amplitude vector has length {amps.size}, expected {d}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if norm < ZERO_NORM:
            raise ValueError("cannot normalize the zero vector")
        if abs(norm - 1.0) > NORM_TOL:  # a normalized vector keeps its bits
            amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityMatrix":
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(m, self.dims, self.labels)


@dataclass(frozen=True)
class DensityMatrix(_Parties):
    """Hermitian, PSD, unit-trace operator with explicit subsystem dims.  ``spectrum`` is
    derived, not set: the PSD check's ascending eigenvalues, clipped at 0 and read-only, which
    ``vn_entropy`` reads, so a matrix is diagonalized once."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()
    spectrum: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        d = self._set_parties()
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > INPUT_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > INPUT_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_TOL:
            raise ValueError(f"matrix has negative eigenvalue {w[0]}")
        m, w = m.copy(), np.clip(w, 0.0, None)
        m.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", w)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def is_pure(self) -> bool:
        return self.purity() > 1.0 - PURITY_TOL


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of party labels (order follows the parent state)."""

    side_one: tuple[str, ...]
    side_two: tuple[str, ...]

    def __post_init__(self):
        one = tuple(self.side_one)
        two = tuple(self.side_two)
        if not one or not two:
            raise ValueError("both sides of a bipartition must be nonempty")
        if set(one) & set(two):
            raise ValueError("bipartition sides must be disjoint")
        object.__setattr__(self, "side_one", one)
        object.__setattr__(self, "side_two", two)

    def check_covers(self, labels) -> None:
        if set(self.side_one) | set(self.side_two) != set(labels):
            raise ValueError(
                f"bipartition {self.side_one}|{self.side_two} does not cover {tuple(labels)}"
            )


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every party not in ``keep`` and order the kept ones as ``keep`` lists them (a
    label or a set keeps label order; every label only reorders); unknown or repeated labels raise."""
    keep = (keep,) if isinstance(keep, str) else keep
    keep_idx = [rho.index_of(l) for l in keep]  # an unknown label raises here
    if isinstance(keep, (set, frozenset)):
        keep_idx.sort()
    if not keep_idx or len(set(keep_idx)) != len(keep_idx):
        raise ValueError(f"keep must name distinct parties, got {tuple(keep)}")
    n = len(rho.dims)
    if keep_idx == list(range(n)):
        return rho  # every label in order: frozen, with read-only arrays, so it is shared
    order = keep_idx + [i for i in range(n) if i not in keep_idx]  # kept parties first, in keep's order
    dims = tuple(rho.dims[i] for i in keep_idx)
    d_keep = int(np.prod(dims))
    t = rho.matrix.reshape(rho.dims * 2).transpose(order + [n + i for i in order])
    reduced = np.trace(t.reshape(d_keep, -1, d_keep, len(rho.matrix) // d_keep), axis1=1, axis2=3)
    return DensityMatrix(reduced, dims, tuple(rho.labels[i] for i in keep_idx))


def xlog2x(x) -> np.ndarray:
    """x log2 x elementwise, 0 at and below XLOG_FLOOR (0 log 0 := 0); NaN stays NaN."""
    return np.where(x <= XLOG_FLOOR, 0.0, x * np.log2(np.maximum(x, XLOG_FLOOR)))


def vn_entropy(rho) -> float:
    """Von Neumann entropy in bits, with 0*log(0) := 0, from ``rho.spectrum``; a raw
    matrix is checked as a one-party ``DensityMatrix`` first."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, np.shape(rho)[:1])
    return float(0.0 - np.sum(xlog2x(rho.spectrum)))  # 0.0 - sum: a pure state's entropy is +0.0, not -0.0


def binary_entropy(p):
    """Shannon entropy of a {p, 1-p} distribution, in bits; elementwise, a NaN p giving NaN, and
    -0.0 at p = 0 and 1, as CSVs print it.  (1-p) log2(1-p) goes through log1p(-p), as 1 - p
    drops p's low bits: so H keeps its relative precision for every p <= 1/2."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p  # q log2 q is 0 at and below XLOG_FLOOR, as in xlog2x
    q_log_q = np.where(q <= XLOG_FLOOR, 0.0, q * np.log1p(np.maximum(-p, XLOG_FLOOR - 1)) / np.log(2))
    out = -(xlog2x(p) + q_log_q)  # -(0.0 + -0.0) at p = 0
    return float(out) if out.ndim == 0 else out


# --- JSON state files -------------------------------------------------------
#
# Pure states:      {"dims": [...], "labels": [...], "amplitudes": [[re, im], ...]}
# Density matrices: {"dims": [...], "labels": [...], "matrix": [[[re, im], ...], ...]}
# Amplitude ordering follows the module index convention; "labels" is optional.
# Loading anything else (not an object, no "dims", entries that are not finite
# numbers or not pairs, or a state the constructors reject) raises ValueError.


def state_to_dict(state) -> dict:
    if not isinstance(state, (PureState, DensityMatrix)):
        raise ValueError("expected PureState or DensityMatrix")
    key = "amplitudes" if isinstance(state, PureState) else "matrix"
    z = getattr(state, key)
    return {"dims": list(state.dims), "labels": list(state.labels), key: np.stack([z.real, z.imag], -1).tolist()}


def state_from_dict(data: dict):
    """The state a ``state_to_dict`` dict holds, bit for bit (signed zeros included)."""
    if not isinstance(data, dict) or "dims" not in data or not {"amplitudes", "matrix"} & data.keys():
        raise ValueError("a state is a JSON object with 'dims' and an 'amplitudes' or 'matrix' key")
    pure = "amplitudes" in data
    key = "amplitudes" if pure else "matrix"
    try:
        pairs = np.asarray(data[key], dtype=float)
        if pairs.ndim != (2 if pure else 3) or pairs.shape[-1] != 2 or not np.isfinite(pairs).all():
            raise ValueError(f"state {key!r} must be {'a list' if pure else 'rows'} of finite [re, im] pairs")
        z = pairs.view(complex)[..., 0]
        return (PureState if pure else DensityMatrix)(z, data["dims"], data.get("labels") or ())
    except TypeError as exc:  # an entry of the wrong type, such as dims that are not a list
        raise ValueError(f"malformed state: {exc}") from None


def save_state(state, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1)


def load_state(path):
    with open(path) as fh:
        return state_from_dict(json.load(fh))
