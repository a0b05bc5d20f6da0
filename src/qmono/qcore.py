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
import string
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

_EIG_ZERO = 1e-12  # eigenvalues below this contribute nothing to entropy


def _default_labels(n: int) -> tuple[str, ...]:
    if n > 26:
        raise ValueError("at most 26 parties supported")
    return tuple(string.ascii_uppercase[:n])


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a tensor product of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be positive")
        if amps.size != int(np.prod(dims)):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {int(np.prod(dims))}"
            )
        labels = tuple(self.labels) or _default_labels(len(dims))
        if len(labels) != len(dims) or len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct and match dims")
        norm = np.linalg.norm(amps)
        if norm < 1e-14:
            raise ValueError("cannot normalize the zero vector")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    def density(self) -> "DensityMatrix":
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(m, self.dims, self.labels)

    def marginal(self, keep) -> "DensityMatrix":
        return partial_trace(self.density(), keep)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator with explicit subsystem dims."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        d = int(np.prod(dims))
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        labels = tuple(self.labels) or _default_labels(len(dims))
        if len(labels) != len(dims) or len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct and match dims")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_TOL:
            raise ValueError(f"matrix has negative eigenvalue {w[0]}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def is_pure(self, tol: float = 1e-10) -> bool:
        return self.purity() > 1.0 - tol

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown party label {label!r}") from None


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


def tensor(a, b):
    """Kronecker product of two states of the same kind.

    Dims and labels concatenate (colliding labels are replaced by fresh
    defaults); the ordering is consistent with the package index convention
    (left operand most significant).
    """
    labels = a.labels + b.labels
    if len(set(labels)) != len(labels):
        labels = _default_labels(len(labels))
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims, labels)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix), a.dims + b.dims, labels)
    raise ValueError("tensor requires two PureStates or two DensityMatrices")


def _ptrace_raw(matrix: np.ndarray, dims, keep_idx) -> np.ndarray:
    """Partial trace on a raw square matrix; keep_idx are axis positions."""
    n = len(dims)
    keep_idx = sorted(keep_idx)
    t = matrix.reshape(tuple(dims) * 2)
    letters = string.ascii_lowercase
    row = list(letters[:n])
    col = list(letters[:n])  # traced axes share a letter with their row
    out = []
    nxt = n
    for i in keep_idx:
        col[i] = letters[nxt]
        nxt += 1
        out.append(row[i])
    out += [col[i] for i in keep_idx]
    sub = "".join(row) + "".join(col) + "->" + "".join(out)
    reduced = np.einsum(sub, t)
    d = int(np.prod([dims[i] for i in keep_idx]))
    return reduced.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every party not in ``keep``; kept parties retain their order."""
    keep = {keep} if isinstance(keep, str) else set(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    unknown = keep - set(rho.labels)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    keep_idx = [i for i, lab in enumerate(rho.labels) if lab in keep]
    reduced = _ptrace_raw(rho.matrix, rho.dims, keep_idx)
    return DensityMatrix(
        reduced,
        tuple(rho.dims[i] for i in keep_idx),
        tuple(rho.labels[i] for i in keep_idx),
    )


def permute_parties(rho: DensityMatrix, new_order) -> DensityMatrix:
    """Reorder subsystems so labels appear in ``new_order``."""
    order = [rho.index_of(l) for l in new_order]
    if sorted(order) != list(range(len(rho.dims))):
        raise ValueError("new_order must be a permutation of the labels")
    n = len(rho.dims)
    t = rho.matrix.reshape(tuple(rho.dims) * 2)
    t = np.transpose(t, order + [i + n for i in order])
    d = rho.matrix.shape[0]
    return DensityMatrix(
        t.reshape(d, d),
        tuple(rho.dims[i] for i in order),
        tuple(rho.labels[i] for i in order),
    )


def clamped_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Hermitian eigenvalues with noise in [-PSD_TOL, 0) clamped to zero."""
    w = np.linalg.eigvalsh(matrix)
    if w.min() < -PSD_TOL:
        raise ValueError(f"eigenvalue {w.min()} below -{PSD_TOL}: not PSD")
    return np.clip(w, 0.0, None)


def vn_entropy(rho) -> float:
    """Von Neumann entropy in bits, with 0*log(0) := 0."""
    w = clamped_eigvalsh(rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho))
    w = w[w > _EIG_ZERO]
    return float(-np.sum(w * np.log2(w)))


def binary_entropy(p):
    """Shannon entropy of a {p, 1-p} distribution, in bits; elementwise over an array."""
    p = np.asarray(p, dtype=float)
    out = 0.0
    for x in (p, 1.0 - p):
        out = out - x * np.log2(np.where(x > _EIG_ZERO, x, 1.0))  # 0 log 0 := 0; NaN stays NaN
    return float(out) if out.ndim == 0 else out


def schmidt_sq_max(psi: PureState, cut: Bipartition) -> float:
    """Largest squared Schmidt coefficient across the given cut."""
    cut.check_covers(psi.labels)
    reduced = psi.marginal(cut.side_one)
    return float(clamped_eigvalsh(reduced.matrix).max())


# --- JSON state files -------------------------------------------------------
#
# Pure states:      {"dims": [...], "labels": [...], "amplitudes": [[re, im], ...]}
# Density matrices: {"dims": [...], "labels": [...], "matrix": [[[re, im], ...], ...]}
# Amplitude ordering follows the module index convention.


def _complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def state_to_dict(state) -> dict:
    if isinstance(state, PureState):
        return {
            "dims": list(state.dims),
            "labels": list(state.labels),
            "amplitudes": [_complex_out(z) for z in state.amplitudes],
        }
    if isinstance(state, DensityMatrix):
        return {
            "dims": list(state.dims),
            "labels": list(state.labels),
            "matrix": [[_complex_out(z) for z in row] for row in state.matrix],
        }
    raise ValueError("expected PureState or DensityMatrix")


def state_from_dict(data: dict):
    dims = tuple(int(d) for d in data["dims"])
    labels = tuple(data.get("labels") or ())
    if "amplitudes" in data:
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return PureState(amps, dims, labels)
    if "matrix" in data:
        m = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
        return DensityMatrix(m, dims, labels)
    raise ValueError("state dict needs an 'amplitudes' or 'matrix' key")


def save_state(state, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1)


def load_state(path):
    with open(path) as fh:
        return state_from_dict(json.load(fh))
