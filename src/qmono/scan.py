"""Experiment driver: grid sweeps, zero crossings, sampling, path traces.

Everything here works on batches of three-qubit pure states with nodal
observer A, built by ``states.family_states`` or drawn Haar-random.  The
per-state scores are the exact closed forms of ``measures.pure_scores_batch``
and ``measures.ggm_batch``, called through this module's names: by the
Koashi-Winter identity the minimum measured S(A|B) of a pure state equals
E_f(AC), so delta_D = S_A - E_f(AB) - E_f(AC), with both concurrences taken
from the rank-2 marginals' amplitudes.  The grid-and-zoom search
(``measures.conditional_entropy_qubit_batch`` on ``_marginals``) minimizes
S(A|B) over measurements instead; it is the tests' oracle and computes no
output here.  ``grid_scan`` (and ``path_trace``, a one-axis grid) and
``sample_experiment`` score all their states in one call of each kernel into
the columns of a ``ScanTable``; ``find_zero_crossings`` and ``surface_zero``
(a ``SurfaceTable``) find zeros by one ``_bracket_and_bisect``, and
``write_csv`` formats both tables, one ``%`` format per block of rows.  All
randomness is seed-in, state-out; grid orderings are row-major over the axes
as given, and outputs are bit-identical across runs with the same inputs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from .bell import mk_optimize, mk_symmetric_closed_form
from .measures import _CHUNK, eof_batch, ggm_batch, pure_scores_batch  # bench/spans.py wraps the last two
from .measures import concurrence_batch, conditional_entropy_qubit_batch  # noqa: F401  (timed by bench/spans.py)
from .monogamy import ZERO_BAND_DEFAULT, pure_qubit_batch
from .qcore import PureState, binary_entropy
from .states import FAMILY_PARAMS, family_states, haar_random_amplitudes  # the last two timed by bench/spans.py
from .states import symmetric_concurrence_closed_form

MK_MODES = ("closed", "optimize", "skip")


# --- result types -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScanTable:
    """Columns of a scan, one row per state, in the order the states were given.

    ``params`` is (K, k); the other columns have length K.  ``mk`` is None when
    MK was skipped.
    """

    family: str
    params: np.ndarray
    delta_d: np.ndarray
    delta_c: np.ndarray
    ggm: np.ndarray
    mk: np.ndarray | None
    zero_band: np.ndarray

    def __len__(self) -> int:
        return len(self.delta_d)


@dataclass(frozen=True)
class ZeroCrossing:
    family: str
    fixed: tuple[tuple[str, float], ...]
    axis: str
    location: float
    bracket: tuple[float, float]
    delta_lo: float
    delta_hi: float

    @property
    def width(self) -> float:
        return self.bracket[1] - self.bracket[0]


@dataclass(frozen=True, eq=False)
class SurfaceTable:
    """Columns of a delta_D = 0 surface, one row per cell with an interior zero.

    ``in_domain`` is true on every row: the closed form holds on the whole family.
    """

    theta: np.ndarray
    kappa: np.ndarray
    alpha_star: np.ndarray
    delta_d: np.ndarray
    ggm: np.ndarray
    closed_form_residual: np.ndarray
    in_domain: np.ndarray

    def __len__(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class SampleSummary:
    n: int
    seed: int
    epsilon: float
    band_count: int
    max_ggm_in_band: float | None
    max_ggm_overall: float
    delta_hist: tuple[tuple[float, ...], tuple[int, ...]]
    band_ggm_hist: tuple[tuple[float, ...], tuple[int, ...]]


# Prop 4's lhs >= rhs - PROP4_TOL.  A state placed on delta_D = 0 to a finite tolerance
# misses the equality by about its |delta_D|: lhs - rhs was at least -1.99e-7 over the
# symmetric surface points of ``surface_zero`` at the default xtol = 1e-6 (15 x 15 and
# 40 x 40 grids, |delta_D| <= 1.99e-7 there) and -9.99e-9 over 10^4 nonsymmetric states
# bisected to |delta_D| <= 1e-8, so 1e-6 keeps a factor 5 over the surface points.
PROP4_TOL = 1e-6


@dataclass(frozen=True)
class Prop4Result:
    lhs: float
    rhs: float
    satisfied: bool
    equality_residual: float
    delta_d: float
    precondition_met: bool


# --- vectorized per-state scores ----------------------------------------------

def _marginals(amps: np.ndarray):
    """(rho_AB, rho_AC) stacks; the tests' Wootters checks use it, bench/spans.py times it."""
    p = amps.reshape(-1, 2, 2, 2)
    rho_ab = np.einsum("kabc,kdec->kabde", p, p.conj()).reshape(-1, 4, 4)
    rho_ac = np.einsum("kabc,kdbe->kacde", p, p.conj()).reshape(-1, 4, 4)
    return rho_ab, rho_ac


def delta_c_batch(amps: np.ndarray) -> np.ndarray:
    """Entanglement monogamy score 4 det(rho_A) - C_AB^2 - C_AC^2, vectorized."""
    return pure_scores_batch(amps)[1]


# --- operations -----------------------------------------------------------------


def _score(family: str, params: np.ndarray, amps: np.ndarray, epsilon: float) -> ScanTable:
    """The ScanTable of (K, 8) amplitudes without MK, one call of each kernel."""
    dd, dc = pure_scores_batch(amps)[:2]
    return ScanTable(family, params, dd, dc, ggm_batch(amps), None, np.abs(dd) < epsilon)


def grid_scan(
    family: str,
    axes,
    epsilon: float = ZERO_BAND_DEFAULT,
    mk_mode: str | None = None,
    mk_restarts: int = 24,
    seed: int = 0,
) -> ScanTable:
    """One row per grid point, row-major over the axes as listed.

    ``axes`` is a sequence of (name, values) pairs covering the family's
    parameters.  ``mk_mode`` is "closed" (``mk_symmetric_closed_form``),
    "optimize" (``mk_optimize`` per point, warm-started from the previous
    point's settings) or "skip" (default: "closed" for ghz-sym, else "skip").
    """
    names = [n for n, _ in axes]
    if tuple(names) != FAMILY_PARAMS[family]:
        raise ValueError(
            f"axes {names} must match {FAMILY_PARAMS[family]} for family {family!r}"
        )
    values = [np.asarray(v, dtype=float).ravel() for _, v in axes]
    if any(v.size == 0 for v in values):
        raise ValueError("empty axis range")
    mesh = np.meshgrid(*values, indexing="ij")
    rows = np.stack([m.ravel() for m in mesh], axis=1)
    if mk_mode is None:
        mk_mode = "closed" if family == "ghz-sym" else "skip"
    if mk_mode not in MK_MODES:
        raise ValueError(f"mk_mode must be one of {MK_MODES}, got {mk_mode!r}")
    if mk_mode == "closed" and family != "ghz-sym":
        raise ValueError("closed-form MK is defined for the ghz-sym family only")

    amps = family_states(family, rows)
    table = _score(family, rows, amps, epsilon)
    if mk_mode == "closed":
        mk = mk_symmetric_closed_form(rows[:, 0], rows[:, 2], rows[:, 1])
    elif mk_mode == "optimize":
        mk, warm = np.empty(len(rows)), None
        for j, psi in enumerate(amps):
            mk[j], warm = mk_optimize(psi, restarts=mk_restarts, seed=seed, initial=warm)
    else:
        return table
    return replace(table, mk=mk)


# States per midpoint-tree call, over all brackets.  A kernel call's fixed cost
# (150-250 us) is that of 80-120 states (2-3 us each), so a tree within this budget
# costs at most one call saved: 6 levels per call at 1 bracket, 5 at 2-3, 4 at 4-6,
# 3 at 7-14, 2 at 15-33 and 1 (plain bisection) from 34 brackets on.
_TREE_STATES = 100
_MAX_ROUNDS = 64  # bisection levels at most: 2^-64 of a bracket is below its float spacing away from 0

# Brackets with an endpoint below this |delta_D| are not crossings.  The
# closed form rounds at ~1e-15 (the Fig 2 line's alpha = 0 face reads
# -3.2e-16), but delta_D also dies off to high order towards a degenerate
# face (+8e-16 at alpha = 1e-4, -8.7e-9 at alpha = 0.016 on that line), so a
# sign change there is a face contact set by rounding.  Interior crossings of
# the Fig 2 line and the two paths keep both bracket ends above 6.7e-6 at
# 60-400 presamples, and their counts (1, 3, 1) are the same at 1e-12 and 1e-7.
NOISE_FLOOR_DEFAULT = 1e-7


def _delta_along(family: str, base: np.ndarray, axis_idx: int, xs: np.ndarray) -> np.ndarray:
    """(n, m) delta_D at parameter row ``base[i]`` with column ``axis_idx`` set to ``xs[i, j]``."""
    rows = np.repeat(base, xs.shape[1], axis=0)
    rows[:, axis_idx] = xs.ravel()
    return pure_scores_batch(family_states(family, rows))[0].reshape(xs.shape)


def _check_root_inputs(lo, hi, presample, xtol, noise_floor) -> None:
    if presample < 2:
        raise ValueError(f"presample must be >= 2, got {presample}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite range lo < hi, got [{lo}, {hi}]")
    if not xtol > 0:
        raise ValueError(f"xtol must be > 0, got {xtol}")
    if not noise_floor >= 0:
        raise ValueError(f"noise_floor must be >= 0, got {noise_floor}")


def _sign_changes(vals: np.ndarray, noise_floor: float) -> np.ndarray:
    """(n, m - 1) mask of the strict sign changes along the rows of ``vals`` whose
    ends both clear ``noise_floor``; the number rejected there is logged at DEBUG."""
    strict = vals[:, :-1] * vals[:, 1:] < 0
    clear = np.abs(vals) > noise_floor
    ok = strict & clear[:, :-1] & clear[:, 1:]
    rejected = np.count_nonzero(strict & ~ok)
    # Not imported here (~0.4 MB, ~6 ms): until something imports logging, no
    # handler or level is set that could take a DEBUG record.
    logging = sys.modules.get("logging")
    if rejected and logging:
        message = "%d sign changes rejected at noise floor %g"
        logging.getLogger("qmono").debug(message, rejected, noise_floor)
    return ok


def _bracket_and_bisect(family, base, axis_idx, xs, noise_floor, xtol: float, first_only: bool):
    """The bracketed rows of ``base`` and their final ``lo, hi, f_lo, f_hi`` along column
    ``axis_idx``: one kernel call presamples every row at ``xs``, and each sign change
    ``_sign_changes`` keeps (a row's first only, with ``first_only``) is a bracket; with
    none, all are empty after that call.  Then one kernel call evaluates the next
    ``depth`` levels of every bracket's midpoint tree (2^depth - 1 points, each
    (a + b) / 2 of its node's interval); ``depth`` is the most that keeps a call within
    ``_TREE_STATES`` states, and at least 1.  The walk down keeps [lo, mid] where
    f_lo * f_mid <= 0, else [mid, hi], all brackets in lockstep while max(hi - lo) >
    xtol, for at most ``_MAX_ROUNDS`` levels: every mid, f-value and bracket is scalar
    bisection's.  It stops early once no midpoint lies strictly inside its bracket,
    since later rounds would move none.
    """
    vals = _delta_along(family, base, axis_idx, np.broadcast_to(xs, (len(base), xs.size)))
    keep = _sign_changes(vals, noise_floor)
    if first_only:
        rows = np.nonzero(keep.any(axis=1))[0]
        cols = np.argmax(keep[rows], axis=1)
    else:
        rows, cols = np.nonzero(keep)
    lo, hi, f_lo, f_hi = xs[cols], xs[cols + 1], vals[rows, cols], vals[rows, cols + 1]
    if rows.size == 0:
        return rows, lo, hi, f_lo, f_hi
    base, idx = base[rows], np.arange(rows.size)
    depth = max(1, (_TREE_STATES // lo.size + 1).bit_length() - 1)  # n (2^depth - 1) <= budget
    rounds = 0
    while np.max(hi - lo) > xtol and rounds < _MAX_ROUNDS:
        if not np.any((lo < (lo + hi) / 2) & ((lo + hi) / 2 < hi)):
            break  # every bracket is one float spacing wide
        level = rounds % depth
        if level == 0:  # level k is columns 2^k - 1 ...; node j's children are 2j and 2j + 1
            a, b, mids = lo[:, None], hi[:, None], []
            for _ in range(depth):
                m = (a + b) / 2
                mids.append(m)
                a, b = (np.stack(ends, 2).reshape(lo.size, -1) for ends in ((a, m), (m, b)))
            mids = np.concatenate(mids, axis=1)
            f = _delta_along(family, base, axis_idx, mids)
            node = np.zeros(lo.size, dtype=int)
        col = 2**level - 1 + node
        mid, f_mid = mids[idx, col], f[idx, col]
        left = f_lo * f_mid <= 0
        hi, f_hi = np.where(left, mid, hi), np.where(left, f_mid, f_hi)
        lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, f_mid)
        node = 2 * node + ~left
        rounds += 1
    return rows, lo, hi, f_lo, f_hi


def find_zero_crossings(
    family: str,
    fixed: dict[str, float],
    axis: str,
    lo: float,
    hi: float,
    presample: int = 400,
    xtol: float = 1e-6,
    noise_floor: float = NOISE_FLOOR_DEFAULT,
) -> list[ZeroCrossing]:
    """Sign changes of delta_D along one axis, refined by bisection.

    ``_bracket_and_bisect`` presamples linspace(lo, hi, presample) and
    brackets every strict sign change whose endpoints both clear
    ``noise_floor``; this keeps rounding around the degenerate faces (where
    delta_D is genuinely zero) from minting crossings, and it excludes face
    contacts from the interior count.  It refines them, a few levels per
    call, to the results of scalar bisection.  An empty list means no
    crossing was found, which is not an error.
    """
    names = FAMILY_PARAMS[family]
    if axis not in names:
        raise ValueError(f"axis {axis!r} not a parameter of {family!r}")
    missing = set(names) - {axis} - set(fixed)
    if missing:
        raise ValueError(f"missing fixed parameters {sorted(missing)}")
    base = np.array([[0.0 if n == axis else fixed[n] for n in names]], dtype=float)
    _check_root_inputs(lo, hi, presample, xtol, noise_floor)
    axis_idx = names.index(axis)

    xs = np.linspace(lo, hi, presample)
    _, b_lo, b_hi, f_lo, f_hi = _bracket_and_bisect(family, base, axis_idx, xs, noise_floor, xtol, False)
    fixed_t = tuple((n, float(fixed[n])) for n in names if n != axis)
    return [
        ZeroCrossing(
            family=family,
            fixed=fixed_t,
            axis=axis,
            location=float((b_lo[i] + b_hi[i]) / 2),
            bracket=(float(b_lo[i]), float(b_hi[i])),
            delta_lo=float(f_lo[i]),
            delta_hi=float(f_hi[i]),
        )
        for i in range(b_lo.size)
    ]


def surface_zero(
    thetas,
    kappas,
    alpha_lo: float = 1e-3,
    alpha_hi: float = np.pi / 2,
    presample: int = 64,
    xtol: float = 1e-6,
    noise_floor: float = NOISE_FLOOR_DEFAULT,
) -> SurfaceTable:
    """Interior delta_D = 0 point along alpha for each (theta, kappa), as table rows.

    ``_bracket_and_bisect`` presamples every cell at linspace(alpha_lo,
    alpha_hi, presample) in one kernel call and refines each cell's first sign
    change whose ends clear ``noise_floor``, all cells at once, a few levels
    per call (one from 34 cells on); alpha* is the final midpoint, as in scalar
    bisection, and one more call gives delta_D there.  Also evaluates the
    closed-form surface condition 2 H(h) = H(e1) at each point: H(h) is ``eof_batch``
    (no cancellation at small C) of the closed-form marginal concurrence, and H(e1)
    = S_A comes from the same kernel call as delta_D; the residual is kept.
    """
    tt, kk = np.meshgrid(np.ravel(thetas), np.ravel(kappas), indexing="ij")
    cells = np.stack([tt.ravel(), kk.ravel(), np.zeros(tt.size)], axis=1)
    _check_root_inputs(alpha_lo, alpha_hi, presample, xtol, noise_floor)

    grid = np.linspace(alpha_lo, alpha_hi, presample)
    sel, b_lo, b_hi, _, _ = _bracket_and_bisect("ghz-sym", cells, 2, grid, noise_floor, xtol, True)
    if sel.size == 0:
        return SurfaceTable(*[np.empty(0)] * 6, np.empty(0, dtype=bool))
    astar = (b_lo + b_hi) / 2
    tt_s, kk_s = cells[sel, 0], cells[sel, 1]
    amps = family_states("ghz-sym", np.stack([tt_s, kk_s, astar], axis=1))
    dd, _, e1 = pure_scores_batch(amps)[:3]  # e1: S_A = H(e_1)
    residual = np.abs(2.0 * eof_batch(symmetric_concurrence_closed_form(tt_s, kk_s, astar)) - e1)
    return SurfaceTable(tt_s, kk_s, astar, dd, ggm_batch(amps), residual, np.ones(sel.size, dtype=bool))


def sample_experiment(
    n: int,
    seed: int,
    epsilon: float = 1e-3,
    per_sample_path=None,
) -> SampleSummary:
    """Haar-sample delta_D and GGM; band statistics with |delta_D| < epsilon.

    ``per_sample_path`` gets ``write_csv`` rows: family "haar", p1 the sample index."""
    if n < 1:
        raise ValueError("need n >= 1")
    amps = haar_random_amplitudes(n, seed)
    table = _score("haar", np.arange(n, dtype=float)[:, None], amps, epsilon)
    dd, gg, band = table.delta_d, table.ggm, table.zero_band
    d_counts, d_edges = np.histogram(dd, bins=60)
    g_counts, g_edges = np.histogram(gg[band], bins=25, range=(0.0, 0.5))
    max_in_band = float(gg[band].max()) if band.any() else None
    if per_sample_path is not None:
        write_csv(table, per_sample_path)

    return SampleSummary(
        n=n,
        seed=seed,
        epsilon=epsilon,
        band_count=int(band.sum()),
        max_ggm_in_band=max_in_band,
        max_ggm_overall=float(gg.max()),
        delta_hist=(tuple(map(float, d_edges)), tuple(map(int, d_counts))),
        band_ggm_hist=(tuple(map(float, g_edges)), tuple(map(int, g_counts))),
    )


def path_trace(
    path_id: str,
    resolution: int,
    epsilon: float = ZERO_BAND_DEFAULT,
    mk_mode: str = "optimize",
    mk_restarts: int = 24,
    seed: int = 0,
) -> ScanTable:
    """Evenly spaced trace of one interpolation path, with optional MK search.

    MK values come from the settings optimizer (warm-started point to point),
    so any fixed-settings curve lies at or below the one traced here.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    family = {"ghz": "path-ghz", "w-ghz": "path-w-ghz"}.get(path_id, path_id)
    if family not in ("path-ghz", "path-w-ghz"):
        raise ValueError(f"unknown path {path_id!r}")
    if mk_mode not in ("optimize", "skip"):
        raise ValueError("mk_mode must be 'optimize' or 'skip' for paths")
    axis = (FAMILY_PARAMS[family][0], np.linspace(0.0, np.pi / 2, resolution))
    return grid_scan(family, [axis], epsilon, mk_mode, mk_restarts, seed)


def prop4_check(psi: PureState, nodal: str = "A", band: float = ZERO_BAND_DEFAULT) -> Prop4Result:
    """E^f(AB) + E^f(AC) >= H(GGM) with equality for symmetric states.

    Scoped to vanishing-score states: ``precondition_met`` records whether
    |delta_D| < band; outside the band the inequality is reported but carries
    no claim.  A batch of one of the pure three-qubit kernels: by Koashi-Winter
    lhs = S(A|C) + S(A|B) and delta_D = S_nodal - lhs.
    """
    amps = pure_qubit_batch(psi, nodal)
    dd, _, _, cond_ab, cond_ac = (float(x[0]) for x in pure_scores_batch(amps)[:5])
    lhs, rhs = cond_ab + cond_ac, binary_entropy(float(ggm_batch(amps)[0]))
    return Prop4Result(lhs, rhs, lhs >= rhs - PROP4_TOL, abs(lhs - rhs), dd, abs(dd) < band)


# --- CSV ------------------------------------------------------------------------


def write_csv(table, path) -> None:
    """One row per table row: floats with 9 significant digits, NaN and a skipped column empty.

    A ScanTable, which must have rows, gives ``family,p1..pk,delta_D,delta_C,ggm,mk,zero_band``;
    a SurfaceTable ``theta,kappa,alpha_star,delta_D,ggm,closed_form_residual,in_domain``.
    Rows are as ``csv.writer``'s default dialect would write them (CRLF ends): no field needs
    quoting, as family names, ``.9g`` floats and true/false hold no comma, quote or newline.
    Each block of ``_CHUNK`` rows is one ``%`` format of a repeated one-row template.
    """
    n = len(table)
    if isinstance(table, SurfaceTable):
        header = ["theta", "kappa", "alpha_star", "delta_D", "ggm", "closed_form_residual", "in_domain"]
        specs, columns = [], [getattr(table, f.name) for f in fields(table)]
    elif n:
        header = ["family", *(f"p{i + 1}" for i in range(table.params.shape[1]))]
        header += ["delta_D", "delta_C", "ggm", "mk", "zero_band"]
        specs = [table.family.replace("%", "%%")]
        columns = [*table.params.T, table.delta_d, table.delta_c, table.ggm, table.mk, table.zero_band]
    else:
        raise ValueError("no records to write")
    values = []  # lists: Python floats format faster than numpy scalars
    for col in columns:
        if col is None:
            specs.append("")
        elif col.dtype == bool:
            specs.append("%s")
            values.append(list(map(("false", "true").__getitem__, col.tolist())))
        elif np.isnan(col).any():  # the one data-dependent case: NaN prints as an empty field
            specs.append("%s")
            values.append([f"{v:.9g}" if v == v else "" for v in col.tolist()])
        else:
            specs.append("%.9g")
            values.append(col.tolist())
    row = ",".join(specs) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, n, _CHUNK):
            block = [v[i : i + _CHUNK] for v in values]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
