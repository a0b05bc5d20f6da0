"""The delta_D = 0 root finders: equality with scalar bisection, kernel-call
budget, input validation and the noise-floor log."""

import logging
from dataclasses import fields

import numpy as np
import pytest

from qmono import scan
from qmono.measures import eof_batch
from qmono.scan import (
    FAMILY_PARAMS,
    NOISE_FLOOR_DEFAULT,
    SurfaceTable,
    ZeroCrossing,
    find_zero_crossings,
    surface_zero,
)
from qmono.states import symmetric_concurrence_closed_form

FIG2_LINE = ("ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha")

# The benchmark's crossing lines (the Fig 2 line and the Figs 6 and 7 paths).
CROSSING_LINES = [
    ("ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha", 1e-4, np.pi / 2),
    ("path-ghz", {}, "mu", 0.0, np.pi / 2),
    ("path-w-ghz", {}, "tau", 0.0, np.pi / 2),
]


# --- reference: one kernel call per presample alpha and per bisection midpoint ---


def _ref_delta(family, rows):
    return scan.pure_scores_batch(scan.family_states(family, rows))[0]


def _ref_bisect(eval_rows, lo, hi, f_lo, f_hi, xtol, rounds_seen, max_rounds=64):
    rounds = 0
    while np.max(hi - lo) > xtol and rounds < max_rounds:
        mid = (lo + hi) / 2
        f_mid = eval_rows(mid)
        left = f_lo * f_mid <= 0
        hi = np.where(left, mid, hi)
        f_hi = np.where(left, f_mid, f_hi)
        lo = np.where(left, lo, mid)
        f_lo = np.where(left, f_lo, f_mid)
        rounds += 1
    rounds_seen.append(rounds)
    return lo, hi, f_lo, f_hi


def _ref_sign_changes(vals, noise_floor):
    return (
        (vals[..., :-1] * vals[..., 1:] < 0)
        & (np.abs(vals[..., :-1]) > noise_floor)
        & (np.abs(vals[..., 1:]) > noise_floor)
    )


def ref_crossings(family, fixed, axis, lo, hi, presample, xtol, rounds_seen):
    names = FAMILY_PARAMS[family]

    def eval_axis(xs):
        rows = np.empty((xs.size, len(names)))
        for j, n in enumerate(names):
            rows[:, j] = xs if n == axis else fixed[n]
        return _ref_delta(family, rows)

    xs = np.linspace(lo, hi, presample)
    vals = eval_axis(xs)
    idx = np.nonzero(_ref_sign_changes(vals, NOISE_FLOOR_DEFAULT))[0]
    if idx.size == 0:
        return []
    b_lo, b_hi, f_lo, f_hi = _ref_bisect(
        eval_axis, xs[idx], xs[idx + 1], vals[idx], vals[idx + 1], xtol, rounds_seen
    )
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
        for i in range(idx.size)
    ]


def ref_surface(thetas, kappas, alpha_lo, alpha_hi, presample, xtol, rounds_seen):
    tt, kk = np.meshgrid(thetas, kappas, indexing="ij")
    tt, kk = tt.ravel(), kk.ravel()
    grid = np.linspace(alpha_lo, alpha_hi, presample)
    vals = np.stack(
        [_ref_delta("ghz-sym", np.stack([tt, kk, np.full(tt.shape, a)], axis=1)) for a in grid], axis=1
    )
    change = _ref_sign_changes(vals, NOISE_FLOOR_DEFAULT)
    sel = np.nonzero(change.any(axis=1))[0]
    if sel.size == 0:
        return SurfaceTable(*[np.empty(0)] * 6, np.empty(0, dtype=bool))
    first = np.argmax(change, axis=1)[sel]
    tt_s, kk_s = tt[sel], kk[sel]

    def eval_sel(alphas):
        return _ref_delta("ghz-sym", np.stack([tt_s, kk_s, alphas], axis=1))

    b_lo, b_hi, _, _ = _ref_bisect(
        eval_sel, grid[first], grid[first + 1], vals[sel, first], vals[sel, first + 1], xtol, rounds_seen
    )
    astar = (b_lo + b_hi) / 2
    dd = eval_sel(astar)
    amps = scan.family_states("ghz-sym", np.stack([tt_s, kk_s, astar], axis=1))
    gg = scan.ggm_batch(amps)
    e1 = scan.pure_scores_batch(amps)[2]
    conc = symmetric_concurrence_closed_form(tt_s, kk_s, astar)
    residual = np.full(sel.size, np.nan)
    for i in np.nonzero(~np.isnan(conc))[0]:  # one point at a time; 2 H(h) = 2 E_f(C)
        residual[i] = abs(2.0 * eof_batch(conc[i]) - e1[i])
    return SurfaceTable(tt_s, kk_s, astar, dd, gg, residual, ~np.isnan(conc))


def _same_columns(a, b) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True) for f in fields(a))


# --- equality with the reference --------------------------------------------------


def _random_line(rng):
    family = rng.choice(sorted(FAMILY_PARAMS))
    names = FAMILY_PARAMS[family]
    if family == "ghz-sym":
        axis = "alpha"
    elif family in ("path-ghz", "path-w-ghz"):
        axis = names[0]
    else:
        axis = names[rng.integers(len(names))]
    fixed = {
        n: rng.uniform(0.0, 2 * np.pi) if n.startswith(("kappa", "phi")) else rng.uniform(0.05, np.pi / 2)
        for n in names
        if n != axis
    }
    hi = 2 * np.pi if axis.startswith(("kappa", "phi")) else np.pi / 2
    return family, fixed, axis, rng.uniform(0.0, 0.3), rng.uniform(0.7 * hi, hi)


def _random_xtol(rng, i):
    return 1e-300 if i % 10 == 9 else 10 ** rng.uniform(-12, -3)


def test_crossings_equal_scalar_bisection():
    rng = np.random.default_rng(20240618)
    rounds, found = [], 0
    for i in range(60):
        line = _random_line(rng)
        presample, xtol = int(rng.integers(20, 401)), _random_xtol(rng, i)
        want = ref_crossings(*line, presample, xtol, rounds)
        assert find_zero_crossings(*line, presample=presample, xtol=xtol) == want, (line, presample, xtol)
        found += len(want) > 0
    assert found >= 30  # most lines have crossings to compare
    assert 64 in rounds  # xtol = 1e-300 runs into the round cap


def test_surface_equals_scalar_bisection():
    rng = np.random.default_rng(7)
    rounds, sizes = [], []
    for i in range(40):
        thetas = rng.uniform(0.05, np.pi / 4, rng.integers(1, 9))
        kappas = rng.uniform(0.0, 2 * np.pi, rng.integers(1, 9))
        alpha_lo, alpha_hi = rng.uniform(0.0, 0.2), rng.uniform(1.2, np.pi / 2)
        presample, xtol = int(rng.integers(20, 401)), _random_xtol(rng, i)
        want = ref_surface(thetas, kappas, alpha_lo, alpha_hi, presample, xtol, rounds)
        got = surface_zero(thetas, kappas, alpha_lo, alpha_hi, presample=presample, xtol=xtol)
        assert _same_columns(got, want), (thetas, kappas, alpha_lo, alpha_hi, presample, xtol)
        sizes.append(len(want))
    assert sum(sizes) >= 40
    assert min(sizes) <= 6 and max(sizes) > scan._TREE_STATES // 3  # 4 levels per call down to 1
    assert 64 in rounds


# --- kernel calls -----------------------------------------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    real = scan.pure_scores_batch

    def counted(amps):
        calls.append(len(amps))
        return real(amps)

    monkeypatch.setattr(scan, "pure_scores_batch", counted)
    return calls


def test_surface_kernel_calls(kernel_calls):
    pts = surface_zero(np.linspace(0.35, 0.7, 3), np.linspace(0.2, 2.8, 3), xtol=1e-6)
    assert len(pts) == 9
    assert len(kernel_calls) <= 7  # presample, five 3-level trees for 15 levels, delta_D at alpha*


@pytest.mark.parametrize("line", CROSSING_LINES, ids=[line[0] for line in CROSSING_LINES])
def test_crossing_kernel_calls(kernel_calls, line):
    assert find_zero_crossings(*line, presample=100, xtol=1e-6)
    assert len(kernel_calls) <= 4  # presample and three 5- or 6-level trees for 14 levels


def test_stuck_brackets_end_the_bisection(kernel_calls):
    """Below the float spacing no bracket can move once it is one spacing wide,
    so the bisection stops there rather than at the 64-round cap."""
    crossings = [
        c for line in CROSSING_LINES[:2] for c in find_zero_crossings(*line, presample=100, xtol=1e-300)
    ]
    assert all(np.nextafter(c.bracket[0], np.inf) == c.bracket[1] for c in crossings)
    assert len(kernel_calls) - 2 <= 18  # tree calls after the two presamples; 24 to the cap
    kernel_calls.clear()
    pts = surface_zero(np.linspace(0.3, np.pi / 4, 6), np.linspace(0.2, 6.0, 6), xtol=1e-300)
    assert len(pts) == 36
    assert len(kernel_calls) - 2 <= 49  # less the presample and delta_D at alpha*; 64 to the cap


@pytest.mark.parametrize("cells", [1, 9, 33, 34, 128])
def test_tree_calls_keep_to_state_budget(kernel_calls, cells):
    """A tree call holds at most _TREE_STATES states, or one level when the
    brackets alone exceed it, so large surfaces bisect one level per call."""
    assert len(surface_zero([np.pi / 4], np.linspace(0.1, 2 * np.pi, cells))) == cells
    tree_calls = kernel_calls[1:-1]  # after the presample, before delta_D at alpha*
    assert tree_calls
    assert max(tree_calls) <= max(scan._TREE_STATES, cells)
    assert (set(tree_calls) == {cells}) == (3 * cells > scan._TREE_STATES)


# --- input validation -------------------------------------------------------------

BAD_INPUTS = {
    "presample-1": (dict(presample=1), "presample"),
    "presample-0": (dict(presample=0), "presample"),
    "reversed-range": (dict(lo=1.5, hi=0.1), "lo < hi"),
    "empty-range": (dict(lo=0.5, hi=0.5), "lo < hi"),
    "infinite-range": (dict(lo=0.1, hi=np.inf), "finite range"),
    "nan-range": (dict(lo=np.nan, hi=1.5), "finite range"),
    "xtol-nan": (dict(xtol=np.nan), "xtol"),
    "xtol-zero": (dict(xtol=0.0), "xtol"),
    "xtol-negative": (dict(xtol=-1e-6), "xtol"),
    "noise-floor-negative": (dict(noise_floor=-1e-9), "noise_floor"),
    "noise-floor-nan": (dict(noise_floor=np.nan), "noise_floor"),
    "fixed-nan": (dict(theta=np.nan), "finite"),
    "fixed-inf": (dict(kappa=np.inf), "finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_crossings_reject_bad_input(case):
    change, match = BAD_INPUTS[case]
    args = dict(lo=0.1, hi=1.5, presample=50, xtol=1e-6, noise_floor=1e-7, theta=0.4, kappa=1.0)
    args.update(change)
    fixed = {"theta": args.pop("theta"), "kappa": args.pop("kappa")}
    with pytest.raises(ValueError, match=match):
        find_zero_crossings("ghz-sym", fixed, "alpha", **args)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_surface_rejects_bad_input(case):
    change, match = BAD_INPUTS[case]
    args = dict(lo=0.1, hi=1.5, presample=50, xtol=1e-6, noise_floor=1e-7, theta=0.4, kappa=1.0)
    args.update(change)
    thetas, kappas = [0.3, args.pop("theta")], [args.pop("kappa")]
    args["alpha_lo"], args["alpha_hi"] = args.pop("lo"), args.pop("hi")
    with pytest.raises(ValueError, match=match):
        surface_zero(thetas, kappas, **args)


# --- noise-floor log --------------------------------------------------------------


def test_face_contact_rejections_logged(caplog):
    """From alpha = 0, 4500 presamples put points on the rounding-level face
    contacts near alpha = 1e-4; they are rejected, and the count is logged."""
    with caplog.at_level(logging.DEBUG, logger="qmono"):
        crossings = find_zero_crossings(*FIG2_LINE, 0.0, np.pi / 2, presample=4500)
    assert len(crossings) == 1 and crossings[0].location > 0.4
    messages = [r.getMessage() for r in caplog.records if r.name == "qmono"]
    assert len(messages) == 1 and messages[0].endswith("sign changes rejected at noise floor 1e-07")
    rejected = int(messages[0].split()[0])
    contacts = find_zero_crossings(*FIG2_LINE, 0.0, np.pi / 2, presample=4500, noise_floor=0.0)
    assert len(contacts) == 1 + rejected
    assert all(c.location < 1e-3 for c in contacts[:-1])


def test_quiet_by_default(caplog):
    find_zero_crossings(*FIG2_LINE, 0.0, np.pi / 2, presample=4500)
    assert not [r for r in caplog.records if r.name == "qmono"]
