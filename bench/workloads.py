"""The three workloads: their inputs, operations and output checks.

Each workload is built from the run's seed into a list of operations.  An
operation calls ``qmono.cli.main`` in-process, the entry point of the
``qmono`` script (``find_zero_crossings`` has no subcommand and is called
as a library function).  Its check reads the files the operation wrote and
compares them with values from ``reference``; it runs outside the timed
region and returns a list of error messages, empty when the outputs hold.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# --- tolerances (each is justified in README.md) --------------------------------
KW_TOL = 1e-6  # |program delta_D - Koashi-Winter delta_D|; the kernel misses by < 4e-8
UPPER_SLACK = 1e-8  # the optimizer's delta_D may exceed the exact value by this much
C_TOL = 1e-6  # concurrence and delta_C against the eigvals form of Wootters
GGM_TOL = 1e-8  # GGM against the Schmidt coefficients
ZERO_TOL = 1e-5  # |delta_D| by the closed form at a crossing or surface point
RESIDUAL_TOL = 1e-4  # surface closed_form_residual where in domain
MK_GHZ_TOL = 1e-3  # optimized MK value at GHZ against 2
ENTROPY_TOL = 1e-8  # entropy bounds and identities in the measures report
ROUND_TOL = 1e-8  # a value printed with 9 significant digits, relative

# --- sizes (a round takes 2–4 s, so a 30 s run has enough rounds for a steady median) ---
SAMPLE_N = 1024
SAMPLE_EPS = 1e-3
SCAN_G = 8
SCAN_EPS = 1e-4
SURFACE_S = 3
SURFACE_XTOL = 1e-6
CROSSING_XTOL = 1e-6
PATH_RESOLUTION = 2
PATH_EPS = 1e-4
PATH_RESTARTS = 2  # MK exploration starts per path point, besides the warm start
MIXED_RESTARTS = 8  # dim-4 discord starts per measured side

# (family, fixed parameters, axis, lo, hi, presample, expected crossing count):
# the Fig 2 line and the Figs 6 and 7 paths, as acceptance criteria 06, 09, 10.
CROSSING_LINES = [
    ("ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha", 1e-4, np.pi / 2, 100, 1),
    ("path-ghz", {}, "mu", 0.0, np.pi / 2, 100, 3),
    ("path-w-ghz", {}, "tau", 0.0, np.pi / 2, 100, 1),
]


class OpFailed(Exception):
    """The program reported an error for one operation."""


@dataclass
class Op:
    """One timed operation, its output check and its human-readable rate."""

    name: str
    run: Callable[[], None]
    check: Callable[[], list[str]]
    metric: str
    unit: str
    rate: Callable[[float], float]  # median seconds per operation -> metric value


@dataclass
class Workload:
    warmup: Callable[[], None]
    ops: list[Op]


def run_cli(cli, argv) -> str:
    """``qmono <argv>`` in-process; raises OpFailed on a nonzero exit code."""
    argv = [str(a) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"qmono {' '.join(argv)} exited {code}: {out.getvalue().strip()}")
    return out.getvalue()


def _axis(lo: float, hi: float, count: int) -> str:
    return f"{lo!r}:{hi!r}:{count}"


def read_csv(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def _floats(col) -> np.ndarray:
    return np.array([float(v) if v != "" else np.nan for v in col])


def _first(mask, what: str, values=None) -> list[str]:
    bad = np.nonzero(mask)[0]
    if bad.size == 0:
        return []
    detail = "" if values is None else f" (value {values[bad[0]]:.3e})"
    return [f"{what}: {bad.size} rows, first at row {bad[0]}{detail}"]


def check_scores(cols, exact: dict, eps: float) -> list[str]:
    """delta_D, delta_C, GGM and the zero band of CSV rows against exact values."""
    dd = _floats(cols["delta_D"])
    err = dd - exact["delta_D"]
    dc_err = _floats(cols["delta_C"]) - exact["delta_C"]
    gg_err = _floats(cols["ggm"]) - exact["ggm"]
    band = np.array([v == "true" for v in cols["zero_band"]])
    band_want = np.abs(dd) < eps
    clear = np.abs(np.abs(dd) - eps) > ROUND_TOL
    return (
        _first(err > UPPER_SLACK, "delta_D above the exact value", err)
        + _first(np.abs(err) > KW_TOL, "delta_D off the exact value", err)
        + _first(~(np.abs(dc_err) <= C_TOL), "delta_C off Wootters", dc_err)
        + _first(~(np.abs(gg_err) <= GGM_TOL), "GGM off the Schmidt value", gg_err)
        + _first((band != band_want) & clear, f"zero_band disagrees with |delta_D| < {eps:g}")
    )


def _close(a, b, tol=ROUND_TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


# --- haar-sample ------------------------------------------------------------------


def haar_sample(seed: int, work: Path, cli, scan) -> Workload:
    rows, summary = work / "rows.csv", work / "summary.json"
    argv = ["sample", "-n", SAMPLE_N, "--seed", seed, "-o", rows, "--summary-json", summary]
    exact = functools.cache(lambda: ref.scores(ref.haar(SAMPLE_N, seed)))

    def check():
        cols = read_csv(rows)
        if len(cols["delta_D"]) != SAMPLE_N:
            return [f"{len(cols['delta_D'])} rows, expected {SAMPLE_N}"]
        errs = check_scores(cols, exact(), SAMPLE_EPS)
        if cols["p1"] != [str(i) for i in range(SAMPLE_N)] or set(cols["family"]) != {"haar"}:
            errs.append("rows are not haar 0..n-1 in order")
        with open(summary) as fh:
            s = json.load(fh)
        gg = _floats(cols["ggm"])
        band = np.array([v == "true" for v in cols["zero_band"]])
        in_band = float(gg[band].max()) if band.any() else None
        errs += [
            f"summary {what}"
            for what, ok in [
                ("n/seed/epsilon", (s["n"], s["seed"], s["epsilon"]) == (SAMPLE_N, seed, SAMPLE_EPS)),
                ("band_count", s["band_count"] == int(band.sum())),
                ("delta_hist total", sum(s["delta_hist"][1]) == SAMPLE_N),
                ("band_ggm_hist total", sum(s["band_ggm_hist"][1]) == s["band_count"]),
                ("max_ggm_overall", _close(s["max_ggm_overall"], float(gg.max()))),
                ("max_ggm_in_band", s["max_ggm_in_band"] == in_band or _close(s["max_ggm_in_band"], in_band)),
            ]
            if not ok
        ]
        return errs

    warm = ["sample", "-n", 64, "--seed", seed, "-o", work / "warm.csv"]
    return Workload(
        warmup=lambda: run_cli(cli, warm),
        ops=[Op("sample", lambda: run_cli(cli, argv), check,
                "sample.states_per_s", "states/s", lambda t: SAMPLE_N / t)],
    )


# --- ghz-sym-figures --------------------------------------------------------------


def _zero_checks(label, states_at, x, lo, hi, width) -> list[str]:
    """The closed form vanishes at x and changes sign across [lo - width, hi + width]."""
    d_mid, d_lo, d_hi = ref.scores(states_at(np.array([x, lo - width, hi + width])))["delta_D"]
    errs = []
    if abs(d_mid) > ZERO_TOL:
        errs.append(f"{label}: exact |delta_D| = {abs(d_mid):.2e} at {x:.9g}")
    if d_lo * d_hi >= 0:
        errs.append(f"{label}: exact delta_D keeps its sign across [{lo:.9g}, {hi:.9g}]")
    return errs


def ghz_sym_figures(seed: int, work: Path, cli, scan) -> Workload:
    rng = np.random.default_rng(seed)
    axes = {  # scan ranges, drawn inside the family's domain
        "theta": (rng.uniform(0.02, 0.1), rng.uniform(0.6, np.pi / 4)),
        "kappa": (rng.uniform(0.0, 0.3), rng.uniform(2 * np.pi - 0.3, 2 * np.pi)),
        "alpha": (rng.uniform(0.02, 0.1), rng.uniform(1.4, np.pi / 2)),
    }
    s_theta = (rng.uniform(0.3, 0.45), rng.uniform(0.65, np.pi / 4))
    s_kappa = (rng.uniform(0.0, 0.5), rng.uniform(2.5, 3.1))
    scan_csv, surface_csv = work / "scan.csv", work / "surface.csv"
    scan_argv = ["scan", "--family", "ghz-sym", "--mk", "closed", "--epsilon", SCAN_EPS, "-o", scan_csv]
    for name, (lo, hi) in axes.items():
        scan_argv += ["--axis", f"{name}={_axis(lo, hi, SCAN_G)}"]
    surface_argv = ["surface", "--theta", _axis(*s_theta, SURFACE_S), "--kappa", _axis(*s_kappa, SURFACE_S),
                    "--xtol", SURFACE_XTOL, "-o", surface_csv]

    def check_scan():
        cols = read_csv(scan_csv)
        grid = np.meshgrid(*(np.linspace(lo, hi, SCAN_G) for lo, hi in axes.values()), indexing="ij")
        theta, kappa, alpha = (g.ravel() for g in grid)
        if len(cols["delta_D"]) != theta.size:
            return [f"{len(cols['delta_D'])} rows, expected {theta.size}"]
        errs = []
        for col, want in (("p1", theta), ("p2", kappa), ("p3", alpha)):
            errs += _first(np.abs(_floats(cols[col]) - want) > ROUND_TOL * np.maximum(1, np.abs(want)),
                           f"{col} off the row-major grid")
        errs += check_scores(cols, ref.scores(ref.ghz_sym(theta, kappa, alpha)), SCAN_EPS)
        mk_want = ref.mk_symmetric(theta, kappa, alpha)
        errs += _first(np.abs(_floats(cols["mk"]) - mk_want) > ROUND_TOL * np.maximum(1, np.abs(mk_want)),
                       "mk off the closed form")
        return errs

    def check_surface():
        cols = read_csv(surface_csv)
        thetas, kappas = np.linspace(*s_theta, SURFACE_S), np.linspace(*s_kappa, SURFACE_S)
        errs = []
        for i, (th, ka, a) in enumerate(zip(*(_floats(cols[c]) for c in ("theta", "kappa", "alpha_star")))):
            if np.min(np.abs(thetas - th)) > ROUND_TOL or np.min(np.abs(kappas - ka)) > ROUND_TOL:
                errs.append(f"surface row {i}: ({th}, {ka}) is not a grid cell")
            at = functools.partial(ref.ghz_sym, th, ka)
            errs += _zero_checks(f"surface row {i}", at, a, a, a, SURFACE_XTOL)
            exact = ref.scores(at(np.array([a])))
            dd, gg = float(cols["delta_D"][i]), float(cols["ggm"][i])
            if abs(dd) > ZERO_TOL or dd > exact["delta_D"][0] + UPPER_SLACK:
                errs.append(f"surface row {i}: delta_D {dd:.3e} against exact {exact['delta_D'][0]:.3e}")
            if abs(gg - exact["ggm"][0]) > GGM_TOL:
                errs.append(f"surface row {i}: ggm {gg} against {exact['ggm'][0]}")
            resid, dom = cols["closed_form_residual"][i], cols["in_domain"][i]
            if dom == "true" and not float(resid) <= RESIDUAL_TOL:
                errs.append(f"surface row {i}: closed_form_residual {resid} > {RESIDUAL_TOL}")
        return errs

    found = []

    def run_crossings():
        found[:] = [
            scan.find_zero_crossings(family, fixed, axis, lo, hi, presample=pre, xtol=CROSSING_XTOL)
            for family, fixed, axis, lo, hi, pre, _ in CROSSING_LINES
        ]

    def check_crossings():
        errs = []
        for (family, fixed, _, _, _, _, want), got in zip(CROSSING_LINES, found):
            if len(got) != want:
                errs.append(f"{family}: {len(got)} crossings, expected {want}")
            if family == "ghz-sym":
                at = functools.partial(ref.ghz_sym, fixed["theta"], fixed["kappa"])
            else:
                at = functools.partial(ref.path_states, family.removeprefix("path-"))
            for c in got:
                lo, hi = c.bracket
                if not (hi - lo <= CROSSING_XTOL and c.delta_lo * c.delta_hi <= 0):
                    errs.append(f"{family}: bracket {c.bracket} with values {c.delta_lo}, {c.delta_hi}")
                errs += _zero_checks(family, at, c.location, lo, hi, CROSSING_XTOL)
        return errs

    warm = ["scan", "--family", "ghz-sym", "--axis", "theta=0.1:0.7:2", "--axis", "kappa=0:3:2",
            "--axis", "alpha=0.1:1.5:2", "-o", work / "warm.csv"]
    cells = SURFACE_S * SURFACE_S
    return Workload(
        warmup=lambda: run_cli(cli, warm),
        ops=[
            Op("scan", lambda: run_cli(cli, scan_argv), check_scan,
               "scan.points_per_s", "points/s", lambda t: SCAN_G**3 / t),
            Op("surface", lambda: run_cli(cli, surface_argv), check_surface,
               "surface.cells_per_s", "cells/s", lambda t: cells / t),
            Op("crossings", run_crossings, check_crossings,
               "crossings.lines_per_s", "lines/s", lambda t: len(CROSSING_LINES) / t),
        ],
    )


# --- single-state -------------------------------------------------------------------


def write_state(path: Path, pure=None, rho=None) -> None:
    pair = lambda z: [float(z.real), float(z.imag)]  # noqa: E731
    data = {"dims": [2, 2, 2], "labels": ["A", "B", "C"]}
    if pure is not None:
        data["amplitudes"] = [pair(z) for z in pure]
    else:
        data["matrix"] = [[pair(z) for z in row] for row in rho]
    with open(path, "w") as fh:
        json.dump(data, fh)


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_mixed_report(r: dict, rho: np.ndarray) -> list[str]:
    """Bounds and identities every discord report of a mixed state must meet."""
    s = ref.mixed_entropies(rho)
    info = {
        "A_BC": s["A"] + s["BC"] - s["ABC"],
        "AB": s["A"] + s["B"] - s["AB"],
        "AC": s["A"] + s["C"] - s["AC"],
    }
    tol = ENTROPY_TOL
    errs = [f"not 0 <= D_{k} = {r['D_' + k]} <= I = {v}" for k, v in info.items()
            if not -tol <= r["D_" + k] <= v + tol]
    for pair, other in (("AB", "B"), ("AC", "C")):
        cond = r["S_cond_" + pair]
        if not s[pair] - s[other] - tol <= cond <= s["A"] + tol:
            errs.append(f"S(A|{other}) = {cond} outside [{s[pair] - s[other]}, {s['A']}]")
        if abs(r["D_" + pair] - (info[pair] - s["A"] + cond)) > tol:
            errs.append(f"D_{pair} != I - S_A + S(A|{other})")
        c_want = ref.wootters(ref.marginal(rho, (0, 1 if other == "B" else 2)))[0]
        if abs(r["C_" + pair] - c_want) > C_TOL:
            errs.append(f"C_{pair} = {r['C_' + pair]} against Wootters {c_want}")
    if abs(r["delta_D"] - (r["D_A_BC"] - r["D_AB"] - r["D_AC"])) > 1e-12:
        errs.append("delta_D != D_A_BC - D_AB - D_AC")
    if abs(r["S_A"] - s["A"]) > tol:
        errs.append(f"S_A = {r['S_A']} against {s['A']}")
    return errs


def check_pure_report(r: dict, psi: np.ndarray) -> list[str]:
    exact = {k: float(v[0]) for k, v in ref.scores(psi[None]).items()}
    errs = []
    for key in ("delta_D", "S_cond_AB", "S_cond_AC"):
        # the optimizer's S(A|X) is an upper bound, so delta_D is a lower one
        gap = (exact[key] - r[key]) if key != "delta_D" else (r[key] - exact[key])
        if gap > UPPER_SLACK or abs(r[key] - exact[key]) > KW_TOL:
            errs.append(f"{key} = {r[key]} against exact {exact[key]}")
    for key, tol in (("delta_C", C_TOL), ("C_AB", C_TOL), ("C_AC", C_TOL), ("S_A", ENTROPY_TOL),
                     ("D_A_BC", ENTROPY_TOL)):
        want = exact["S_A"] if key == "D_A_BC" else exact[key]
        if abs(r[key] - want) > tol:
            errs.append(f"{key} = {r[key]} against {want}")
    if abs(r["prop2_residual"] - r["delta_D"]) > ENTROPY_TOL:
        errs.append("prop2_residual != delta_D on a pure state")
    cond = r["S_cond_AB"] + r["S_cond_AC"]
    if not r["bound_lower"] - ENTROPY_TOL <= cond <= r["bound_upper"] + ENTROPY_TOL:
        errs.append(f"S(A|B) + S(A|C) = {cond} outside the entropy bounds")
    if r["heuristic"]:
        errs.append("pure report flagged heuristic")
    return errs


def single_state(seed: int, work: Path, cli, scan) -> Workload:
    rng = np.random.default_rng(seed)
    rho = ref.ginibre_state(int(rng.integers(2**31)))
    psi = ref.haar(1, int(rng.integers(2**31)))[0]
    mixed_path, pure_path = work / "mixed.json", work / "pure.json"
    write_state(mixed_path, rho=rho)
    write_state(pure_path, pure=psi)
    path_csv, mixed_out, pure_out = work / "path.csv", work / "mixed_report.json", work / "pure_report.json"
    path_argv = ["path", "--id", "ghz", "--mk", "optimize", "--resolution", PATH_RESOLUTION,
                 "--restarts", PATH_RESTARTS, "--epsilon", PATH_EPS, "--seed", seed, "-o", path_csv]
    mixed_argv = ["measures", "--state", mixed_path, "--restarts", MIXED_RESTARTS, "--seed", seed, "-o", mixed_out]
    pure_argv = ["measures", "--state", pure_path, "--seed", seed, "-o", pure_out]

    def check_path():
        cols = read_csv(path_csv)
        mu = np.linspace(0.0, np.pi / 2, PATH_RESOLUTION)
        if len(cols["delta_D"]) != mu.size:
            return [f"{len(cols['delta_D'])} rows, expected {mu.size}"]
        states = ref.path_states("ghz", mu)
        errs = check_scores(cols, ref.scores(states), PATH_EPS)
        errs += _first(np.abs(_floats(cols["p1"]) - mu) > ROUND_TOL, "p1 off the path grid")
        mk = _floats(cols["mk"])
        floor = np.array([ref.mk_fixed_lower_bound(s) for s in states])
        errs += _first(~(mk >= floor - ROUND_TOL), "MK below the fixed-settings bound", mk - floor)
        errs += _first(~(mk <= 2.0 + ROUND_TOL), "MK above the ceiling 2", mk)
        if abs(mk[-1] - 2.0) > MK_GHZ_TOL:
            errs.append(f"MK at GHZ is {mk[-1]}, expected 2 +- {MK_GHZ_TOL}")
        return errs

    def check_mixed():
        r = _read_json(mixed_out)
        errs = check_mixed_report(r, rho)
        if not r["heuristic"] or r["delta_C"] is not None:
            errs.append("mixed report: heuristic flag or delta_C wrong")
        return errs

    return Workload(
        warmup=lambda: run_cli(cli, pure_argv),
        ops=[
            Op("mk_path", lambda: run_cli(cli, path_argv), check_path,
               "mk_path.s_per_point", "s", lambda t: t / PATH_RESOLUTION),
            Op("measures_mixed", lambda: run_cli(cli, mixed_argv), check_mixed,
               "measures_mixed.s", "s", lambda t: t),
            Op("measures_pure", lambda: run_cli(cli, pure_argv),
               lambda: check_pure_report(_read_json(pure_out), psi),
               "measures_pure.ms", "ms", lambda t: 1e3 * t),
        ],
    )


WORKLOADS = {
    "haar-sample": haar_sample,
    "ghz-sym-figures": ghz_sym_figures,
    "single-state": single_state,
}
