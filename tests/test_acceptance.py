"""Acceptance criteria: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The heavyweight shared data (the 500-state sample, the symmetric-surface
points, the 10^4 zero-band states) is built once per module.
"""

import time

import numpy as np
import pytest

from qmono.bell import mk_optimize
from qmono.measures import concurrence_batch, conditional_entropy_qubit_batch, eof_batch, ggm
from qmono.monogamy import delta_c, delta_d
from qmono.qcore import DensityMatrix, PureState, partial_trace, vn_entropy, binary_entropy
from qmono.scan import (
    delta_c_batch,
    family_states,
    find_zero_crossings,
    ggm_batch,
    grid_scan,
    path_trace,
    prop4_check,
    pure_scores_batch,
    sample_experiment,
    surface_zero,
    _marginals,
)
from qmono.states import (
    family_state,
    ghz_state,
    haar_random_amplitudes,
    symmetric_concurrence_closed_form,
    w_state,
)

from oracles import kw_residual, prop2_residual

SEED = 20260810


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# --- shared heavyweight data --------------------------------------------------


@pytest.fixture(scope="module")
def sample500():
    amps = haar_random_amplitudes(500, SEED)
    states = [PureState(a, (2, 2, 2)) for a in amps]
    reports = [delta_d(s, "A") for s in states]
    kw = np.array([kw_residual(s, "A") for s in states])
    prop2 = np.array([prop2_residual(s, "A") for s in states])
    return {"states": states, "reports": reports, "kw": kw, "prop2": prop2}


@pytest.fixture(scope="module")
def surface_points():
    thetas = np.linspace(0.15, np.pi / 4, 15)
    kappas = np.linspace(0.0, 2 * np.pi, 15)
    return surface_zero(thetas, kappas)


@pytest.fixture(scope="module")
def band_states_10k():
    """10^4 nonsymmetric states bisected onto the delta_D = 0 band.

    Each Haar draw is joined to GHZ by the path cos(mu)|psi> + sin(mu)|GHZ>,
    which ends at delta_D = 1.  Draws whose score changes sign on a 5-point
    mu grid are kept, whether they start negative or start positive and dip
    below zero.  The first sign change is bisected on the Koashi-Winter
    closed form (``pure_scores_batch``) until |delta_D| <= 1e-8; every path must
    get there within the round cap.  The states are then scored cold by the
    grid-and-zoom optimizer, S_A - S(A|B) - S(A|C), a code path independent
    of the one that placed them.
    """
    n_target = 10_000
    n_draws = 60_000
    stop, max_rounds = 1e-8, 64
    draws = haar_random_amplitudes(n_draws, SEED + 1)
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)

    def path_states(starts, mus):
        v = np.cos(mus)[:, None] * starts + np.sin(mus)[:, None] * ghz[None, :]
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    grid = np.linspace(0.0, np.pi / 2, 5)
    vals = np.stack(
        [pure_scores_batch(path_states(draws, np.full(n_draws, m)))[0] for m in grid], axis=1
    )
    change = vals[:, :-1] * vals[:, 1:] < 0
    has = change.any(axis=1)
    first = np.argmax(change, axis=1)
    n_bracketed = int(has.sum())
    assert n_bracketed >= n_target, (
        f"not enough bracketed paths: {n_bracketed} of {n_draws} draws, need {n_target}"
    )
    sel = np.nonzero(has)[0][:n_target]
    starts = draws[sel]
    lo = grid[first[sel]].copy()
    hi = grid[first[sel] + 1].copy()
    f_lo = vals[sel, first[sel]].copy()

    mus = (lo + hi) / 2
    active = np.ones(n_target, dtype=bool)
    for _ in range(max_rounds):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        mid = (lo[idx] + hi[idx]) / 2
        f_mid = pure_scores_batch(path_states(starts[idx], mid))[0]
        mus[idx] = mid
        left = f_lo[idx] * f_mid <= 0
        hi[idx] = np.where(left, mid, hi[idx])
        lo[idx] = np.where(left, lo[idx], mid)
        f_lo[idx] = np.where(left, f_lo[idx], f_mid)
        active[idx] = np.abs(f_mid) > stop
    n_open = int(active.sum())
    assert n_open == 0, f"{n_open} paths did not reach |delta_D| <= {stop:g} in {max_rounds} rounds"
    states = path_states(starts, mus)
    cold = np.empty(n_target)  # optimizer verification pass, in chunks to bound memory
    for i in range(0, n_target, 1000):
        part = states[i : i + 1000]
        rho_ab, rho_ac = _marginals(part)
        s_a = pure_scores_batch(part)[2]
        cold[i : i + 1000] = (
            s_a - conditional_entropy_qubit_batch(rho_ab) - conditional_entropy_qubit_batch(rho_ac)
        )
    return {"amps": states, "delta_d": cold}


# --- criteria -------------------------------------------------------------------


def test_criterion_01_ghz():
    t0 = time.monotonic()
    rep = delta_d(ghz_state(), "A")
    g = ggm(ghz_state())
    mk, _ = mk_optimize(ghz_state(), restarts=12, seed=SEED)
    dt = time.monotonic() - t0
    ok = (
        abs(rep.delta_D - 1.0) <= 1e-6
        and abs(g - 0.5) <= 1e-9
        and abs(mk - 2.0) <= 1e-3
        and dt < 5.0
    )
    _report(1, ok, f"GHZ delta_D={rep.delta_D:.9f} GGM={g:.12f} MK={mk:.6f} ({dt:.2f}s)")
    assert ok


def test_criterion_02_w_state():
    t0 = time.monotonic()
    dc = delta_c(w_state(), "A")
    rep = delta_d(w_state(), "A")
    dt = time.monotonic() - t0
    ok = abs(dc) <= 1e-9 and rep.delta_D < 0 and dt < 5.0
    _report(2, ok, f"W delta_C={dc:.2e} delta_D={rep.delta_D:.6f} ({dt:.2f}s)")
    assert ok


def test_criterion_03_koashi_winter(sample500):
    t0 = time.monotonic()
    worst = float(np.max(np.abs(sample500["kw"])))
    dt = time.monotonic() - t0
    ok = worst < 1e-4
    _report(3, ok, f"max |Ef_AB + J_AC - S_A| = {worst:.2e} over 500 states")
    assert ok
    assert dt < 120.0


def test_criterion_04_prop2_identity(sample500):
    # the reports' closed form against the measurement search behind the prop2 oracle
    devs = [abs(r.delta_D - p) for r, p in zip(sample500["reports"], sample500["prop2"])]
    worst = max(devs)
    ok = worst < 1e-5
    _report(4, ok, f"max |delta_D - (S_A - S(A|B) - S(A|C))| = {worst:.2e} over 500 states")
    assert ok


def test_criterion_05_prop1_on_band(sample500, surface_points, band_states_10k):
    slacks = []
    for r in sample500["reports"]:
        if abs(r.delta_D) < 1e-4:
            slacks.append(r.prop1_slack)
    # scanned zero states: for pure states the slack is exactly -delta_D
    slacks += list(-surface_points.delta_d)
    slacks += list(-band_states_10k["delta_d"])
    worst = float(np.min(slacks))
    ok = worst >= -1e-5
    _report(
        5, ok,
        f"min slack S(A|B)+S(A|C)-D(A:BC) = {worst:.2e} over "
        f"{len(slacks)} zero-band states",
    )
    assert ok


def test_criterion_06_fig2_line():
    crossings = find_zero_crossings(
        "ghz-sym", {"theta": 0.4, "kappa": 1.0}, "alpha", 1e-4, np.pi / 2
    )
    n = len(crossings)
    face = pure_scores_batch(family_states("ghz-sym", np.array([[0.4, 1.0, 0.0]])))[0][0]
    star = crossings[0].location if n else np.nan
    before = pure_scores_batch(
        family_states("ghz-sym", np.array([[0.4, 1.0, a] for a in np.linspace(0.03, star - 0.01, 12)]))
    )[0]
    after = pure_scores_batch(
        family_states("ghz-sym", np.array([[0.4, 1.0, a] for a in np.linspace(star + 0.01, np.pi / 2, 12)]))
    )[0]
    ok = n == 1 and abs(face) <= 1e-12 and np.all(before < 0) and np.all(after > 0)
    _report(
        6, ok,
        f"face value {face:.1e}; {n} interior crossing at alpha={star:.6f}; "
        f"negative before, positive after",
    )
    assert ok


def test_criterion_07_fig4_max_ggm():
    pts = surface_zero([np.pi / 4], np.linspace(0.0, 2 * np.pi, 128))
    top = float(pts.ggm.max())
    ok = abs(top - 0.33) <= 0.02
    _report(7, ok, f"max GGM on the zero surface at theta=pi/4: {top:.4f} (target 0.33 +- 0.02)")
    assert ok


def test_criterion_08_sampling_remark():
    t0 = time.monotonic()
    summary = sample_experiment(100_000, seed=7, epsilon=1e-3)
    dt = time.monotonic() - t0
    ok = (
        summary.max_ggm_in_band is not None
        and summary.max_ggm_in_band <= 0.36
        and summary.max_ggm_in_band < 0.5
        and dt < 600.0
    )
    _report(
        8, ok,
        f"n=1e5: {summary.band_count} in band, max in-band GGM "
        f"{summary.max_ggm_in_band:.4f} <= 0.36, overall {summary.max_ggm_overall:.4f} "
        f"({dt:.0f}s)",
    )
    assert ok


def test_criterion_09_fig6_ghz_path():
    crossings = find_zero_crossings("path-ghz", {}, "mu", 0.0, np.pi / 2, presample=300)
    n = len(crossings)
    mks = []
    if n == 3:
        for c in crossings[1:]:
            amps = family_states("path-ghz", np.array([[c.location]]))[0]
            val, _ = mk_optimize(PureState(amps, (2, 2, 2)), restarts=16, seed=SEED)
            mks.append(val)
    ok = n == 3 and all(v > 1.0 for v in mks)
    _report(
        9, ok,
        f"{n} crossings on the GHZ path; MK at 2nd/3rd: "
        + ", ".join(f"{v:.4f}" for v in mks),
    )
    assert ok


def test_criterion_10_fig7_w_path():
    crossings = find_zero_crossings("path-w-ghz", {}, "tau", 0.0, np.pi / 2, presample=300)
    ok = len(crossings) == 1
    _report(10, ok, f"{len(crossings)} crossing(s) on the W-GHZ path (expect exactly 1)")
    assert ok


def test_criterion_11_fig5_violation_submerged():
    ths = np.linspace(1e-3, np.pi / 4, 50)
    als = np.linspace(1e-3, np.pi / 2, 50)
    kas = np.linspace(0.0, 2 * np.pi, 50)
    tt, aa, kk = np.meshgrid(ths, als, kas, indexing="ij")
    bmk = (
        4.0 * np.sin(aa) ** 3 * np.sin(tt)
        * (np.cos(tt) * np.cos(kk) + np.cos(aa) ** 3 * np.sin(tt))
    )
    mask = np.abs(bmk) > 1.0
    rows = np.stack([tt[mask], kk[mask], aa[mask]], axis=1)
    dd = np.empty(len(rows))
    for i in range(0, len(rows), 4096):
        dd[i : i + 4096] = pure_scores_batch(family_states("ghz-sym", rows[i : i + 4096]))[0]
    ok = len(rows) > 0 and float(dd.min()) > 0.0
    _report(
        11, ok,
        f"{len(rows)} violating grid points (of {mask.size}); min delta_D there "
        f"= {dd.min():.4f} > 0",
    )
    assert ok


def test_criterion_12_prop4(surface_points, band_states_10k):
    # equality clause on the symmetric zero surface
    pts = [c[:200] for c in (surface_points.theta, surface_points.kappa, surface_points.alpha_star)]
    n_pts = len(pts[0])
    residuals = []
    satisfied = []
    for theta, kappa, alpha in zip(*pts):
        psi = family_state("ghz-sym", theta, kappa, alpha)
        r = prop4_check(psi, "A")
        satisfied.append(r.satisfied)
        residuals.append(r.equality_residual)
    eq_ok = all(satisfied) and max(residuals) <= 1e-4

    # inequality on the random zero-band states
    amps = band_states_10k["amps"]
    rho_ab, rho_ac = _marginals(amps)
    lhs = eof_batch(concurrence_batch(rho_ab)) + eof_batch(concurrence_batch(rho_ac))
    rhs = np.array([binary_entropy(g) for g in ggm_batch(amps)])
    margin = float(np.min(lhs - rhs))  # -9.99e-9: the states are bisected to |delta_D| <= 1e-8
    band_ok = margin >= -1e-6 and float(np.max(np.abs(band_states_10k["delta_d"]))) < 1e-3
    ok = n_pts >= 200 and eq_ok and band_ok
    _report(
        12, ok,
        f"{n_pts} surface points: equality residual max {max(residuals):.2e}; "
        f"10^4 band states: min (Ef_AB+Ef_AC - H(GGM)) = {margin:.2e}",
    )
    assert ok


def test_criterion_13_closed_form_oracle():
    rng = np.random.default_rng(SEED + 2)
    n = 8000
    ths = rng.uniform(0.02, np.pi / 4, n)
    kas = rng.uniform(0.0, 2 * np.pi, n)
    als = rng.uniform(0.02, np.pi / 2, n)
    closed = np.empty(n)
    out_of_domain = 0
    for i in range(n):
        try:
            closed[i] = symmetric_concurrence_closed_form(ths[i], kas[i], als[i])
        except ValueError:
            out_of_domain += 1
            closed[i] = np.nan
    rows = np.stack([ths, kas, als], axis=1)
    rho_ab, _ = _marginals(family_states("ghz-sym", rows))
    wootters = concurrence_batch(rho_ab)
    valid = ~np.isnan(closed)
    worst = float(np.max(np.abs(closed[valid] - wootters[valid])))  # 7.9e-15 at this seed
    ok = worst <= 1e-6
    _report(
        13, ok,
        f"closed form vs Wootters: max |diff| = {worst:.2e} on {int(valid.sum())} "
        f"in-domain points ({out_of_domain} out-of-domain reported)",
    )
    assert ok


def test_criterion_14_property_suites():
    rng = np.random.default_rng(SEED + 3)
    failures = []

    # entropy identities on pure tripartite states
    for _ in range(100):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rho = PureState(z, (2, 2, 2)).density()
        for pair, single in ((("A", "B"), "C"), (("A", "C"), "B"), (("B", "C"), "A")):
            d = abs(vn_entropy(partial_trace(rho, pair)) - vn_entropy(partial_trace(rho, (single,))))
            if d > 1e-10:
                failures.append(f"entropy identity {d:.1e}")

    # strong subadditivity on random mixed states
    for _ in range(200):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, (2, 2, 2))
        val = (
            vn_entropy(partial_trace(rho, ("A", "B")))
            + vn_entropy(partial_trace(rho, ("A", "C")))
            - vn_entropy(partial_trace(rho, ("B",)))
            - vn_entropy(partial_trace(rho, ("C",)))
        )
        if val < -1e-9:
            failures.append(f"SSA {val:.1e}")

    # local-unitary invariance of concurrence and GGM
    def hu(dim):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    from qmono.measures import concurrence

    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real, (2, 2))
        u = np.kron(hu(2), hu(2))
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
        if abs(concurrence(rotated) - concurrence(rho)) > 1e-9:
            failures.append("concurrence LU invariance")
    for _ in range(50):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(z, (2, 2, 2))
        u = np.kron(np.kron(hu(2), hu(2)), hu(2))
        if abs(ggm(PureState(u @ psi.amplitudes, (2, 2, 2))) - ggm(psi)) > 1e-9:
            failures.append("GGM LU invariance")

    # CKW nonnegativity at scale
    dc = delta_c_batch(haar_random_amplitudes(10_000, SEED + 4))
    if dc.min() < -1e-9:
        failures.append(f"delta_C {dc.min():.1e}")

    ok = not failures
    _report(
        14, ok,
        "entropy identities, SSA, LU invariance, delta_C >= 0 (10^4 states): "
        + ("zero failures" if ok else "; ".join(failures[:5])),
    )
    assert ok
