"""Monogamy scores and the identities that certify them.

For a three-party state with nodal observer A the discord monogamy score is

    delta_D = D(A:BC) - D(AB) - D(AC)

and the entanglement monogamy score replaces discord by squared concurrence.
The measured side of every discord here is the side away from the nodal
observer.  For pure tripartite inputs D(A:BC) equals the nodal entropy, and
the score reduces to S_A - S(A|B) - S(A|C), which the report exposes both
ways as a cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .measures import (
    DiscordResult,
    concurrence,
    discord,
    eof_two_qubit,
)
from .qcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    partial_trace,
    vn_entropy,
)

ZERO_BAND_DEFAULT = 1e-4  # |delta_D| below this counts as "vanishing score"
_PROP1_TOL = 1e-6


@dataclass(frozen=True)
class MonogamyReport:
    nodal: str
    delta_D: float
    delta_C: float | None
    D_A_BC: float
    D_A_BC_kernel: str
    D_A_BC_gap: float | None
    D_AB: float
    D_AC: float
    C_AB: float | None
    C_AC: float | None
    C_A_BC: float | None
    S_A: float
    S_cond_AB: float
    S_cond_AC: float
    prop1_satisfied: bool
    prop1_slack: float
    prop2_residual: float | None
    bounds: tuple[float, float] | None
    heuristic: bool

    CSV_COLUMNS = (
        "nodal", "delta_D", "delta_C", "D_A_BC", "D_A_BC_kernel", "D_A_BC_gap", "D_AB", "D_AC",
        "C_AB", "C_AC", "C_A_BC", "S_A", "S_cond_AB", "S_cond_AC",
        "prop1_satisfied", "prop1_slack", "prop2_residual",
        "bound_lower", "bound_upper", "heuristic",
    )

    def to_dict(self) -> dict:
        d = {c: getattr(self, c) for c in self.CSV_COLUMNS[:-3]}
        d["bound_lower"] = None if self.bounds is None else self.bounds[0]
        d["bound_upper"] = None if self.bounds is None else self.bounds[1]
        d["heuristic"] = self.heuristic
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def to_csv_row(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, str):
                return v
            return f"{v:.9g}"

        return ",".join(fmt(self.to_dict()[c]) for c in self.CSV_COLUMNS)


def _require_three_parties(state):
    if len(state.dims) != 3:
        raise ValueError("expected a three-party state")


def _as_density(state) -> DensityMatrix:
    return state.density() if isinstance(state, PureState) else state


def _single_entropies(rho: DensityMatrix) -> dict[str, float]:
    return {l: vn_entropy(partial_trace(rho, (l,))) for l in rho.labels}


def _pair_cut(nodal: str, other: str) -> Bipartition:
    return Bipartition((nodal,), (other,))


def _marginal_discords(rho: DensityMatrix, nodal: str, others, **opt):
    out = {}
    for other in others:
        pair = partial_trace(rho, (nodal, other))
        out[other] = discord(pair, _pair_cut(nodal, other), **opt)
    return out


def delta_d(state, nodal: str, zero_band: float = ZERO_BAND_DEFAULT, **opt) -> MonogamyReport:
    """Full discord-monogamy report for one state and nodal choice.

    Pure inputs take the exact fast path for D(A:BC), mixed ones ``discord``
    (kernel and runner-up gap in ``D_A_BC_kernel``, ``D_A_BC_gap``) and the flag heuristic.
    """
    _require_three_parties(state)
    rho = _as_density(state)
    pure = isinstance(state, PureState) or rho.is_pure()
    nodal_idx = rho.index_of(nodal)
    others = tuple(l for l in rho.labels if l != nodal)

    s_a = vn_entropy(partial_trace(rho, (nodal,)))
    big_cut = Bipartition((nodal,), others)
    if pure:
        d_a_bc, kernel, gap = s_a, "pure", None
    else:
        res = discord(rho, big_cut, **opt)
        d_a_bc, trace = res.discord, res.optimizer_trace
        kernel, gap = trace.kernel, None if trace.runner_up is None else trace.gap

    marg = _marginal_discords(rho, nodal, others, **opt)
    d_ab, d_ac = marg[others[0]], marg[others[1]]

    qubit_pairs = rho.dims[nodal_idx] == 2 and all(
        rho.dims[rho.index_of(o)] == 2 for o in others
    )
    c_ab = c_ac = c_a_bc = dc = None
    if qubit_pairs:
        c_ab = concurrence(partial_trace(rho, (nodal, others[0])))
        c_ac = concurrence(partial_trace(rho, (nodal, others[1])))
        if pure:
            rho_a = partial_trace(rho, (nodal,)).matrix
            c_a_bc = float(np.sqrt(max(0.0, 4.0 * np.linalg.det(rho_a).real)))
            dc = c_a_bc**2 - c_ab**2 - c_ac**2

    slack = d_ab.conditional_entropy + d_ac.conditional_entropy - d_a_bc
    value = d_a_bc - d_ab.discord - d_ac.discord

    prop2 = None
    bounds = None
    if pure:
        prop2 = s_a - d_ab.conditional_entropy - d_ac.conditional_entropy
        bounds = cond_entropy_bounds(rho, nodal)

    return MonogamyReport(
        nodal=nodal,
        delta_D=value,
        delta_C=dc,
        D_A_BC=d_a_bc,
        D_A_BC_kernel=kernel,
        D_A_BC_gap=gap,
        D_AB=d_ab.discord,
        D_AC=d_ac.discord,
        C_AB=c_ab,
        C_AC=c_ac,
        C_A_BC=c_a_bc,
        S_A=s_a,
        S_cond_AB=d_ab.conditional_entropy,
        S_cond_AC=d_ac.conditional_entropy,
        prop1_satisfied=bool(slack >= -_PROP1_TOL),
        prop1_slack=slack,
        prop2_residual=prop2,
        bounds=bounds,
        heuristic=not pure,
    )


def delta_c(psi: PureState, nodal: str) -> float:
    """Entanglement monogamy score C^2(A:BC) - C^2(AB) - C^2(AC), pure three qubits."""
    if not isinstance(psi, PureState):
        raise ValueError("delta_c requires a pure state")
    _require_three_parties(psi)
    if psi.dims != (2, 2, 2):
        raise ValueError("delta_c requires three qubits")
    others = tuple(l for l in psi.labels if l != nodal)
    rho = psi.density()
    rho_a = partial_trace(rho, (nodal,)).matrix
    tangle = max(0.0, 4.0 * np.linalg.det(rho_a).real)
    c_ab = concurrence(partial_trace(rho, (nodal, others[0])))
    c_ac = concurrence(partial_trace(rho, (nodal, others[1])))
    return float(tangle - c_ab**2 - c_ac**2)


def prop1_check(state, nodal: str, **opt) -> tuple[bool, float]:
    """Necessary condition for a vanishing score: D(A:BC) <= S(A|B) + S(A|C).

    Returns (satisfied, slack) with slack = S(A|B) + S(A|C) - D(A:BC).
    """
    report = delta_d(state, nodal, **opt)
    return report.prop1_satisfied, report.prop1_slack


def prop2_residual(psi: PureState, nodal: str, **opt) -> float:
    """S_A - S(A|B) - S(A|C); equals delta_D exactly for pure states."""
    if not isinstance(psi, PureState):
        raise ValueError("prop2_residual requires a pure state")
    _require_three_parties(psi)
    rho = psi.density()
    others = tuple(l for l in psi.labels if l != nodal)
    s_a = vn_entropy(partial_trace(rho, (nodal,)))
    marg = _marginal_discords(rho, nodal, others, **opt)
    return s_a - sum(m.conditional_entropy for m in marg.values())


def _is_permutation_symmetric(psi: PureState, tol: float) -> bool:
    t = psi.amplitudes.reshape(psi.dims)
    perms = [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return all(np.max(np.abs(np.transpose(t, p) - t)) <= tol for p in perms)


def symmetric_condition_residual(psi: PureState, nodal: str, tol: float = 1e-8, **opt) -> float:
    """(1/2) S_A - S(A|B) for permutation-symmetric pure tripartite states."""
    if not isinstance(psi, PureState):
        raise ValueError("requires a pure state")
    _require_three_parties(psi)
    if not _is_permutation_symmetric(psi, tol):
        raise ValueError("state is not permutation symmetric within tolerance")
    rho = psi.density()
    others = tuple(l for l in psi.labels if l != nodal)
    s_a = vn_entropy(partial_trace(rho, (nodal,)))
    pair = partial_trace(rho, (nodal, others[0]))
    cond = discord(pair, _pair_cut(nodal, others[0]), **opt).conditional_entropy
    return 0.5 * s_a - cond


def interaction_information(state) -> float:
    """S_A + S_B + S_C - S_AB - S_BC - S_CA + S_ABC, plain entropy arithmetic."""
    _require_three_parties(state)
    rho = _as_density(state)
    a, b, c = rho.labels
    s1 = _single_entropies(rho)
    s_ab = vn_entropy(partial_trace(rho, (a, b)))
    s_bc = vn_entropy(partial_trace(rho, (b, c)))
    s_ca = vn_entropy(partial_trace(rho, (c, a)))
    return s1[a] + s1[b] + s1[c] - s_ab - s_bc - s_ca + vn_entropy(rho)


def kw_residual(psi: PureState, nodal: str, **opt) -> float:
    """E^f(AB) + J(AC) - S_A for a pure tripartite state.

    Near zero certifies the two-qubit entanglement-of-formation closed form
    and the conditional-entropy optimizer against each other; they share no
    code path.
    """
    if not isinstance(psi, PureState):
        raise ValueError("kw_residual requires a pure state")
    _require_three_parties(psi)
    rho = psi.density()
    others = tuple(l for l in psi.labels if l != nodal)
    s_a = vn_entropy(partial_trace(rho, (nodal,)))
    ef_ab = eof_two_qubit(partial_trace(rho, (nodal, others[0])))
    pair_ac = partial_trace(rho, (nodal, others[1]))
    j_ac = discord(pair_ac, _pair_cut(nodal, others[1]), **opt).classical_correlation
    return ef_ab + j_ac - s_a


def cond_entropy_bounds(psi, nodal: str) -> tuple[float, float]:
    """Entropy-only bracket for S(A|B) + S(A|C) on pure tripartite states.

    upper = min[S_A, S_B] + min[S_A, S_C];
    lower = max[S_A - S_AB, S_B - S_AB, 0] + max[S_A - S_AC, S_C - S_AC, 0].
    """
    _require_three_parties(psi)
    rho = _as_density(psi)
    if not rho.is_pure(1e-10):
        raise ValueError("cond_entropy_bounds requires a pure state")
    others = tuple(l for l in rho.labels if l != nodal)
    s = _single_entropies(rho)
    s_ab = vn_entropy(partial_trace(rho, (nodal, others[0])))
    s_ac = vn_entropy(partial_trace(rho, (nodal, others[1])))
    upper = min(s[nodal], s[others[0]]) + min(s[nodal], s[others[1]])
    lower = max(s[nodal] - s_ab, s[others[0]] - s_ab, 0.0) + max(
        s[nodal] - s_ac, s[others[1]] - s_ac, 0.0
    )
    return float(lower), float(upper)


def discord_eof_pure_identity(psi: PureState, nodal: str, **opt) -> float:
    """(D_AB + D_AC) - (E^f_AB + E^f_AC); vanishes for pure tripartite states."""
    if not isinstance(psi, PureState):
        raise ValueError("requires a pure state")
    _require_three_parties(psi)
    rho = psi.density()
    others = tuple(l for l in psi.labels if l != nodal)
    marg = _marginal_discords(rho, nodal, others, **opt)
    d_sum = sum(m.discord for m in marg.values())
    ef_sum = sum(
        eof_two_qubit(partial_trace(rho, (nodal, o))) for o in others
    )
    return float(d_sum - ef_sum)
