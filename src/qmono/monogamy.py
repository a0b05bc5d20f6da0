"""Monogamy scores and the bounds that certify them.

For a three-party state with nodal observer A the discord monogamy score is

    delta_D = D(A:BC) - D(AB) - D(AC)

and the entanglement monogamy score replaces discord by squared concurrence.
The measured side of every discord here is the side away from the nodal
observer.  A pure three-qubit input, a ``PureState`` or a pure
``DensityMatrix`` through its top eigenvector, takes the closed form: D(A:BC)
is the nodal entropy and, by Koashi-Winter, each S(A|X) an entanglement of
formation, so one pass of ``measures.pure_scores_batch`` over the amplitudes,
nodal qubit first, gives delta_D = S_A - S(A|B) - S(A|C), delta_C and the
concurrences; D(AB) = S_B - S_C + S(A|B), since S_AB = S_C.  Inputs with no
closed form, mixed ones and pure ones with a qutrit, take ``discord``'s
searches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .measures import concurrence, discord, nodal_first, pure_scores_batch
from .qcore import Bipartition, DensityMatrix, PureState, partial_trace, vn_entropy

ZERO_BAND_DEFAULT = 1e-4  # |delta_D| below this counts as "vanishing score"
_PROP1_TOL = 1e-6


@dataclass(frozen=True)
class MonogamyReport:
    """One state's scores for one nodal choice; ``to_json`` is what ``qmono measures`` prints.

    ``prop2_residual`` is Prop 2's S_A - S(A|B) - S(A|C), None for mixed inputs.  On a
    pure three-qubit report it is delta_D by construction; with a qutrit it equals
    delta_D up to rounding, since S_AB = S_C for a pure state.
    """

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
        d["bound_lower"], d["bound_upper"] = self.bounds or (None, None)
        d["heuristic"] = self.heuristic
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


def _require_three_parties(state):
    if len(state.dims) != 3:
        raise ValueError("expected a three-party state")


def _as_density(state) -> DensityMatrix:
    return state.density() if isinstance(state, PureState) else state


def pure_qubit_batch(psi: PureState, nodal: str) -> np.ndarray:
    """A pure three-qubit state's amplitudes as a (1, 8) batch, the ``nodal`` qubit first."""
    if not isinstance(psi, PureState) or psi.dims != (2, 2, 2):
        raise ValueError("requires a pure three-qubit state")
    if nodal not in psi.labels:
        raise ValueError(f"unknown party label {nodal!r}")
    return nodal_first(psi.amplitudes, psi.labels.index(nodal))


def delta_d(state, nodal: str, zero_band: float = ZERO_BAND_DEFAULT, **opt) -> MonogamyReport:
    """Full discord-monogamy report for one state and nodal choice.

    A pure three-qubit input is exact, one kernel pass (see the module
    docstring); ``opt`` (``restarts``, ``seed``) goes to the searches of the
    other inputs.  Other pure inputs take D(A:BC) = S_A and ``discord`` on the
    two pairs; mixed ones ``discord`` on all three cuts (kernel and runner-up
    gap in ``D_A_BC_kernel``, ``D_A_BC_gap``) and the flag heuristic.
    """
    _require_three_parties(state)
    rho = _as_density(state)
    pure = isinstance(state, PureState) or rho.is_pure()
    rho.index_of(nodal)  # an unknown label raises here
    others = tuple(l for l in rho.labels if l != nodal)
    s_a = vn_entropy(partial_trace(rho, (nodal,)))
    d_a_bc, kernel, gap = s_a, "pure", None
    c_ab = c_ac = c_a_bc = dc = None
    if pure and rho.dims == (2, 2, 2):
        if not isinstance(state, PureState):
            state = PureState(np.linalg.eigh(rho.matrix)[1][:, -1], rho.dims, rho.labels)
        scores = pure_scores_batch(pure_qubit_batch(state, nodal))  # + 0.0 below: no -0.0
        value, dc, _, cond_ab, cond_ac, c2_ab, c2_ac = (float(x[0]) + 0.0 for x in scores)
        s_b, s_c = (vn_entropy(partial_trace(rho, (o,))) for o in others)
        d_ab, d_ac = s_b - s_c + cond_ab, s_c - s_b + cond_ac
        c_ab, c_ac, c_a_bc = (float(np.sqrt(c2)) for c2 in (c2_ab, c2_ac, dc + c2_ab + c2_ac))
        prop2 = value
    else:
        if not pure:
            res = discord(rho, Bipartition((nodal,), others), **opt)
            d_a_bc, trace = res.discord, res.optimizer_trace
            kernel, gap = trace.kernel, None if trace.runner_up is None else trace.gap
        pairs = [partial_trace(rho, (nodal, o)) for o in others]
        m_ab, m_ac = (discord(p, Bipartition((nodal,), (o,)), **opt) for p, o in zip(pairs, others))
        if rho.dims == (2, 2, 2):
            c_ab, c_ac = (concurrence(p) for p in pairs)
        cond_ab, cond_ac = m_ab.conditional_entropy, m_ac.conditional_entropy
        d_ab, d_ac = m_ab.discord, m_ac.discord
        value = d_a_bc - d_ab - d_ac
        prop2 = s_a - cond_ab - cond_ac if pure else None
    slack = cond_ab + cond_ac - d_a_bc

    return MonogamyReport(
        nodal=nodal,
        delta_D=value,
        delta_C=dc,
        D_A_BC=d_a_bc,
        D_A_BC_kernel=kernel,
        D_A_BC_gap=gap,
        D_AB=d_ab,
        D_AC=d_ac,
        C_AB=c_ab,
        C_AC=c_ac,
        C_A_BC=c_a_bc,
        S_A=s_a,
        S_cond_AB=cond_ab,
        S_cond_AC=cond_ac,
        prop1_satisfied=bool(slack >= -_PROP1_TOL),
        prop1_slack=slack,
        prop2_residual=prop2,
        bounds=cond_entropy_bounds(rho, nodal) if pure else None,
        heuristic=not pure,
    )


def delta_c(psi: PureState, nodal: str) -> float:
    """Entanglement monogamy score C^2(A:BC) - C^2(AB) - C^2(AC) of a pure three-qubit
    state: a batch of one of ``measures.pure_scores_batch``."""
    return float(pure_scores_batch(pure_qubit_batch(psi, nodal))[1][0])


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
    s = {l: vn_entropy(partial_trace(rho, (l,))) for l in rho.labels}
    s_ab = vn_entropy(partial_trace(rho, (nodal, others[0])))
    s_ac = vn_entropy(partial_trace(rho, (nodal, others[1])))
    upper = min(s[nodal], s[others[0]]) + min(s[nodal], s[others[1]])
    lower = max(s[nodal] - s_ab, s[others[0]] - s_ab, 0.0) + max(
        s[nodal] - s_ac, s[others[1]] - s_ac, 0.0
    )
    return float(lower), float(upper)
