"""Monogamy scores and the bounds that certify them.

For a three-party state with nodal observer A the discord monogamy score is

    delta_D = D(A:BC) - D(AB) - D(AC)

and the entanglement monogamy score replaces discord by squared concurrence.
Every discord measures the side X away from the nodal observer and is
D(A:X) = S_X - S_AX + S(A|X) over one table of marginals, each traced (a
pair with the nodal party first) and diagonalized once (a pure state's holds
its sites: S_AB = S_C, S_AC = S_B and S_ABC = 0).  Only the source of S(A|X)
depends on the input: for a pure three-qubit one (a pure ``DensityMatrix``
through its top eigenvector) one pass of ``measures.pure_scores_batch``,
exact by Koashi-Winter, which gives delta_D, delta_C and the concurrences
too; for a mixed three-qubit one the table's pairs, as they are, in
``concurrence`` and one batch of ``conditional_entropy_qubit_batch``;
otherwise ``measures._conditional_entropy_min_traced``, and S(A|BC) = 0 when pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import measures
from .measures import concurrence, conditional_entropy_qubit_batch, pure_qubit_batch, pure_scores_batch
from .measures import SEARCH_RESTARTS_DEFAULT, discord  # noqa: F401  (bench/spans.py wraps discord)
from .qcore import Bipartition, DensityMatrix, PureState, check_arg, partial_trace, vn_entropy

ZERO_BAND_DEFAULT = 1e-4  # |delta_D| below this counts as "vanishing score"
# Prop 1's slack and Prop 4's lhs - rhs are >= -PROP_TOL.  A state placed on delta_D = 0 misses
# each equality by about its |delta_D| (a pure slack is -delta_D): lhs - rhs was >= -1.99e-7 over
# ``scan.surface_zero``'s points at its default xtol (15 x 15 and 40 x 40 grids) and >= -9.99e-9
# over 10^4 nonsymmetric states bisected to |delta_D| <= 1e-8, so 1e-6 keeps a factor 5.
PROP_TOL = 1e-6


@dataclass(frozen=True)
class MonogamyReport:
    """One state's scores for one nodal choice; ``to_json`` is what ``qmono measures`` prints,
    its keys the fields in this order.

    ``prop2_residual`` is Prop 2's S_A - S(A|B) - S(A|C), None for mixed inputs.  It
    equals delta_D up to rounding: S_A is the entropy table's, and S_AB = S_C.
    ``bound_lower`` and ``bound_upper`` bracket S(A|B) + S(A|C) by entropies alone, None if mixed:
    upper = min[S_A, S_B] + min[S_A, S_C] and
    lower = max[S_A - S_AB, S_B - S_AB, 0] + max[S_A - S_AC, S_C - S_AC, 0], with S_AB = S_C.
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
    bound_lower: float | None
    bound_upper: float | None
    heuristic: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}  # asdict would deep-copy each value

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


def _three_parties(state, nodal: str) -> tuple[DensityMatrix, tuple[str, ...]]:
    """A three-party ``state`` with a party ``nodal`` as a ``DensityMatrix``, and its other two labels."""
    if len(state.dims) != 3:
        raise ValueError("expected a three-party state")
    state.index_of(nodal)  # an unknown label raises here
    rho = state.density() if isinstance(state, PureState) else state
    return rho, tuple(l for l in rho.labels if l != nodal)


def _entropy_table(rho: DensityMatrix, nodal: str, pure: bool):
    """``(table, entropy)``: the marginals of a three-party state as ``DensityMatrix``, keyed by
    label set and each traced once, a pair with the ``nodal`` party first, and S(*labels) of every
    marginal, read once from its spectrum.  A pure state's table holds its sites only, and it
    takes S_AB = S_C, S_AC = S_B, S_BC = S_A and S_ABC = 0."""
    whole, others = frozenset(rho.labels), tuple(l for l in rho.labels if l != nodal)
    parts = [(l,) for l in rho.labels] + ([] if pure else [(nodal, o) for o in others] + [others])
    table = {frozenset(p): partial_trace(rho, p) for p in parts}
    s = {k: vn_entropy(m) for k, m in table.items()}
    if pure:
        s |= {whole - k: v for k, v in s.items()} | {whole: 0.0}
    else:
        s[whole] = vn_entropy(rho)
    return table, lambda *labels: s[frozenset(labels)]


def delta_d(state, nodal: str, *, restarts: int = SEARCH_RESTARTS_DEFAULT, seed: int = 0) -> MonogamyReport:
    """Full discord-monogamy report for one state and nodal choice.

    Each S(A|X) comes from the source the module docstring names; a pure
    three-qubit report keeps the kernel's delta_D bit for bit.  ``restarts``
    and ``seed`` go to the searches.  A mixed input's A:BC search gives
    ``D_A_BC_kernel`` and ``D_A_BC_gap`` and flags the report heuristic.  That search
    measures the two other parties together, in dimension 2, 3 or 4 only: a mixed
    [3, 2, 2] state has a report at nodal A, and ValueError at B or C.  ``restarts`` < 1,
    ``seed`` < 0 and an unknown ``nodal`` are ``UsageError``, whatever the source.
    """
    check_arg("restarts", restarts, 1)
    check_arg("seed", seed, 0)
    rho, others = _three_parties(state, nodal)
    pure = isinstance(state, PureState) or rho.is_pure()
    cuts = [Bipartition((nodal,), x) for x in (others, others[:1], others[1:])]  # A:BC, AB, AC
    table, entropy = _entropy_table(rho, nodal, pure)
    cond_a_bc, kernel, gap = 0.0, "pure", None
    c_ab = c_ac = c_a_bc = dc = None
    closed_form = pure and rho.dims == (2, 2, 2)
    if closed_form:
        if not isinstance(state, PureState):
            state = PureState(np.linalg.eigh(rho.matrix)[1][:, -1], rho.dims, rho.labels)
        scores = pure_scores_batch(pure_qubit_batch(state, nodal))  # + 0.0 below: no -0.0
        value, dc, _, cond_ab, cond_ac, c2_ab, c2_ac = (float(x[0]) + 0.0 for x in scores)
        c_ab, c_ac, c_a_bc = (float(np.sqrt(c2)) for c2 in (c2_ab, c2_ac, dc + c2_ab + c2_ac))
    else:
        search = measures._conditional_entropy_min_traced  # looked up per call: bench/spans.py wraps it
        if not pure:
            cond_a_bc, _, trace = search(rho, cuts[0], restarts, seed)
            kernel, gap = trace.kernel, None if trace.runner_up is None else trace.gap
        # nodal first, so the measured qubit is second; a pure table holds no pair
        pairs = [partial_trace(rho, (nodal, o)) if pure else table[frozenset((nodal, o))] for o in others]
        if rho.dims == (2, 2, 2):  # mixed: both S(A|X) from one search
            c_ab, c_ac = (concurrence(p) for p in pairs)
            cond_ab, cond_ac = conditional_entropy_qubit_batch(np.stack([p.matrix for p in pairs])).tolist()
        else:
            cond_ab, cond_ac = (search(p, cut, restarts, seed)[0] for p, cut in zip(pairs, cuts[1:]))
    d_a_bc, d_ab, d_ac = (
        entropy(*cut.side_two) - entropy(nodal, *cut.side_two) + cond
        for cut, cond in zip(cuts, (cond_a_bc, cond_ab, cond_ac))
    )
    if not closed_form:
        value = d_a_bc - d_ab - d_ac
    s_a = entropy(nodal)
    prop2 = s_a - cond_ab - cond_ac if pure else None
    slack = cond_ab + cond_ac - d_a_bc
    bound_lower = bound_upper = None
    if pure:
        s_b, s_c = entropy(others[0]), entropy(others[1])  # S_AB = S_C and S_AC = S_B
        bound_lower = float(max(s_a - s_c, s_b - s_c, 0.0) + max(s_a - s_b, s_c - s_b, 0.0))
        bound_upper = float(min(s_a, s_b) + min(s_a, s_c))

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
        prop1_satisfied=bool(slack >= -PROP_TOL),
        prop1_slack=slack,
        prop2_residual=prop2,
        bound_lower=bound_lower,
        bound_upper=bound_upper,
        heuristic=not pure,
    )


def delta_c(psi: PureState, nodal: str) -> float:
    """Entanglement monogamy score C^2(A:BC) - C^2(AB) - C^2(AC) of a pure three-qubit
    state: a batch of one of ``measures.pure_scores_batch``."""
    return float(pure_scores_batch(pure_qubit_batch(psi, nodal))[1][0])

