"""Reference values the tests check the closed forms against.

Each one takes the measurement searches of ``measures`` (or plain entropy
arithmetic) where the program takes a closed form, so it shares no code path
with the value it checks.
"""

import numpy as np

from qmono.measures import SIGMA_X, SIGMA_Y, SIGMA_Z, concurrence, discord, eof_batch
from qmono.monogamy import delta_d
from qmono.qcore import Bipartition, PureState, partial_trace, vn_entropy


def cut_of(labels, side_one) -> Bipartition:
    """The bipartition of ``labels`` into ``side_one`` and the rest."""
    one = tuple(side_one)
    return Bipartition(one, tuple(l for l in labels if l not in one))


def eof_pure(psi: PureState, cut: Bipartition) -> float:
    """Entanglement of formation of a pure state across a cut, in bits."""
    cut.check_covers(psi.labels)
    return vn_entropy(partial_trace(psi.density(), cut.side_one))


def _pure_parts(psi, nodal):
    """(rho, the two other labels, S_nodal) of a pure three-party state."""
    if not isinstance(psi, PureState):
        raise ValueError("requires a pure state")
    if len(psi.dims) != 3:
        raise ValueError("expected a three-party state")
    rho = psi.density()
    return rho, tuple(l for l in psi.labels if l != nodal), vn_entropy(partial_trace(rho, (nodal,)))


def _pair_discord(rho, nodal, other, **opt):
    """D(nodal, other) of the pair marginal, ``other`` measured: the grid-and-zoom search."""
    return discord(partial_trace(rho, (nodal, other)), Bipartition((nodal,), (other,)), **opt)


def prop1_check(state, nodal: str, **opt) -> tuple[bool, float]:
    """Necessary condition for a vanishing score: D(A:BC) <= S(A|B) + S(A|C).

    Returns (satisfied, slack) with slack = S(A|B) + S(A|C) - D(A:BC).
    """
    report = delta_d(state, nodal, **opt)
    return report.prop1_satisfied, report.prop1_slack


def prop2_residual(psi: PureState, nodal: str, **opt) -> float:
    """S_A - S(A|B) - S(A|C) by the measurement search; equals delta_D for pure states."""
    rho, others, s_a = _pure_parts(psi, nodal)
    return s_a - sum(_pair_discord(rho, nodal, o, **opt).conditional_entropy for o in others)


def symmetric_condition_residual(psi: PureState, nodal: str, tol: float = 1e-8, **opt) -> float:
    """(1/2) S_A - S(A|B) for permutation-symmetric pure tripartite states."""
    rho, others, s_a = _pure_parts(psi, nodal)
    t = psi.amplitudes.reshape(psi.dims)
    perms = [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    if any(np.max(np.abs(np.transpose(t, p) - t)) > tol for p in perms):
        raise ValueError("state is not permutation symmetric within tolerance")
    return 0.5 * s_a - _pair_discord(rho, nodal, others[0], **opt).conditional_entropy


def interaction_information(state) -> float:
    """S_A + S_B + S_C - S_AB - S_BC - S_CA + S_ABC, plain entropy arithmetic."""
    rho = state.density() if isinstance(state, PureState) else state
    a, b, c = rho.labels
    s = {k: vn_entropy(partial_trace(rho, k)) for k in ((a,), (b,), (c,), (a, b), (b, c), (c, a))}
    return s[(a,)] + s[(b,)] + s[(c,)] - s[(a, b)] - s[(b, c)] - s[(c, a)] + vn_entropy(rho)


def kw_residual(psi: PureState, nodal: str, **opt) -> float:
    """E^f(AB) + J(AC) - S_A for a pure tripartite state.

    Near zero certifies the two-qubit entanglement-of-formation closed form
    and the conditional-entropy optimizer against each other; they share no
    code path.
    """
    rho, others, s_a = _pure_parts(psi, nodal)
    ef_ab = eof_batch(concurrence(partial_trace(rho, (nodal, others[0]))))
    return ef_ab + _pair_discord(rho, nodal, others[1], **opt).classical_correlation - s_a


def discord_eof_pure_identity(psi: PureState, nodal: str, **opt) -> float:
    """(D_AB + D_AC) - (E^f_AB + E^f_AC); vanishes for pure tripartite states."""
    rho, others, _ = _pure_parts(psi, nodal)
    d_sum = sum(_pair_discord(rho, nodal, o, **opt).discord for o in others)
    return float(d_sum - sum(eof_batch(concurrence(partial_trace(rho, (nodal, o)))) for o in others))


def mk_operator_recursion(settings) -> np.ndarray:
    """The paper's three-party Mermin-Klyshko operator B_3, built by the recursion

        B_k  = (1/2) B_{k-1} (x) (s_a + s_a') + (1/2) B'_{k-1} (x) (s_a - s_a')
        B'_k = (1/2) B'_{k-1} (x) (s_a + s_a') - (1/2) B_{k-1} (x) (s_a - s_a')

    from B_1 = s_{a_1}, B'_1 = s_{a_1'}, where B'_k is B_k with every a_j and a_j'
    interchanged.  It reads no coefficient table, so it checks ``bell._MK``."""

    def sigma(d):
        return d[0] * SIGMA_X + d[1] * SIGMA_Y + d[2] * SIGMA_Z

    b, bp = sigma(settings.a[0]), sigma(settings.a_prime[0])
    for av, apv in zip(settings.a[1:], settings.a_prime[1:]):
        s, d = sigma(av) + sigma(apv), sigma(av) - sigma(apv)
        b, bp = (np.kron(b, s) + np.kron(bp, d)) / 2, (np.kron(bp, s) - np.kron(b, d)) / 2
    return b
