"""The equivalent membership conditions and their constructive witnesses.

Condition (2) is the verdict: the diagonal operator of Cesàro means belongs
to the ideal.  Conditions (3), (4), (5) are cross-checks with constructive
witnesses: the max-envelope sequence, its four-fold direct sum, and scaled
variants.  For (4) and (5) both sides are piecewise simple in the scale
parameter alpha — |chi(alpha . lambda)| is piecewise linear with breakpoints
at reciprocals of the moduli, nu(alpha T) is a step function, and
mu(alpha T) is continuous with kinks at the same points — so exhaustive
verification over all alpha > 0 reduces to finitely many endpoint checks
plus an analytic bound for the large-alpha regime of harmonic-tail
witnesses.  Condition (5) brackets mu(alpha T) at every breakpoint first and
sums the witness prefix exactly only where a bracket cannot decide a check or
the worst ratio.

Every witness built here is finite or has a harmonic tail c/m, and the scans
and the doubling step accept only those: `ScalarSequence.harmonic_coefficient`
decides the shape, and any other tail raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoffs import default_cutoff_pair
from .errors import NumericalError
from .functionals import chi, derived_c2, nu as nu_functional
from .ideals import (
    EigenLaw,
    IdealSpec,
    MembershipVerdict,
    cesaro_membership,
    cesaro_sequence,
    max_envelope,
)
from .sequences import (
    STORED_SLACK,
    TINY,
    ScalarSequence,
    exceeds,
    exceeds_scaled,
    require_finite,
    round_sig,
)
from .spectral import (
    EigenSequence,
    eigenvalue_sequence,
    hermitian_split,
    singular_sequence,
    validate_matrix,
)

__all__ = [
    "ConditionCheck",
    "CriterionReport",
    "condition2",
    "condition3_witness",
    "condition4_check",
    "condition5_check",
    "witness_3_to_4",
    "witness_4_to_3",
    "commutator_membership",
    "dominating_witness",
]

IN_COM = "InComJ"
NOT_IN_COM = "NotInComJ"

_MAX_TAIL_BREAKPOINTS = 2_000_000
_LAW_WITNESS_TERMS = 2000  # a symbolic law's witnesses (3)-(5) are built from its first terms


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    worst_ratio: float
    witness_scale: int  # number of scale points examined
    failing_alpha: float | None = None


def condition2(lam, ideal: IdealSpec, prefix_length: int = 10**6) -> MembershipVerdict:
    """Membership of the sorted Cesàro-mean diagonal in the ideal."""
    ces = cesaro_sequence(lam, prefix_length)
    return cesaro_membership(ces, ideal)


def condition3_witness(lam: EigenSequence) -> ScalarSequence:
    """The max-envelope witness; dominates the Cesàro means by construction."""
    env = max_envelope(lam)
    if np.any(exceeds(lam.cesaro_means, env.prefix)):
        raise NumericalError("envelope failed to dominate the Cesàro means")
    return env


def dominating_witness(lam: EigenSequence, env: ScalarSequence) -> ScalarSequence:
    """Pointwise max of the envelope with the moduli (the proof's wlog step
    arranging s_n(T) >= |lambda_n|)."""
    mods = lam.moduli
    if env.prefix.size != mods.size:
        raise ValueError("envelope and eigenvalue sequence lengths differ")
    return ScalarSequence(np.maximum(env.prefix, mods), env.tail, env.repeat)


def witness_3_to_4(t: ScalarSequence) -> ScalarSequence:
    """Four-fold direct sum of the witness (each entry repeated four times)."""
    return t.repeated(4)


# ---------------------------------------------------------------------------
# exact alpha scans


def _chi_data(lam: EigenSequence):
    """The rounded moduli (ascending), |partial sums| indexed by the number of
    included values (0 first), and the total (0 when the values cancel)."""
    levels = np.sort(lam.rounded_moduli)
    # Python's abs: numpy's complex abs differs from it in the last bit
    partial_abs = np.array([0.0] + [abs(z) for z in lam.partial_sums.tolist()])
    return levels, partial_abs, lam.net_total


def _chi_abs(levels: np.ndarray, partial_abs: np.ndarray, alpha):
    """|chi(alpha lambda)| / alpha: modulus of the included partial sum
    (scalar or 1-D alpha > 0)."""
    included = levels.size - np.searchsorted(levels, round_sig(1.0 / alpha))
    return partial_abs[included]


def _alpha_grid(levels: np.ndarray, t: ScalarSequence, alpha_star: float | None):
    """All breakpoints of both sides up to alpha_cap, sorted ascending.

    Returns (grid, alpha_cap): alpha_cap is twice the largest of the largest
    finite breakpoint (1/min of the rounded moduli and witness entries),
    alpha_star and 1.  The harmonic tail's breakpoints up to alpha_cap are
    enumerated at once, after checking that they end within
    _MAX_TAIL_BREAKPOINTS positions.
    """
    finite = np.concatenate([levels, t.rounded_levels])
    with np.errstate(over="ignore"):
        finite = 1.0 / finite[finite > 0]
    # no float alpha reaches the reciprocal of a subnormal
    finite = finite[np.isfinite(finite)]
    base_cap = float(finite.max()) if finite.size else 1.0
    alpha_cap = 2.0 * max(base_cap, alpha_star or 0.0, 1.0)
    parts = [finite]
    c = t.harmonic_coefficient()
    if c is not None:

        def breakpoints(m: np.ndarray):
            v = np.asarray(t.tail.value_at(m))
            with np.errstate(divide="ignore", over="ignore"):
                pts = 1.0 / v
            return pts, (v <= 0) | (pts > alpha_cap)

        lo = t.base_length + 1
        last = lo + _MAX_TAIL_BREAKPOINTS - 1
        # 1/(c*(1/m)) is three correctly rounded steps, each monotone in m, so
        # the breakpoints never decrease and `beyond` never turns back off
        _, beyond = breakpoints(np.array([float(last)]))
        if not beyond[0]:
            raise NumericalError("tail breakpoint enumeration exceeded its cap")
        # the tail's count grows without bound, so the scan needs a finite end
        require_finite(
            alpha_cap, "the alpha scan's closing scale 2*max(1/min modulus, alpha_star, 1) overflows the float range"
        )
        # the steps move m/c by under 4 ulps relative, less than one position
        # for the m < 2**50 met here: position floor(alpha_cap*c) + 2 is beyond
        # (alpha_cap*c overflows only when c/last underflows to 0)
        stop = min(last, max(lo, math.floor(min(alpha_cap * c, last)) + 2))
        pts, beyond = breakpoints(np.arange(lo, stop + 1, dtype=float))
        parts.append(pts[: beyond.argmax()])
    grid = np.unique(np.concatenate(parts))
    return (grid if grid.size else np.ones(1)), alpha_cap


def _alpha_star(t: ScalarSequence, total: float) -> float | None:
    """The scale past which nu(alpha t) stays above alpha*total, or None
    when it never does: a finite witness against a nonzero total, or a tail
    coefficient whose slope r*c does not exceed the total.  0 when the total
    cancels."""
    c = t.harmonic_coefficient()
    if total == 0.0:
        return 0.0
    if c is None:
        return None
    r = t.repeat
    margin = r * c - total
    if round_sig(margin) <= 0:
        return None
    n_pos = int(np.count_nonzero(t.prefix > 0))
    return max(0.0, r * (1 + t.base_length - n_pos) / margin)


def _scan_condition(lam: EigenSequence, t: ScalarSequence, use_mu: bool) -> ConditionCheck:
    """Shared exact scan for conditions (4) (counting side) and (5) (log side).

    Both sides are evaluated over the whole breakpoint grid at once, which
    decides every alpha up to alpha_cap.  Beyond it, alpha_cap >= 2*alpha_star
    keeps the counting side above alpha*total and the log side's margin
    increasing; without an alpha_star the condition fails there, and
    failing_alpha names a grid scale only when one fails on the grid.
    """
    levels, partial_abs, total = _chi_data(lam)
    alpha_star = _alpha_star(t, total)
    grid, alpha_cap = _alpha_grid(levels, t, alpha_star)
    grid_next = np.append(grid[1:], alpha_cap)
    sum_abs = _chi_abs(levels, partial_abs, grid)
    # the left side is 0 wherever |S| = 0, also at an infinite alpha_cap
    live = sum_abs > 0
    left = np.multiply(grid, sum_abs, out=np.zeros(grid.size), where=live)
    left_next = np.multiply(grid_next, sum_abs, out=np.zeros(grid.size), where=live)
    # the left side is linear on [b, b_next): its supremum is the right
    # limit; the log side is continuous and the margin concave on the
    # interval, so the two endpoint checks are exhaustive.  The last right
    # limit includes every positive level and is the left side at alpha_cap
    if use_mu:
        # exact log sides only where they matter: a check whose bracket ends disagree
        # (exceeds_scaled is monotone in right >= 0), a ratio whose bound from lo
        # reaches the top bound from hi; elsewhere hi stands in for the exact side
        scales = np.append(grid, alpha_cap)
        lo, right_all = t.sum_plog_bounds(scales)
        exact = ~np.isfinite(right_all) | (lo < 0)
        sides = ((left, slice(None, -1)), (left_next, slice(1, None)))
        with np.errstate(invalid="ignore"):  # inf/inf at an infinite alpha_cap, an exact scale
            top = max(np.fmax.reduce(side / np.maximum(right_all[at], 1.0), initial=0.0) for side, at in sides)
        for side, at in sides:
            undecided = exceeds_scaled(side, lo[at]) != exceeds_scaled(side, right_all[at])
            exact[at] |= undecided | ((side > 0) & (side / np.maximum(lo[at], 1.0) >= top))
        right_all[exact] = t.sum_plog(scales[exact])
        right, right_next = right_all[:-1], right_all[1:]
    else:
        right = right_next = np.asarray(t.count_ge(1.0 / grid), dtype=float)
    ratios = np.concatenate([left / np.maximum(right, 1.0), left_next / np.maximum(right_next, 1.0)])
    worst = float(np.fmax.reduce(ratios, initial=0.0))  # skips nan, as max(worst, r) did
    fails = exceeds_scaled(left, right) | exceeds_scaled(left_next, right_next)
    failing = float(grid[fails.argmax()]) if fails.any() else None
    holds = alpha_star is not None and failing is None
    return ConditionCheck(holds, worst, int(grid.size), failing)


def condition4_check(lam: EigenSequence, t: ScalarSequence) -> ConditionCheck:
    """|chi(alpha lambda)| <= nu(alpha t) for every alpha > 0, checked exactly."""
    return _scan_condition(lam, t, use_mu=False)


def condition5_check(lam: EigenSequence, t: ScalarSequence) -> ConditionCheck:
    """|chi(alpha lambda)| <= mu(alpha t) for every alpha > 0, checked exactly."""
    return _scan_condition(lam, t, use_mu=True)


def witness_4_to_3(lam: EigenSequence, t: ScalarSequence) -> ScalarSequence:
    """Double the witness and verify that the Cesàro means sit below it.

    Checks c_n <= 2 s_n(t) for every n: directly over the stored range, and
    by slope comparison for the harmonic tails beyond.  Raises with the
    failing index when the factor-2 bound is violated (which the precondition
    — condition (4) with s(t) >= |lambda| — rules out), and for a witness
    that is neither finite nor harmonic.
    """
    c = t.harmonic_coefficient()
    mods = lam.moduli
    horizon = max(mods.size, t.base_length * t.repeat) + t.repeat
    ns = np.arange(1, horizon + 1)
    t_vals = t.head(horizon)
    short = t_vals[: mods.size] < mods * (1 - STORED_SLACK) - TINY
    if np.any(short):
        raise ValueError(f"witness fails s_n >= |lambda_n| at n={int(np.argmax(short)) + 1}")
    total = lam.net_total
    means = np.zeros(horizon)
    means[: mods.size] = lam.cesaro_means
    means[mods.size :] = total / ns[mods.size :]
    viol = exceeds(means, 2.0 * t_vals)
    if np.any(viol):
        raise ValueError(f"factor-2 domination fails at n={int(np.argmax(viol)) + 1}")
    if total > 0.0:
        _certify_tail_domination(total, c, t.repeat, horizon)
    return t.scaled(2.0)


def _certify_tail_domination(total: float, c: float | None, r: int, checked: int) -> None:
    """Show total/n <= 2 t(n) for all n beyond the checked horizon, where t
    has the harmonic tail c/m (None: finite) replayed r times."""
    if c is None:
        raise ValueError(f"factor-2 domination fails at n={checked + 1} (finite witness)")
    # 2 t(n) * n >= 2 c (n/r + 1)^(-1) * n, increasing in n
    n0 = checked + 1
    if 2.0 * c * r * n0 / (n0 + r) < total * (1 - STORED_SLACK):
        raise ValueError("factor-2 domination fails beyond the checked horizon")


@dataclass(frozen=True)
class CriterionReport:
    condition2: MembershipVerdict
    condition3_witness: ScalarSequence | None
    condition4: ConditionCheck | None
    condition5: ConditionCheck | None
    verdict: str
    witness_sequence: EigenSequence  # the list (3)-(5) were built from
    hermitian_split: dict | None = None

    @property
    def witness_scale(self) -> int:
        return self.witness_sequence.values.size


def _witness_checks(lam: EigenSequence):
    env = condition3_witness(lam)
    t0 = dominating_witness(lam, env)
    t4 = witness_3_to_4(t0)
    c4 = condition4_check(lam, t4)
    c5 = condition5_check(lam, t4.scaled(math.e))
    try:
        witness_4_to_3(lam, t4)
    except ValueError as exc:  # the built witness dominates |lambda|: an internal fault
        raise NumericalError(f"the doubling step failed on the built witness: {exc}") from exc
    return env, c4, c5


def commutator_membership(source, ideal: IdealSpec, prefix_length: int = 10**6) -> CriterionReport:
    """Full membership report for a matrix, finite sequence, or symbolic law.

    The verdict is condition (2), which decides membership in [J, B(H)]
    because both ideal families are geometrically stable; conditions (3)-(5)
    are attached as constructive cross-checks (on a stated finite scale for
    symbolic input).
    Matrix input additionally reports the hermitian-split verdicts and the
    quantitative hermitian-part comparison against the derived constant.
    """
    split_report = None
    if isinstance(source, EigenLaw):
        lam = EigenSequence(source.prefix_values(_LAW_WITNESS_TERMS))
        cond2 = condition2(source, ideal, prefix_length)
    elif isinstance(source, EigenSequence):
        lam = source
        cond2 = condition2(source, ideal)
    else:
        matrix = validate_matrix(source)
        lam = eigenvalue_sequence(matrix)
        cond2 = condition2(lam, ideal)
        split_report = _hermitian_split_report(matrix, lam, ideal)

    env, c4, c5 = _witness_checks(lam)
    return CriterionReport(
        condition2=cond2,
        condition3_witness=env,
        condition4=c4,
        condition5=c5,
        verdict=IN_COM if cond2.is_in else NOT_IN_COM,
        witness_sequence=lam,
        hermitian_split=split_report,
    )


def _hermitian_split_report(matrix: np.ndarray, eig_t: EigenSequence, ideal: IdealSpec) -> dict:
    h, k = hermitian_split(matrix)
    eig_h = eigenvalue_sequence(h)
    eig_k = eigenvalue_sequence(k)
    cond2_h = condition2(eig_h, ideal)
    cond2_k = condition2(eig_k, ideal)
    mu2 = singular_sequence(matrix).sum_plog(2.0)
    c2_const = derived_c2(default_cutoff_pair())
    return {
        "condition2_h": cond2_h,
        "condition2_k": cond2_k,
        "chi_dev_re": abs(chi(eig_h).real - chi(eig_t).real),
        "chi_dev_im": abs(chi(eig_k).real - chi(eig_t).imag),
        "bound": c2_const * mu2,
        "nu_t": nu_functional(eig_t),
        "mu_2abs_t": mu2,
    }
