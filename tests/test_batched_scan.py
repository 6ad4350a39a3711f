"""The batched alpha scan against the per-point scan it replaced.

The oracle below is the earlier implementation, one scale at a time: scalar
rounding, a Python set of breakpoints, and a loop of endpoint checks, closed
by a check at alpha_cap and, for a witness whose right side cannot keep up, a
geometric search past the grid for a failing scale.  The batched scan decides
on its grid alone; it must reproduce the oracle's grid, every right side and
every ConditionCheck bit for bit wherever the search did not run.  A second
oracle is the batched scan with the exact log side at every grid scale;
condition (5) brackets that side and must agree with it bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from comspect import cli
from comspect import criterion as crit
from comspect.errors import NumericalError
from comspect.ideals import EigenLaw, IdealSpec
from comspect.sequences import DERIVED_SLACK, STORED_SLACK, GeometricTail, PowerTail, ScalarSequence
from comspect.spectral import EigenSequence

# ---------------------------------------------------------------------------
# oracle: the per-point scan


def _old_round_sig(x, digits=12):
    arr = np.asarray(x, dtype=float)
    out = arr.copy()
    nz = (arr != 0) & np.isfinite(arr)
    if np.any(nz):
        exp = np.floor(np.log10(np.abs(arr[nz])))
        with np.errstate(over="ignore", invalid="ignore"):  # nan below ~1e-297
            scale = 10.0 ** (digits - 1 - exp)
            out[nz] = np.round(arr[nz] * scale) / scale
    return out if out.ndim else float(out)


def _old_floor_index(v):
    if v < 0:
        return 0
    return math.floor(_old_round_sig(v) + 1e-9)


def _old_tail_count_ge(tail, x, start):
    if x <= 0:
        return math.inf
    bound = (tail.c / x) ** (1.0 / tail.a)
    return max(0, _old_floor_index(bound) - start)


def _old_tail_sum_plog(tail, alpha, start):
    if alpha <= 0:
        return 0.0
    m_top = _old_floor_index((alpha * tail.c) ** (1.0 / tail.a))
    if m_top <= start:
        return 0.0
    return (m_top - start) * math.log(alpha * tail.c) - tail.a * (
        gammaln(m_top + 1) - gammaln(start + 1)
    )


def _old_count_ge(t, x):
    cnt = int(np.count_nonzero(_old_round_sig(t.prefix) >= _old_round_sig(x)))
    if t.tail is not None:
        cnt += _old_tail_count_ge(t.tail, x, t.prefix.size)
    return t.repeat * cnt


def _old_sum_plog(t, alpha):
    if alpha <= 0:
        return 0.0
    vals = alpha * t.prefix[t.prefix > 0]
    s = float(np.sum(np.log(vals[vals >= 1]))) if vals.size else 0.0
    if t.tail is not None:
        s += _old_tail_sum_plog(t.tail, alpha, t.prefix.size)
    return t.repeat * s


def _old_chi_abs(mods, csum, alpha):
    if alpha <= 0 or mods.size == 0:
        return 0.0
    m = int(np.count_nonzero(mods >= _old_round_sig(1.0 / alpha)))
    return abs(complex(csum[m - 1])) if m else 0.0


def _old_alpha_grid(mods, t, alpha_cap):
    pts = {1.0 / m for m in np.unique(mods) if m > 0}
    for v in np.unique(_old_round_sig(t.prefix)):
        if v > 0:
            pts.add(1.0 / v)
    if t.tail is not None:
        m = t.base_length + 1
        while m <= t.base_length + crit._MAX_TAIL_BREAKPOINTS:
            v = float(np.asarray(t.tail.value_at(m)))
            if v <= 0 or 1.0 / v > alpha_cap:
                break
            pts.add(1.0 / v)
            m += 1
        else:
            raise NumericalError("tail breakpoint enumeration exceeded its cap")
    return sorted(p for p in pts if p <= alpha_cap) or [1.0]


def _old_tail_slope_state(t, total):
    """('ok', alpha_star), ('fail', None) when the right side eventually
    loses, or ('trivial', 0.0) when the total cancels."""
    c = t.harmonic_coefficient()
    if total == 0.0:
        return "trivial", 0.0
    if c is None:
        return "fail", None
    margin = t.repeat * c - total
    if _old_round_sig(margin) <= 0:
        return "fail", None
    n_pos = int(np.count_nonzero(t.prefix > 0))
    return "ok", max(0.0, t.repeat * (1 + t.base_length - n_pos) / margin)


def _old_find_failure(lhs_fn, rhs_fn, start):
    alpha = max(start, 1e-6)
    for _ in range(400):
        left, right = lhs_fn(alpha), rhs_fn(alpha)
        if left > right + DERIVED_SLACK * (1.0 + abs(right)):
            return alpha
        alpha *= 1.5
    return None


def _old_scan(lam, t, use_mu):
    """(ConditionCheck, grid, alpha_cap, searched) of the per-point scan;
    `searched` tells whether the failure search past the grid ran."""
    mods = _old_round_sig(lam.moduli)
    csum = np.cumsum(lam.values) if lam.values.size else np.zeros(0, complex)
    scale = float(np.sum(lam.moduli))
    total = abs(complex(csum[-1])) if csum.size else 0.0
    if scale > 0 and total <= 1e-12 * scale:
        total = 0.0
    state, alpha_star = _old_tail_slope_state(t, total)

    def rhs(alpha):
        return _old_sum_plog(t, alpha) if use_mu else float(_old_count_ge(t, 1.0 / alpha))

    def lhs(alpha):
        return alpha * _old_chi_abs(mods, csum, alpha)

    finite_bps = [1.0 / m for m in np.unique(mods) if m > 0]
    for v in np.unique(_old_round_sig(t.prefix)):
        if v > 0:
            finite_bps.append(1.0 / v)
    base_cap = max(finite_bps, default=1.0)
    alpha_cap = 2.0 * max(base_cap, alpha_star or 0.0, 1.0)
    grid = _old_alpha_grid(mods, t, alpha_cap)
    worst, failing, holds = 0.0, None, True
    for i, b in enumerate(grid):
        sum_abs = _old_chi_abs(mods, csum, b)
        right = rhs(b)
        b_next = grid[i + 1] if i + 1 < len(grid) else alpha_cap
        for left, right_val in [(b * sum_abs, right), (b_next * sum_abs, rhs(b_next) if use_mu else right)]:
            worst = max(worst, left / max(right_val, 1.0))
            if left > right_val + DERIVED_SLACK * (1.0 + right_val):
                holds = False
                failing = failing if failing is not None else b
    searched = holds and state == "fail"
    if searched:
        holds = False
        failing = _old_find_failure(lhs, rhs, base_cap)
        if failing is not None:
            worst = max(worst, lhs(failing) / max(rhs(failing), 1.0))
    elif holds and state == "ok" and total > 0.0:
        edge_rhs = rhs(alpha_cap)
        if lhs(alpha_cap) > edge_rhs + DERIVED_SLACK * (1.0 + edge_rhs):
            holds, failing = False, alpha_cap
    return crit.ConditionCheck(holds, worst, len(grid), failing), grid, alpha_cap, searched


# ---------------------------------------------------------------------------


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def _same_check(new, old) -> bool:
    return (
        new.holds == old.holds
        and new.witness_scale == old.witness_scale
        and np.array_equal(_bits(new.worst_ratio), _bits(old.worst_ratio))
        and (new.failing_alpha is None) == (old.failing_alpha is None)
        and (new.failing_alpha is None or _bits(new.failing_alpha) == _bits(old.failing_alpha))
    )


@st.composite
def eigenvalue_lists(draw):
    """Moduli in 1e-3..1e3 within two decades of each other (so the oracle's
    grid stays a few thousand points), real or complex, optionally closed by
    the value that cancels the total."""
    n = draw(st.integers(1, 7))
    base = draw(st.floats(-3.0, 1.0))
    expo = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    turns = st.floats(0.0, 2 * math.pi).map(lambda a: complex(math.cos(a), math.sin(a)))
    phases = draw(st.lists(st.sampled_from([1.0, -1.0]) | turns, min_size=n, max_size=n))
    vals = [10.0 ** (base + e) * z for e, z in zip(expo, phases)]
    if draw(st.booleans()):
        closing = -sum(vals)
        if 1e-3 <= abs(closing) <= 10.0 ** (base + 2.0):
            vals.append(closing)
    return EigenSequence.from_values(np.array(vals))


@settings(max_examples=40, deadline=None)
@given(eigenvalue_lists())
def test_batched_scan_matches_per_point_scan(lam):
    env = crit.condition3_witness(lam)
    t4 = crit.witness_3_to_4(crit.dominating_witness(lam, env))
    for t, use_mu, check in ((t4, False, crit.condition4_check), (t4.scaled(math.e), True, crit.condition5_check)):
        old_check, old_grid, old_cap, searched = _old_scan(lam, t, use_mu)
        assert not searched  # the witnesses the criterion builds always keep up
        levels, _, total = crit._chi_data(lam)
        grid, alpha_cap = crit._alpha_grid(levels, t, crit._alpha_star(t, total))
        assert np.array_equal(_bits(grid), _bits(old_grid))
        assert alpha_cap == old_cap
        # every per-alpha right side, batched and one at a time
        nxt = np.append(grid[1:], alpha_cap)
        counts = t.count_ge(1.0 / grid)
        assert np.array_equal(counts, [_old_count_ge(t, 1.0 / b) for b in old_grid])
        assert np.array_equal(counts, [t.count_ge(1.0 / b) for b in grid.tolist()])
        logs = t.sum_plog(nxt)
        assert np.array_equal(_bits(logs), _bits([_old_sum_plog(t, b) for b in nxt.tolist()]))
        assert np.array_equal(_bits(logs), _bits([t.sum_plog(b) for b in nxt.tolist()]))
        assert _same_check(check(lam, t), old_check)
        assert _same_check(check(lam, t), _full_grid_scan(lam, t, use_mu))


# the queries take the harmonic tail c/m only
tail_laws = st.builds(PowerTail, st.floats(1e-3, 1e3), st.just(1.0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e3), max_size=30),
    st.one_of(st.none(), tail_laws),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_batched_queries_match_scalar_arithmetic(values, tail, repeat, seed):
    prefix = np.sort(np.asarray(values, dtype=float))[::-1]
    if tail is not None and prefix.size:
        prefix = np.maximum(prefix, float(tail.value_at(prefix.size + 1)) * 1.01)
    t = ScalarSequence(prefix, tail, repeat)
    # enough scales per example that a last-bit difference of numpy's
    # vectorized log (about 1 value in 2000) would show
    alphas = 10.0 ** np.random.default_rng(seed).uniform(-4.0, 4.0, 400)
    assert np.array_equal(t.count_ge(1.0 / alphas), [_old_count_ge(t, 1.0 / a) for a in alphas.tolist()])
    assert np.array_equal(_bits(t.sum_plog(alphas)), _bits([_old_sum_plog(t, a) for a in alphas.tolist()]))


def test_prefix_rising_within_tolerance_keeps_masked_sums():
    # entries may rise by up to 1e-12 relative; alpha*p >= 1 then keeps a
    # non-leading subset at the scale that separates them
    p = 1.0 / 3.0
    t = ScalarSequence(np.array([2.0, p, p * (1 + 5e-13), 0.1]))
    alphas = np.array([1.0 / (p * (1 + 5e-13)), 1.0 / p, 3.0, 10.0, 0.7])
    assert np.array_equal(_bits(t.sum_plog(alphas)), _bits([_old_sum_plog(t, a) for a in alphas.tolist()]))


# t0 and its four-fold repeat at these scales: slopes r*c below, at and above
# the total, so the former scan's search and its alpha_cap check both run
HAND_SCALES = [0.05, 0.3, 1.0, math.e, 5.0]


@settings(max_examples=25, deadline=None)
@given(eigenvalue_lists())
@example(EigenSequence(np.array([2.0, 1.0], dtype=complex)))
def test_hand_built_witnesses_match_the_former_scan(lam):
    # where the search ran (a witness that cannot keep up whose grid passed),
    # the condition fails with the grid's worst ratio and no failing scale
    t0 = crit.dominating_witness(lam, crit.condition3_witness(lam))
    for t in (t0, crit.witness_3_to_4(t0)):
        for factor in HAND_SCALES:
            w = t.scaled(factor)
            for use_mu, check in ((False, crit.condition4_check), (True, crit.condition5_check)):
                new = check(lam, w)
                old, _, _, searched = _old_scan(lam, w, use_mu)
                assert _same_check(new, _full_grid_scan(lam, w, use_mu))
                if searched:
                    assert not new.holds and not old.holds and new.failing_alpha is None
                else:
                    assert _same_check(new, old)


def test_finite_witness_that_cannot_keep_up_fails_on_its_grid():
    # a finite witness with a nonzero total: the right side stops growing at
    # 10, which alpha * 3 passes only beyond alpha_cap = 2
    lam = EigenSequence(np.array([2.0, 1.0], dtype=complex))
    t = ScalarSequence.finite([3.0] * 10)
    for use_mu, check in ((False, crit.condition4_check), (True, crit.condition5_check)):
        new = check(lam, t)
        old, _, _, searched = _old_scan(lam, t, use_mu)
        assert searched and old.failing_alpha is not None
        assert not new.holds and new.failing_alpha is None
        assert new.witness_scale == old.witness_scale and new.worst_ratio <= old.worst_ratio


# ---------------------------------------------------------------------------
# the bracketed log side of condition (5): the full-grid scan is the oracle


def _full_grid_scan(lam, t, use_mu):
    """The batched scan with the exact right side at every grid scale."""
    levels, partial_abs, total = crit._chi_data(lam)
    alpha_star = crit._alpha_star(t, total)
    grid, alpha_cap = crit._alpha_grid(levels, t, alpha_star)
    grid_next = np.append(grid[1:], alpha_cap)
    sum_abs = crit._chi_abs(levels, partial_abs, grid)
    if use_mu:
        right_all = t.sum_plog(np.append(grid, alpha_cap))
        right, right_next = right_all[:-1], right_all[1:]
    else:
        right = right_next = np.asarray(t.count_ge(1.0 / grid), dtype=float)
    live = sum_abs > 0
    left = np.multiply(grid, sum_abs, out=np.zeros(grid.size), where=live)
    left_next = np.multiply(grid_next, sum_abs, out=np.zeros(grid.size), where=live)
    with np.errstate(invalid="ignore"):
        ratios = np.concatenate([left / np.maximum(right, 1.0), left_next / np.maximum(right_next, 1.0)])
    worst = float(np.fmax.reduce(ratios, initial=0.0))
    fails = crit.exceeds_scaled(left, right) | crit.exceeds_scaled(left_next, right_next)
    failing = float(grid[fails.argmax()]) if fails.any() else None
    return crit.ConditionCheck(alpha_star is not None and failing is None, worst, int(grid.size), failing)


def _witnesses(lam):
    """The witnesses of conditions (4) and (5), as commutator_membership builds them."""
    t4 = crit.witness_3_to_4(crit.dominating_witness(lam, crit.condition3_witness(lam)))
    return t4, t4.scaled(math.e)


# lists whose first failing check falls in the wide part while the worst
# ratio lies beyond it: the check is undecided there, not a worst candidate
_UNDECIDED_FIRST = [
    [3.8466619891209097 + 4.332859887053197j, -2.4415657619698297 - 1.6422089297476765j,
     0.24046819859545943 + 0.42826310631970055j, -0.2456083512390575, -0.10179630865580533,
     -0.020634200555522043 + 0.0730015488356967j],
    [-40.192494845551764, 40.15790199873085, -16.975373398037156 + 9.347687002538674j, 9.130188286088595,
     -3.9015369454728277, -2.4390007346643294 - 0.21042509909801985j],
]


@settings(max_examples=60, deadline=None)
@given(
    eigenvalue_lists(),
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([0.0, 0.5, 0.9]),
    st.sampled_from([math.e, 1.0, 0.3, 0.05]),
)
@example(EigenSequence.from_values(np.array(_UNDECIDED_FIRST[0])), 1.0, 0.9, 0.05)
@example(EigenSequence.from_values(np.array(_UNDECIDED_FIRST[1])), 1.0, 0.9, 0.05)
def test_any_sound_bracket_gives_the_exact_outcome(lam, shrink, wide_share, factor):
    # the choice of exact scales relies on lo <= sum_plog <= hi alone: other
    # sound brackets (scaled, or wide at the smaller scales, so that a check
    # there is undecided while the worst ratio lies beyond) give the same
    # result; witnesses scaled below e fail some checks before the worst ratio
    t5 = _witnesses(lam)[0].scaled(factor)
    exact_sum = ScalarSequence.sum_plog

    def loose(self, alpha):
        exact = exact_sum(self, alpha)
        hi = np.where(alpha < np.quantile(alpha, wide_share), exact + 1e3, np.maximum(exact / shrink, exact))
        return np.where(exact >= 0, exact * shrink, exact), hi

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScalarSequence, "sum_plog_bounds", loose)
        check = crit.condition5_check(lam, t5)
    assert _same_check(check, _full_grid_scan(lam, t5, True))


@st.composite
def extreme_eigenvalue_lists(draw):
    """eigenvalue_lists' shapes scaled by 1e-300..1e300, optionally closed by
    the value that cancels the total, exactly or up to a relative 1e-6 or
    1e-11 (a subnormal total at the smallest scales)."""
    n = draw(st.integers(1, 6))
    base = draw(st.floats(-3.0, 1.0))
    expo = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    turns = st.floats(0.0, 2 * math.pi).map(lambda a: complex(math.cos(a), math.sin(a)))
    phases = draw(st.lists(st.sampled_from([1.0, -1.0]) | turns, min_size=n, max_size=n))
    scale = draw(st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]))
    vals = [scale * 10.0 ** (base + e) * z for e, z in zip(expo, phases)]
    closer = draw(st.sampled_from([None, 0.0, 1e-6, 1e-11]))
    if closer is not None:
        vals.append(-sum(vals) * (1.0 - closer))
    return np.array(vals)


@settings(max_examples=80, deadline=None)
@given(extreme_eigenvalue_lists())
@example(np.array([1e-308, -9.9999999999e-309]))
def test_built_witnesses_always_keep_up(vals):
    # the scan decides on its grid, and needs no search past it, because the
    # witnesses the criterion builds have slope 4|S| and 4e|S|, above |S|:
    # their alpha_star exists.  It is finite wherever the criterion gets
    # through; the inputs that exit 3 first (condition (2), the envelope, or
    # the grid's breakpoint cap and closing scale, where a subnormal total
    # makes alpha_star inf) are left out of that check
    lam = EigenSequence.from_values(vals)
    try:
        witnesses = _witnesses(lam)
    except NumericalError:
        assume(False)
    stars = [crit._alpha_star(t, lam.net_total) for t in witnesses]
    assert None not in stars
    try:
        crit.commutator_membership(lam, IdealSpec.schatten(1))
    except NumericalError as exc:
        event(f"exits 3: {exc}")
        return
    assert all(math.isfinite(a) for a in stars)


# laws with the length of their witness prefix (the criterion takes 2,000
# terms; these keep the grid under the breakpoint cap and the oracle quick)
LAWS = [
    (EigenLaw(PowerTail(1.0, 0.5)), 300),
    (EigenLaw(PowerTail(1.0, 1.0), alternating=True), 300),
    (EigenLaw(PowerTail(2.0, 1.5)), 300),
    (EigenLaw(PowerTail(1.0, 1.5), alternating=True), 300),
    (EigenLaw(PowerTail(0.3, 3.0)), 30),
    (EigenLaw(GeometricTail(1.0, 0.5), alternating=True), 12),
    (EigenLaw(GeometricTail(5.0, 0.9)), 60),
]


def _law_id(x):
    if not isinstance(x, EigenLaw):
        return str(x)
    kind, shape = ("power", x.tail.a) if isinstance(x.tail, PowerTail) else ("geometric", x.tail.q)
    return f"{kind}-{shape}-{x.alternating}"


@pytest.mark.parametrize("law, terms", LAWS, ids=_law_id)
def test_law_witnesses_match_full_grid(law, terms):
    lam = EigenSequence(law.prefix_values(terms))
    _, t5 = _witnesses(lam)
    assert _same_check(crit.condition5_check(lam, t5), _full_grid_scan(lam, t5, True))


def _near_one_scales(q, rng, count):
    """Scales alpha with alpha*p within a few ulps of 1 for drawn entries p."""
    picks = 1.0 / rng.choice(q, count)
    steps = rng.integers(-4, 5, count)
    return np.array([np.nextafter(a, math.copysign(math.inf, j)) if j else a for a, j in zip(picks, steps)])


@st.composite
def bracket_cases(draw):
    """A witness with up to 2,000 prefix entries in 1e-12..1e12 (ties, entries
    rising within STORED_SLACK and trailing zeros possible), maybe a harmonic
    tail, repeated 1-4 times; and scales over its whole range, some with
    alpha*p within a few ulps of 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 7, 64, 500, 2000]))
    lo_exp = draw(st.floats(-12.0, 12.0))
    hi_exp = draw(st.floats(lo_exp, 12.0))
    prefix = np.sort(10.0 ** rng.uniform(lo_exp, hi_exp, n))[::-1]
    if n > 1:
        kind = draw(st.sampled_from(["plain", "ties", "rising"]))
        at = rng.integers(1, n, max(1, n // 8))
        if kind == "ties":
            prefix[at] = prefix[at - 1]
        elif kind == "rising":
            prefix[at] = prefix[at - 1] * (1 + 0.9 * STORED_SLACK)
    if n and draw(st.booleans()):
        prefix[-max(1, n // 10) :] = 0.0
    tail = None
    if draw(st.booleans()):
        last = prefix[-1] if n else 10.0 ** rng.uniform(-12.0, 12.0)
        if last > 0:
            tail = PowerTail(last * (n + 1) * rng.uniform(0.01, 1.0), 1.0)
    t = ScalarSequence(prefix, tail, draw(st.integers(1, 4)))
    q = prefix[prefix > 0]
    span = (-hi_exp - 1.0, -lo_exp + 1.0)
    scales = [10.0 ** rng.uniform(*span, 200)]
    if q.size:
        scales.append(_near_one_scales(q, rng, 100))
    return t, np.concatenate(scales)


@settings(max_examples=200, deadline=None)
@given(bracket_cases())
def test_sum_plog_bounds_bracket_the_exact_sum(case):
    t, alphas = case
    lo, hi = t.sum_plog_bounds(alphas)
    exact = t.sum_plog(alphas)
    assert (lo <= exact).all() and (exact <= hi).all()
    assert np.isfinite(hi).all()


def test_bracket_is_exact_where_no_entry_counts():
    t = ScalarSequence.finite([4.0, 2.0])
    lo, hi = t.sum_plog_bounds(np.array([0.1, 0.25 * (1 - 2.0**-40)]))
    assert lo.tolist() == [0.0, 0.0] and np.all(hi < 1e-12)


# ---------------------------------------------------------------------------
# the tail breakpoint cap: the earlier block enumeration is the oracle


def _block_alpha_grid(levels, t, alpha_star):
    finite = np.concatenate([levels, t.rounded_levels])
    with np.errstate(over="ignore"):
        finite = 1.0 / finite[finite > 0]
    finite = finite[np.isfinite(finite)]
    alpha_cap = 2.0 * max(float(finite.max()) if finite.size else 1.0, alpha_star or 0.0, 1.0)
    parts = [finite]
    if t.tail is not None:
        lo = t.base_length + 1
        end = lo + crit._MAX_TAIL_BREAKPOINTS
        size = 256
        while lo < end:
            v = np.asarray(t.tail.value_at(np.arange(lo, min(lo + size, end), dtype=float)))
            with np.errstate(divide="ignore"):
                pts = 1.0 / v
            beyond = (v <= 0) | (pts > alpha_cap)
            if beyond.any():
                parts.append(pts[: beyond.argmax()])
                break
            parts.append(pts)
            lo, size = lo + size, min(2 * size, 1 << 16)
        else:
            raise NumericalError("tail breakpoint enumeration exceeded its cap")
    grid = np.unique(np.concatenate(parts))
    grid = grid[grid <= alpha_cap]
    return (grid if grid.size else np.ones(1)), alpha_cap


@pytest.mark.parametrize(
    "witness",
    [
        ScalarSequence(np.empty(0), PowerTail(1.0, 1.0)),
        ScalarSequence(np.array([3.0, 2.0, 0.9]), PowerTail(math.e * 0.7, 1.0), 4),
    ],
    ids=["bare", "prefix-repeat"],
)
@pytest.mark.parametrize("side", [-1, 1], ids=["last-below-cap", "last-above-cap"])
def test_tail_cap_boundary_matches_block_enumeration(witness, side):
    levels = np.array([0.5, 1.0])
    last = witness.base_length + crit._MAX_TAIL_BREAKPOINTS
    last_pt = 1.0 / float(witness.tail.value_at(np.array([float(last)]))[0])
    # alpha_cap = 2 * alpha_star: the cap one step above or below the last breakpoint
    alpha_cap = np.nextafter(last_pt, -side * math.inf)
    alpha_star = float(alpha_cap) / 2.0
    if side < 0:
        with pytest.raises(NumericalError, match="^tail breakpoint enumeration exceeded its cap$"):
            _block_alpha_grid(levels, witness, alpha_star)
        with pytest.raises(NumericalError, match="^tail breakpoint enumeration exceeded its cap$"):
            crit._alpha_grid(levels, witness, alpha_star)
        return
    old_grid, old_cap = _block_alpha_grid(levels, witness, alpha_star)
    grid, cap = crit._alpha_grid(levels, witness, alpha_star)
    assert cap == old_cap == alpha_cap
    assert grid.size >= crit._MAX_TAIL_BREAKPOINTS - 1
    assert np.array_equal(_bits(grid), _bits(old_grid))


# ---------------------------------------------------------------------------
# inputs that took 13-73 s with the per-point scan, and the power law a = 1.5
# (10 s with the exact log side at every grid scale): canonical JSON pinned
# from those implementations (SHA-256 of the `criterion --ideal schatten:p=1`
# document)

KNOWN_SLOW = [
    ({"kind": "finite", "values": [1.0, 1e-5]}, "2570bbabf7a5a622ca99b8fcb3093124de9c7a4b917ff530df6a01df0fbf5e52"),
    ({"kind": "finite", "values": [3.0, 2.0, 1e-4]}, "4478bfbb113abdd54655b5c67cee6f01f993e241b57037686a034fc3486c39b0"),
    ({"kind": "power", "c": 1.0, "a": 1.0}, "9326dc13247dbe94c4e3d61baf295f9d4f3d751eeeda34a11b8d07b010ee401a"),
    ({"kind": "power", "c": 1.0, "a": 1.5}, "2a989333f3329f5ea046f9e6456c2a06be56f5697a79a0c8704128885156389c"),
    (
        {"kind": "power", "c": 1.0, "a": 1.5, "alternating": True},
        "881e66a649e5a3f1a48e92a32df1038c85dbca1f618aef59c78835acc25f9858",
    ),
]


def _criterion(tmp_path, doc, capsys):
    import json

    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    code = cli.main(["criterion", "-i", str(src), "--ideal", "schatten:p=1", "-o", str(out)])
    text = out.read_bytes() if out.exists() else b""
    return code, text, capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, digest", KNOWN_SLOW, ids=["1-1e-5", "3-2-1e-4", "power-a1", "power-a1.5", "power-a1.5-alternating"]
)
def test_known_slow_inputs_keep_their_documents(tmp_path, capsys, doc, digest):
    code, text, _ = _criterion(tmp_path, doc, capsys)
    assert code == 0
    assert hashlib.sha256(text).hexdigest() == digest


def test_log_side_takes_few_exact_scales(tmp_path, capsys, monkeypatch):
    # condition (5) of power a = 1.5 brackets 1,250,552 grid scales; the exact
    # prefix log-sum over all of them took 8.5 s.  It may run at a handful only.
    scales = []
    exact = ScalarSequence._prefix_plog

    def counted(self, alpha):
        scales.append(alpha.size)
        return exact(self, alpha)

    monkeypatch.setattr(ScalarSequence, "_prefix_plog", counted)
    code, _, _ = _criterion(tmp_path, {"kind": "power", "c": 1.0, "a": 1.5}, capsys)
    assert code == 0
    assert 0 < sum(scales) <= 64


def test_breakpoint_cap_is_still_the_documented_limit(tmp_path, capsys):
    code, text, err = _criterion(tmp_path, {"kind": "finite", "values": [1.0, 1e-6]}, capsys)
    assert code == 3 and text == b""
    assert err.strip() == "numerical failure: tail breakpoint enumeration exceeded its cap"
