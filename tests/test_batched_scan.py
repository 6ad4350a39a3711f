"""The batched alpha scan against the per-point scan it replaced.

The oracle below is the earlier implementation, one scale at a time: scalar
rounding, a Python set of breakpoints, and a loop of endpoint checks.  The
batched scan must reproduce its grid, every right side and every
ConditionCheck bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from comspect import cli
from comspect import criterion as crit
from comspect.errors import NumericalError
from comspect.sequences import DERIVED_SLACK, PowerTail, ScalarSequence
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


def _old_scan(lam, t, use_mu):
    """(ConditionCheck, grid, alpha_cap) of the per-point scan."""
    mods = _old_round_sig(lam.moduli)
    csum = np.cumsum(lam.values) if lam.values.size else np.zeros(0, complex)
    scale = float(np.sum(lam.moduli))
    total = abs(complex(csum[-1])) if csum.size else 0.0
    if scale > 0 and total <= 1e-12 * scale:
        total = 0.0
    state, alpha_star = crit._tail_slope_state(t, total)

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
    if holds and state == "fail":
        holds = False
        failing = crit._find_failure(lhs, rhs, base_cap)
        if failing is not None:
            worst = max(worst, lhs(failing) / max(rhs(failing), 1.0))
    elif holds and state == "ok" and total > 0.0:
        edge_rhs = rhs(alpha_cap)
        if lhs(alpha_cap) > edge_rhs + DERIVED_SLACK * (1.0 + edge_rhs):
            holds, failing = False, alpha_cap
    return crit.ConditionCheck(holds, worst, len(grid), failing), grid, alpha_cap


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
        old_check, old_grid, old_cap = _old_scan(lam, t, use_mu)
        levels, _, total = crit._chi_data(lam)
        _, alpha_star = crit._tail_slope_state(t, total)
        grid, _, alpha_cap = crit._alpha_grid(levels, t, alpha_star)
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


def test_failing_state_search_matches():
    # a finite witness with a nonzero total: the right side eventually loses
    lam = EigenSequence(np.array([2.0, 1.0], dtype=complex))
    t = ScalarSequence.finite([3.0, 3.0, 1.0])
    for use_mu, check in ((False, crit.condition4_check), (True, crit.condition5_check)):
        assert _same_check(check(lam, t), _old_scan(lam, t, use_mu)[0])


# ---------------------------------------------------------------------------
# the tail breakpoint cap: the earlier block enumeration is the oracle


def _block_alpha_grid(levels, t, alpha_star):
    finite = np.concatenate([levels, t.rounded_levels])
    with np.errstate(over="ignore"):
        finite = 1.0 / finite[finite > 0]
    finite = finite[np.isfinite(finite)]
    base_cap = float(finite.max()) if finite.size else 1.0
    alpha_cap = 2.0 * max(base_cap, alpha_star or 0.0, 1.0)
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
    return (grid if grid.size else np.ones(1)), base_cap, alpha_cap


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
    old_grid, old_base, old_cap = _block_alpha_grid(levels, witness, alpha_star)
    grid, base_cap, cap = crit._alpha_grid(levels, witness, alpha_star)
    assert cap == old_cap == alpha_cap and base_cap == old_base
    assert grid.size >= crit._MAX_TAIL_BREAKPOINTS - 1
    assert np.array_equal(_bits(grid), _bits(old_grid))


# ---------------------------------------------------------------------------
# inputs that took 13-73 s with the per-point scan: canonical JSON pinned
# from that implementation (SHA-256 of the `criterion --ideal schatten:p=1`
# document)

KNOWN_SLOW = [
    ({"kind": "finite", "values": [1.0, 1e-5]}, "2570bbabf7a5a622ca99b8fcb3093124de9c7a4b917ff530df6a01df0fbf5e52"),
    ({"kind": "finite", "values": [3.0, 2.0, 1e-4]}, "4478bfbb113abdd54655b5c67cee6f01f993e241b57037686a034fc3486c39b0"),
    ({"kind": "power", "c": 1.0, "a": 1.0}, "9326dc13247dbe94c4e3d61baf295f9d4f3d751eeeda34a11b8d07b010ee401a"),
]


def _criterion(tmp_path, doc, capsys):
    import json

    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    code = cli.main(["criterion", "-i", str(src), "--ideal", "schatten:p=1", "-o", str(out)])
    text = out.read_bytes() if out.exists() else b""
    return code, text, capsys.readouterr().err


@pytest.mark.parametrize("doc, digest", KNOWN_SLOW, ids=["1-1e-5", "3-2-1e-4", "power-a1"])
def test_known_slow_inputs_keep_their_documents(tmp_path, capsys, doc, digest):
    code, text, _ = _criterion(tmp_path, doc, capsys)
    assert code == 0
    assert hashlib.sha256(text).hexdigest() == digest


def test_breakpoint_cap_is_still_the_documented_limit(tmp_path, capsys):
    code, text, err = _criterion(tmp_path, {"kind": "finite", "values": [1.0, 1e-6]}, capsys)
    assert code == 3 and text == b""
    assert err.strip() == "numerical failure: tail breakpoint enumeration exceeded its cap"
