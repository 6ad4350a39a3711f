"""Sequence models of operator ideals and the transforms the membership
criterion is built from.

Ideal membership is decided analytically for symbolic decay laws and for
finite prefixes with exact closed-form tails; plain finite sequences with
zero tails are always members.  The transforms are the Cesàro-mean sequence
(with its exact harmonic tail |total|/m), the nonincreasing max-envelope,
running geometric means, and the dyadic series envelope used to witness
geometric stability of quasi-Banach ideals.

Membership of the rearranged Cesàro sequence (condition (2)) costs one sort
of its prefix plus one batched tail count: O(n log n) in the prefix length.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .sequences import (
    _BLOCK,
    DERIVED_SLACK,
    POWER_SUM_OVERFLOW,
    FactorialPowerTail,
    GeometricTail,
    PowerTail,
    ScalarSequence,
    _map,
    log_factorials,
    prefix_power_sum,
    require_finite,
    round_sig,
)
from .spectral import EigenSequence

__all__ = [
    "IdealSpec",
    "MembershipVerdict",
    "EigenLaw",
    "CesaroSequence",
    "membership",
    "cesaro_sequence",
    "cesaro_membership",
    "max_envelope",
    "geometric_mean_seq",
    "dyadic_series_envelope",
    "check_geometric_stability",
    "StabilityReport",
]

IN = "In"
OUT = "Out"


@dataclass(frozen=True)
class IdealSpec:
    """A parametric ideal family with analytic membership rules.

    ``schatten`` requires a p-summable sequence, ``weaklp`` a bounded
    n^{1/p} s_n.  Both carry complete quasi-norms, hence are geometrically
    stable, which is the hypothesis of the commutator-subspace criterion.
    """

    family: str
    p: float

    def __post_init__(self):
        if self.family not in ("schatten", "weaklp"):
            raise ValueError(f"unknown ideal family {self.family!r}")
        if not (0 < self.p < math.inf):
            raise ValueError(f"{self.family} requires finite p > 0")

    @classmethod
    def schatten(cls, p: float) -> "IdealSpec":
        return cls("schatten", p)

    @classmethod
    def weak_lp(cls, p: float) -> "IdealSpec":
        return cls("weaklp", p)

    @classmethod
    def parse(cls, text: str) -> "IdealSpec":
        """Parse 'schatten:p=<v>' or 'weaklp:p=<v>': p is the one key, and
        <v> a plain decimal (digits with an optional point, then an optional
        exponent)."""
        family, _, value = text.partition(":p=")
        if not re.fullmatch(r"[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?", value):
            raise ValueError(f"cannot parse ideal spec {text!r}")
        return cls(family.strip().lower(), float(value))

    @property
    def quasi_norm_exponent(self) -> float:
        """The r in the r-norm triangle inequality; min(p, 1) for both families."""
        return min(self.p, 1.0)


@dataclass(frozen=True)
class MembershipVerdict:
    status: str  # In | Out: both ideal families always get a verdict
    scale: int = 0  # prefix length examined for the evidence
    evidence: dict = field(default_factory=dict)

    @property
    def is_in(self) -> bool:
        return self.status == IN


def membership(s: ScalarSequence, ideal: IdealSpec) -> MembershipVerdict:
    """Decide whether diag(s) belongs to the ideal.

    Exact for every supported tail law; finite sequences (zero tail) are
    always members, with the partial quasi-norm carried as evidence.
    """
    if ideal.family == "schatten":  # schatten_sum and weak_sup are finite or math.inf
        total = s.schatten_sum(ideal.p)
        return MembershipVerdict(IN if math.isfinite(total) else OUT, s.base_length, {"p_sum": total})
    sup = s.weak_sup(ideal.p)
    return MembershipVerdict(IN if math.isfinite(sup) else OUT, s.base_length, {"weak_sup": sup})


@functools.lru_cache
def _eta_or_zeta(a: float, zeta: bool) -> float:
    """eta(a) = 1 - 2^-a + 3^-a - ... for a > 0, or zeta(a) = eta(a)/(1 - 2^(1-a))
    for a > 1, rounded once to a float from 40 digits.

    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier ("Convergence
    acceleration of alternating series", Experimental Math. 9, 2000) on 41
    terms: the (k+1)^-a are totally monotone, so the truncation error is below
    2/(3+sqrt 8)^41 < 1e-31 of eta.  Each law's limit is computed once.
    """
    import decimal

    with decimal.localcontext(decimal.Context(prec=40)):
        D = decimal.Decimal
        n = 41
        x = [D(1)]  # (k+1)^-a: a power at each prime, a product of two earlier terms elsewhere
        for m in range(2, n + 1):
            p = next(p for p in range(2, m + 1) if m % p == 0)
            x.append(D(m) ** -D(a) if p == m else x[p - 1] * x[m // p - 1])
        d = (3 + D(8).sqrt()) ** n
        d = (d + 1 / d) / 2
        b, c, s = D(-1), -d, D(0)
        for k in range(n):
            c = b - c
            s += c * x[k]
            b = b * ((k + n) * (k - n) * 2) / ((2 * k + 1) * (k + 1))
        eta = s / d
        return float(eta / (1 - 2 * x[1]) if zeta else eta)


@dataclass(frozen=True)
class EigenLaw:
    """Symbolic eigenvalue sequence lambda_n = sign_n * tail(n), with a
    closed-form partial-sum limit.

    The tail is c * n^(-a) or c * q^n, and sign_n alternates (+,-,+,...)
    when ``alternating`` is set.
    """

    tail: PowerTail | GeometricTail
    alternating: bool = False

    def prefix_values(self, n: int) -> np.ndarray:
        vals = self.tail.value_range(0, n)
        if self.alternating:  # negating is exact: the floats of vals * (+1, -1, ...)
            np.negative(vals[1::2], out=vals[1::2])
        return vals

    def partial_sum_limit(self) -> float | None:
        """Limit of lambda_1 + ... + lambda_n, or None when divergent."""
        t = self.tail
        if isinstance(t, GeometricTail):
            if self.alternating:
                return t.c * t.q / (1 + t.q)
            return t.c * t.q / (1 - t.q)
        if self.alternating:
            return t.c * _eta_or_zeta(t.a, False)
        if t.a > 1:
            return t.c * _eta_or_zeta(t.a, True)
        return None


@dataclass(frozen=True)
class CesaroSequence:
    """Cesàro-mean sequence c_n = |lambda_1 + ... + lambda_n| / n.

    The stored prefix keeps the raw (not rearranged) order; ``tail`` is the
    law of the entries beyond the prefix — exact (|total|/m) for finite
    eigenvalue data, asymptotic for symbolic laws.  ``tail_exact`` records
    which.  Membership tests are rearrangement-invariant and work on the
    multiset prefix + tail directly.
    """

    prefix: np.ndarray
    tail: PowerTail | None
    tail_exact: bool
    log_tail_coefficient: float | None = None  # c_n ~ coeff * ln n / n


def cesaro_sequence(lam, prefix_length: int = 10**6) -> CesaroSequence:
    """Cesàro means of an eigenvalue sequence (finite or symbolic).

    Finite input: prefix of length n plus the exact tail |S_n|/m (zero when
    the values cancel).  Symbolic input: prefix of ``prefix_length`` terms
    plus the asymptotic tail law implied by the partial-sum model.
    """
    if isinstance(lam, EigenSequence):
        total = lam.net_total
        return CesaroSequence(lam.cesaro_means, PowerTail(total, 1.0) if total else None, True)
    if isinstance(lam, EigenLaw):
        # taken before the 10^6-term prefix arrays exist, which an underflow never allocates
        limit = lam.partial_sum_limit()
        if limit == 0:  # the limit is positive, so 0 is an underflow, not finite support
            raise NumericalError("the partial-sum limit of the eigenvalue law underflows to 0")
        vals = lam.prefix_values(prefix_length)
        prefix = np.cumsum(vals, out=vals)  # in place, like abs and the divide
        np.abs(prefix, out=prefix)
        for b in range(0, prefix_length, _BLOCK):  # the positions a block at a time
            prefix[b : b + _BLOCK] /= np.arange(b + 1, min(b + _BLOCK, prefix_length) + 1, dtype=float)
        if limit is not None:
            return CesaroSequence(prefix, PowerTail(abs(limit), 1.0), False)
        # positive power law with a <= 1: partial sums diverge
        tail = lam.tail
        if tail.a == 1.0:
            return CesaroSequence(prefix, None, False, log_tail_coefficient=tail.c)
        return CesaroSequence(prefix, PowerTail(tail.c / (1.0 - tail.a), tail.a), False)
    raise TypeError(f"unsupported eigenvalue input {type(lam).__name__}")


def _weak_sup_multiset(prefix: np.ndarray, tail: PowerTail | None, p: float, limit: float) -> float:
    """sup_n n^{1/p} v*_n for the decreasing rearrangement of prefix + tail.

    Uses sup_x x * N(x)^{1/p} with N the counting function of the multiset;
    candidates are the positive prefix values and a window of 2,000 positive
    tail values, and ``limit`` is the analytic x -> 0 limit of the tail regime.
    N takes one sort of the prefix and one batched tail count, so the cost is
    O(n log n) in the prefix length n.  N(x)^{1/p} is Python's ** (libm's
    pow) on the integer counts.
    """
    n = prefix.size
    cands = np.unique(prefix[prefix > 0])
    if tail is not None:
        window = tail.value_range(n, n + 2000)
        cands = np.concatenate([cands, np.unique(window[window > 0])])
    counts = n - np.searchsorted(np.sort(prefix), cands)  # #{prefix >= x}
    if tail is not None:
        counts = counts + tail.count_ge(cands, n)
    return float(np.fmax.reduce(cands * _map(lambda k: k ** (1.0 / p), counts), initial=limit))


def cesaro_membership(ces: CesaroSequence, ideal: IdealSpec) -> MembershipVerdict:
    """Membership of the (rearranged) Cesàro sequence in the ideal."""
    n = int(ces.prefix.size)
    tail, p = ces.tail, ideal.p
    evidence: dict = {}
    if tail is not None:
        evidence["tail_coefficient"] = tail.c
        evidence["tail_exponent"] = tail.a
    if n:
        evidence["n_times_c_at_scale"] = float(ces.prefix[-1] * n)

    if ces.log_tail_coefficient is not None:
        # c_n ~ coeff * ln n / n: p-summable iff p > 1; weak-type iff p > 1
        evidence["log_tail_coefficient"] = ces.log_tail_coefficient
        return MembershipVerdict(IN if p > 1 else OUT, n, evidence)

    # a tail c * m^(-a) is weak-lp iff a*p >= 1 and p-summable iff a*p > 1;
    # no tail (a cancelling total) leaves finite support, always a member
    ap = math.inf if tail is None else round_sig(tail.a * p)
    if ideal.family == "weaklp":
        # x * N(x)^{1/p} -> c from below in the tail regime when a*p = 1
        sup = math.inf if ap < 1 else _weak_sup_multiset(ces.prefix, tail, p, tail.c if ap == 1 else 0.0)
        evidence["weak_sup"] = sup
        return MembershipVerdict(IN if tail is None or math.isfinite(sup) else OUT, n, evidence)
    if ap <= 1:
        evidence["p_sum"] = math.inf
        return MembershipVerdict(OUT, n, evidence)
    if tail is not None and ces.tail_exact:
        tail_sum = tail.schatten_sum(p, n)
        evidence["p_sum"] = require_finite(prefix_power_sum(ces.prefix, p) + tail_sum, POWER_SUM_OVERFLOW)
    else:
        evidence["p_sum" if tail is None else "p_sum_prefix"] = prefix_power_sum(ces.prefix, p)
    return MembershipVerdict(IN, n, evidence)


def max_envelope(lam: EigenSequence) -> ScalarSequence:
    """Nonincreasing envelope u_n = max over m >= n of the Cesàro means.

    For a finite sequence the supremum over the zero-padded tail is exact:
    beyond the stored length the means are |S_N|/m, whose supremum over
    m > N is |S_N|/(N+1), and the envelope continues as exactly |S_N|/m.
    """
    means, total = lam.cesaro_means, lam.net_total
    n = means.size
    # suffix maximum of the stored means, then the tail supremum
    env = np.maximum.accumulate(means[::-1])[::-1]
    env = np.maximum(env, total / (n + 1))
    tail = PowerTail(total, 1.0) if total > 0 else None
    return ScalarSequence(env, tail)


def geometric_mean_seq(s: ScalarSequence) -> ScalarSequence:
    """Running geometric means t_n = (s_1 ... s_n)^(1/n).

    Computed in log space for finite input (zeros propagate: once some
    s_k = 0, every later t_n = 0); exact law transforms for symbolic input:
    a power law maps to c*(n!)^(-a/n) and a geometric law stays geometric
    with ratio sqrt(q).
    """
    if s.repeat != 1:
        raise NotImplementedError("geometric means of repeated sequences")
    if s.tail is None:
        vals = s.prefix
        out = np.zeros_like(vals)
        pos = vals > 0
        k = int(np.argmin(pos)) if not pos.all() else vals.size
        if k:
            logs = np.cumsum(np.log(vals[:k]))
            out[:k] = np.exp(logs / np.arange(1, k + 1))
        return ScalarSequence(out)
    if s.prefix.size == 0 and isinstance(s.tail, PowerTail):
        return ScalarSequence(np.empty(0), FactorialPowerTail(s.tail.c, s.tail.a))
    if s.prefix.size == 0 and isinstance(s.tail, GeometricTail):
        rq = math.sqrt(s.tail.q)
        return ScalarSequence(np.empty(0), GeometricTail(s.tail.c * rq, rq))
    raise NotImplementedError("geometric means of mixed prefix+tail sequences")


def dyadic_series_envelope(s: ScalarSequence, theta: float, length: int = 4096) -> np.ndarray:
    """Envelope u_n = sum over k >= 0 of 2^(-theta k) s_{n/2^k}.

    Indices follow the fractional convention (position ceil(n/2^k)); once
    n/2^k drops below 1 the remaining terms all equal s_1 and are added as a
    closed-form geometric tail.  Returns the first ``length`` values, which
    are nonincreasing, or NumericalError when one passes the float range.

    ``s`` is evaluated once, over positions 1..length (plus s_1 for the
    tail).  Level k adds 2^(-theta k) times head entry j to the 2^k positions
    that take it, broadcast over a (rows, 2^k) view of the output; it stops
    past the last nonzero head entry, beyond which it would add +0.0.  The
    tail term is constant on each dyadic block [2^(j-1), 2^j).  The levels
    are summed in order k = 0, 1, ..., then the tail, so the floats equal
    those of one ``s.value`` call per level.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    head = s.head(length)
    # one past the last nonzero entry (a stored prefix may rise by STORED_SLACK after a zero)
    live = length - int(np.argmax(head[::-1] != 0)) if length else 0
    out = np.zeros(length, dtype=float)
    k = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # the result is checked once
        while (1 << k) <= length:
            step = 1 << k
            w = 2.0 ** (-theta * k)
            # position n >= step takes entry ceil(n/step): 0-based, out[i] gets head[i // step]
            end = min(length, live * step)
            rows = end // step
            out[step - 1] += w * head[0]  # the first block from n = step on
            whole = out[step : rows * step].reshape(rows - 1, step)  # blocks 1..rows-1, a view
            # under 8 columns the add runs faster down the rows (order F)
            np.add(whole, (w * head[1:rows])[:, None], out=whole, order="F" if step < 8 else "K")
            if rows * step < end:
                out[rows * step : end] += w * head[rows]
            k += 1
        s1 = float(s.value(1))
        # tail: first k with 2^k > n is floor(log2 n) + 1 = j on the block [2^(j-1), 2^j)
        k0 = np.arange(1, k + 1, dtype=float)
        block = s1 * 2.0 ** (-theta * k0) / (1.0 - 2.0**-theta)
        for j, value in enumerate(block.tolist()):
            out[(1 << j) - 1 : (2 << j) - 1] += value
    return require_finite(out, "the dyadic series envelope of a sequence overflows the float range")


@functools.lru_cache(maxsize=4)
def _chain_factor(theta: float, n_max: int) -> np.ndarray:
    """2^theta n^theta (n!)^(-theta/n) for n = 1..n_max, read-only: it
    depends on theta = 2/min(p, 1) and n_max alone, so each pair is built once."""
    n = np.arange(1, n_max + 1, dtype=float)
    factor = np.exp(theta * (math.log(2.0) + np.log(n) - log_factorials(n_max) / n))
    factor.flags.writeable = False
    return factor


@dataclass(frozen=True)
class StabilityReport:
    """Geometric-stability check: membership of the running geometric means,
    with the dyadic-envelope witnesses for quasi-Banach families."""

    input_verdict: MembershipVerdict
    mean_verdict: MembershipVerdict
    theta: float
    empirical_constant: float
    proof_constant: float
    chain_holds: bool
    worst_chain_margin: float
    n_checked: int


def check_geometric_stability(
    s: ScalarSequence, ideal: IdealSpec, n_max: int = 100_000
) -> StabilityReport:
    """Verify that diag(t) stays in the ideal when diag(s) is in it.

    Witnesses the proof path: the dyadic envelope u with theta = 2/r
    dominates t up to the factor 2^theta n^theta (n!)^(-theta/n) <= (2e)^theta,
    and the empirical sup t_n/u_n is reported alongside the proof bound.  The
    chain is pointwise, so an input outside the ideal gets it and both
    verdicts too.
    """
    theta = 2.0 / ideal.quasi_norm_exponent
    try:  # the chain factor stays below (2e)^theta, so this one check covers it
        proof_c = (2.0 * math.e) ** theta
    except OverflowError:
        raise NumericalError(
            "the chain constant (2e)^theta, theta = 2/min(p, 1), overflows the float range"
        ) from None
    verdict_in = membership(s, ideal)
    t = geometric_mean_seq(s)
    t_vals = t.head(n_max)  # before membership, which then reuses a power law's means
    verdict_t = membership(t, ideal)
    u_vals = dyadic_series_envelope(s, theta, n_max)
    ratio = np.divide(t_vals, u_vals, out=np.zeros_like(t_vals), where=u_vals > 0)
    empirical = float(np.max(ratio)) if n_max else 0.0
    # the displayed comparison t_n <= 2^theta n^theta (n!)^(-theta/n) u_n
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _chain_factor(theta, n_max) * u_vals
        margin = t_vals - bound
        bound += 1.0
        margin /= bound
    # where the bound passed the float range the margin is nan (-inf/inf), and
    # (t - B)/(B + 1) would round to -1: fmax skips it, and no margin is below -1
    worst = float(np.fmax.reduce(margin, initial=-1.0))
    return StabilityReport(
        input_verdict=verdict_in,
        mean_verdict=verdict_t,
        theta=theta,
        empirical_constant=empirical,
        proof_constant=proof_c,
        chain_holds=bool(worst <= DERIVED_SLACK),
        worst_chain_margin=worst,
        n_checked=n_max,
    )
