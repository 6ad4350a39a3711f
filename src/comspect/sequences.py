"""Nonincreasing scalar sequences with exact analytic tails.

A sequence here models the singular values of a diagonal operator: a finite
stored prefix followed by an optional closed-form tail (power decay c*n^-a,
geometric decay c*q^n, or the running geometric mean of a power law,
c*(n!)^(-a/n)).  A `repeat` factor models k-fold direct sums, where every
entry of the base sequence appears k times in a row.

All threshold counts go through 12-significant-digit rounding so that
breakpoint scans (values and their reciprocals travelling through floats)
are stable across platforms.

The counting and log-sum queries `count_ge` and `sum_plog` take the one
witness shape of the membership criterion: a finite sequence, or one with
the harmonic tail c/m.  `harmonic_coefficient` decides it, and any other
tail raises ValueError.  They take a scalar or a 1-D array of thresholds
(scales), so an alpha scan evaluates its whole breakpoint grid in one call.
Array and scalar calls share one implementation and agree bit for bit: the
closed forms apply math.floor and math.log per element (numpy's vectorized
log differs from math.log in the last bit on some inputs), and each prefix
log-sum is one 1-D numpy sum.  `sum_plog_bounds` brackets `sum_plog` in
O(log prefix) per scale, for alpha scans that need few exact prefix sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError

__all__ = [
    "PowerTail",
    "GeometricTail",
    "FactorialPowerTail",
    "ScalarSequence",
    "frac_index",
    "merge_decreasing",
    "round_sig",
]

ROUND_DIGITS = 12

# The package's comparison slacks: every tolerance comparison calls exceeds()
# or exceeds_scaled() below, or names one of these constants.
STORED_SLACK = 1e-12  # relative, between stored values: prefix order, dominations, cancelled totals
DERIVED_SLACK = 1e-9  # relative, for computed sides: alpha scans, functional bounds, floor lifts
TINY = 1e-300  # absolute floor: a comparison against zero needs a real excess


def exceeds(a, b, rel=STORED_SLACK):
    """a > b * (1 + rel) + TINY, elementwise."""
    return a > b * (1 + rel) + TINY


def exceeds_scaled(a, b):
    """a > b + DERIVED_SLACK * (1 + |b|), elementwise."""
    return a > b + DERIVED_SLACK * (1 + abs(b))


PLOG_SAFETY = 64.0  # sum_plog_bounds' radius over u(k+1)(B+1); its derivation needs 20


def gammaln(x):
    """scipy.special.gammaln, imported on the first call.

    scipy.special takes about 0.3 s to import and most commands never reach
    a tail law that needs it.  The import rebinds this module-level name to
    the ufunc itself, so later calls (hundreds of thousands in an alpha scan)
    pay nothing for the deferral.
    """
    global gammaln
    from scipy.special import gammaln

    return gammaln(x)


def round_sig(x):
    """Round to ROUND_DIGITS significant decimal digits (elementwise, monotone)."""
    arr = np.asarray(x, dtype=float)
    out = arr.copy()
    nz = (arr != 0) & np.isfinite(arr)
    if np.any(nz):
        vals = arr[nz]
        shift = ROUND_DIGITS - 1 - np.floor(np.log10(np.abs(vals)))
        if np.maximum.reduce(shift) <= 308:
            scale = 10.0**shift
            out[nz] = np.round(vals * scale) / scale
        else:  # below ~1e-297 the scale 10**shift overflows: apply 1e300 of it first
            pre = np.where(shift > 308, 1e300, 1.0)
            scale = 10.0 ** np.where(shift > 308, shift - 300, shift)
            out[nz] = np.round(vals * pre * scale) / scale / pre
    return out if out.ndim else float(out)


def _batched(query):
    """Give a query written for a 1-D float array of thresholds (or scales)
    a scalar form too, which returns a Python scalar."""

    @functools.wraps(query)
    def batched(self, x, *args):
        out = query(self, np.atleast_1d(np.asarray(x, dtype=float)), *args)
        return out if np.ndim(x) else out.tolist()[0]

    return batched


def _map(fn, values: np.ndarray) -> np.ndarray:
    """fn applied to the elements of a 1-D array as Python scalars."""
    return np.array([fn(u) for u in values.tolist()], dtype=float)


def _floor_index(v: np.ndarray) -> np.ndarray:
    """floor(v) robust to values sitting one ulp below an integer; 0 for v < 0.

    Elementwise over a 1-D array, with math.floor's exact integers: int64,
    or Python integers (object dtype) from 2**53 on, so that the sums and
    repeat multiples the counts go into cannot wrap around.
    """
    if not np.isfinite(v).all():
        raise NumericalError("a tail position bound (c/x or alpha*c) overflows the float range")
    lifted = np.where(v < 0, 0.0, round_sig(v) + DERIVED_SLACK)
    if lifted.max(initial=0.0) < 2.0**53:  # np.floor is exact, and so is the cast
        return np.floor(lifted).astype(np.int64)
    return np.array([math.floor(u) for u in lifted.tolist()], dtype=object)


@dataclass(frozen=True)
class PowerTail:
    """Tail law value(m) = c * m**(-a) for positions m beyond the prefix."""

    c: float
    a: float

    def __post_init__(self):
        if not (self.c > 0 and self.a > 0):
            raise ValueError("power tail requires c > 0 and a > 0")

    def value_at(self, m):
        m = np.asarray(m, dtype=float)
        return self.c * m ** (-self.a)

    @_batched
    def count_ge(self, x: np.ndarray, start: int) -> np.ndarray:
        """#{m > start : value(m) >= x} per threshold (1-D); inf where x <= 0."""
        live = ~(x <= 0)
        bound = _map(lambda u: u ** (1.0 / self.a), self.c / np.where(live, x, 1.0))
        count = np.maximum(_floor_index(bound) - start, 0)
        return count if live.all() else np.where(live, count, math.inf)

    def schatten_sum(self, p: float, start: int) -> float:
        ap = round_sig(self.a * p)
        if ap <= 1:
            return math.inf
        from scipy.special import zeta as hurwitz_zeta

        return self.c**p * float(hurwitz_zeta(self.a * p, start + 1))

    def weak_sup(self, p: float, start: int) -> float:
        ap = round_sig(self.a * p)
        if ap < 1:
            return math.inf
        if ap == 1:
            return self.c
        m = start + 1
        return m ** (1.0 / p) * self.c * m ** (-self.a)


@dataclass(frozen=True)
class GeometricTail:
    """Tail law value(m) = c * q**m with 0 < q < 1."""

    c: float
    q: float

    def __post_init__(self):
        if not (self.c > 0 and 0 < self.q < 1):
            raise ValueError("geometric tail requires c > 0 and 0 < q < 1")

    def value_at(self, m):
        m = np.asarray(m, dtype=float)
        return self.c * self.q**m

    def schatten_sum(self, p: float, start: int) -> float:
        qp = self.q**p
        return self.c**p * qp ** (start + 1) / (1 - qp)

    def weak_sup(self, p: float, start: int) -> float:
        # maximize m^(1/p) * c * q^m over integer m > start
        m_star = -1.0 / (p * math.log(self.q))
        cands = {start + 1, max(start + 1, math.floor(m_star)), max(start + 1, math.ceil(m_star))}
        return max(m ** (1.0 / p) * self.c * self.q**m for m in cands)


@dataclass(frozen=True)
class FactorialPowerTail:
    """Tail law value(m) = c * (m!)**(-a/m), the running geometric mean of c*n^-a.

    Sandwiched between c*m^-a and c*(e/m)^a, so ideal membership matches the
    plain power law of the same exponent except at the weak-type boundary,
    where the supremum is c*e^a (finite).
    """

    c: float
    a: float

    def __post_init__(self):
        if not (self.c > 0 and self.a > 0):
            raise ValueError("factorial power tail requires c > 0 and a > 0")

    def value_at(self, m):
        m = np.asarray(m, dtype=float)
        return self.c * np.exp(-self.a * gammaln(m + 1) / m)

    def schatten_sum(self, p: float, start: int) -> float:
        ap = round_sig(self.a * p)
        if ap <= 1:
            return math.inf
        from scipy.special import zeta as hurwitz_zeta

        # value <= c * (e/m)^a, so bound via the Hurwitz zeta of the majorant
        m = np.arange(start + 1, start + 100001, dtype=float)
        head = float(np.sum(self.value_at(m) ** p))
        tail = (self.c * math.e**self.a) ** p * float(
            hurwitz_zeta(self.a * p, start + 100001)
        )
        return head + tail

    def weak_sup(self, p: float, start: int) -> float:
        ap = round_sig(self.a * p)
        if ap < 1:
            return math.inf
        if ap == 1:
            return self.c * math.e**self.a  # m^a/(m!)^(a/m) increases to e^a
        m = np.arange(start + 1, start + 10001, dtype=float)
        return float(np.max(m ** (1.0 / p) * self.value_at(m)))


Tail = PowerTail | GeometricTail | FactorialPowerTail


@dataclass(frozen=True)
class ScalarSequence:
    """Nonincreasing nonnegative sequence: finite prefix plus optional tail.

    ``value(n)`` for n beyond the prefix comes from the tail law (or is 0);
    ``repeat`` replays each base entry that many times (k-fold direct sum).
    """

    prefix: np.ndarray
    tail: Tail | None = None
    repeat: int = 1

    def __post_init__(self):
        arr = np.asarray(self.prefix, dtype=float)
        object.__setattr__(self, "prefix", arr)
        if arr.ndim != 1:
            raise ValueError("prefix must be one-dimensional")
        if arr.size and (np.any(arr < 0) or not np.all(np.isfinite(arr))):
            raise ValueError("prefix entries must be finite and nonnegative")
        if arr.size > 1 and np.any(np.diff(arr) > STORED_SLACK * (1 + arr[:-1])):
            raise ValueError("prefix must be nonincreasing")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if self.tail is not None:
            junction = float(np.asarray(self.tail.value_at(arr.size + 1)))
            floor = arr[-1] if arr.size else math.inf
            if exceeds(junction, floor, DERIVED_SLACK):
                raise ValueError("tail start exceeds last prefix entry")

    # -- constructors -------------------------------------------------

    @classmethod
    def finite(cls, values) -> "ScalarSequence":
        return cls(np.asarray(values, dtype=float))

    @classmethod
    def power_law(cls, c: float, a: float) -> "ScalarSequence":
        return cls(np.empty(0), PowerTail(c, a))

    @classmethod
    def geometric_law(cls, c: float, q: float) -> "ScalarSequence":
        return cls(np.empty(0), GeometricTail(c, q))

    # -- positional access --------------------------------------------

    @property
    def base_length(self) -> int:
        return int(self.prefix.size)

    def value(self, n):
        """Entry at 1-based position n (scalar or array)."""
        n = np.asarray(n)
        if np.any(n < 1):
            raise ValueError("positions are 1-based")
        base = np.ceil(n / self.repeat).astype(np.int64)
        out = np.zeros(base.shape, dtype=float)
        np_len = self.prefix.size
        in_prefix = base <= np_len
        if np_len:
            out[in_prefix] = self.prefix[base[in_prefix] - 1]
        if self.tail is not None:
            beyond = ~in_prefix
            if np.any(beyond):
                out[beyond] = self.tail.value_at(base[beyond])
        return out if out.ndim else float(out)

    def head(self, n: int) -> np.ndarray:
        """First n entries, materialized."""
        return np.asarray(self.value(np.arange(1, n + 1)))

    # -- aggregates (all exact, tails in closed form) ------------------

    @functools.cached_property
    def rounded_levels(self) -> np.ndarray:
        """The 12-digit rounded prefix entries, ascending (computed once)."""
        return np.sort(round_sig(self.prefix))

    def harmonic_coefficient(self) -> float | None:
        """The coefficient c of the tail c/m, or None for a finite sequence.

        The counting and log-mass queries take only these two shapes, the
        shapes of every witness built from Cesàro means: any other tail
        raises ValueError, and a PowerTail counts as harmonic only with
        a == 1.0 exactly.
        """
        tail = self.tail
        if tail is None:
            return None
        if isinstance(tail, PowerTail) and tail.a == 1.0:
            return tail.c
        raise ValueError("witness must be finite or have a harmonic tail c/m")

    @_batched
    def count_ge(self, x: np.ndarray) -> np.ndarray:
        """#{n : value(n) >= x} per threshold, with 12-digit rounding at the
        threshold (scalar or 1-D x)."""
        if np.any(x <= 0):
            raise ValueError("threshold must be positive")
        c = self.harmonic_coefficient()
        levels = self.rounded_levels
        cnt = levels.size - np.searchsorted(levels, round_sig(x))
        if c is not None:  # c/m >= x for m <= c/x
            with np.errstate(over="ignore"):  # c/x beyond the float range raises NumericalError
                cnt = cnt + np.maximum(_floor_index(c / x) - self.prefix.size, 0)
        return self.repeat * cnt

    @_batched
    def sum_plog(self, alpha: np.ndarray) -> np.ndarray:
        """sum of log_+(alpha * value(n)) over all n per scale (scalar or 1-D)."""
        return self.repeat * (self._prefix_plog(alpha) + self._harmonic_plog(alpha))

    def sum_plog_bounds(self, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) with lo <= sum_plog(alpha) <= hi per scale of a 1-D array
        alpha > 0, in O(log prefix) per scale; the tail term is sum_plog's own.

        The prefix term P sums np.log(fl(alpha*p)) over the entries with
        fl(alpha*p) >= 1, i.e. alpha*p >= 1 - u/2 (u = 2**-53): the K largest.
        k >= K counts p >= fl((1 - 8u)/alpha); the k - K others have
        |log(alpha*p)| <= 9.2u.  C = k*log(alpha) + L[k], L the cumsum of the
        logs of the positive entries largest first; B = k*(|log alpha| + max
        |log p|) bounds the k terms.  With np.log within 4 ulps, a term of P
        errs by u*(1.02 + 8.01*|log(alpha*p)|) (the product's rounding, then
        the log), their sum in any order (pairwise too) by gamma_(K-1) times
        its size, ~1.03kuB, and C (two logs, a product, L's sequential cumsum,
        one add) by ~u*(10.2B + 1.03kB).  So |P - C| <= u*(10.3k + 18.3B +
        2.06kB) <= 20u(k+1)(B+1), which grows like k^2.  The radius
        PLOG_SAFETY*u*(k+1)*(B+1) leaves a surplus for rounding B, the radius
        and C -+ radius; P >= 0 clamps lo.  Where alpha*max(p) overflows or the
        cut is not a normal float, the bracket is (0, inf).
        """
        q = np.sort(self.prefix[self.prefix > 0])
        logs = np.log(q[::-1])
        with np.errstate(over="ignore", invalid="ignore"):
            cut = (1 - 8 * 2.0**-53) / alpha
            k = q.size - np.searchsorted(q, cut)
            live = (cut >= 2.0**-1022) & np.isfinite(alpha * q.max(initial=1.0))
            log_a = np.log(alpha)
            centre = k * log_a + np.cumsum(np.append(0.0, logs))[k]
            mass = k * (np.abs(log_a) + np.abs(logs).max(initial=0.0))  # B
            radius = PLOG_SAFETY * 2.0**-53 * (k + 1) * (mass + 1)
            lo = np.where(live, np.maximum(centre - radius, 0.0), 0.0)
            hi = np.where(live, centre + radius, math.inf)
        tail = self._harmonic_plog(alpha)
        return self.repeat * (lo + tail), self.repeat * (hi + tail)

    def _harmonic_plog(self, alpha: np.ndarray):
        """The tail term of sum_plog: log(alpha*c/m) summed over the tail
        positions n < m <= alpha*c (0.0 for a finite sequence)."""
        c = self.harmonic_coefficient()
        if c is None:
            return 0.0
        n = self.prefix.size
        with np.errstate(over="ignore"):  # an overflowing alpha*c raises NumericalError
            lead = alpha * c
        m_top = _floor_index(lead).astype(float)  # gammaln takes no Python ints; exact below 2**53
        live = m_top > n
        log_lead = _map(math.log, np.where(live, lead, 1.0))
        tail = (m_top - n) * log_lead - (gammaln(m_top + 1) - gammaln(n + 1))
        return np.where(live, tail, 0.0)

    def _prefix_plog(self, alpha: np.ndarray) -> np.ndarray:
        """Per scale, np.sum of log(alpha * p) over the prefix entries p with alpha * p >= 1,
        in storage order (condition (5) needs it only where sum_plog_bounds cannot decide)."""
        pos = self.prefix[self.prefix > 0]
        sums = [np.sum(np.log(vals[vals >= 1])) for vals in (a * pos for a in alpha.tolist())]
        return np.array(sums, dtype=float)

    def schatten_sum(self, p: float) -> float:
        s = float(np.sum(self.prefix**p))
        if self.tail is not None:
            s += self.tail.schatten_sum(p, self.prefix.size)
        return self.repeat * s

    def weak_sup(self, p: float) -> float:
        """sup_n n^(1/p) * value(n) over the whole sequence."""
        sup = 0.0
        if self.prefix.size:
            n = self.repeat * np.arange(1, self.prefix.size + 1)
            sup = float(np.max(n ** (1.0 / p) * self.prefix))
        if self.tail is not None:
            t = self.tail.weak_sup(p, self.prefix.size)
            sup = max(sup, self.repeat ** (1.0 / p) * t)
        return sup

    # -- transforms ----------------------------------------------------

    def scaled(self, factor: float) -> "ScalarSequence":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        tail = self.tail
        if tail is not None:
            tail = replace(tail, c=tail.c * factor)
        return ScalarSequence(self.prefix * factor, tail, self.repeat)

    def repeated(self, k: int) -> "ScalarSequence":
        return replace(self, repeat=self.repeat * k)


def frac_index(s: ScalarSequence, r: float) -> float:
    """Entry at fractional position r: s_r = s_r for integer r, else s_{[r]+1}.

    Both cases collapse to position ceil(r).  Positions beyond a finite
    sequence return 0.
    """
    if r <= 0:
        raise ValueError("fractional index must be positive")
    return float(s.value(int(math.ceil(r))))


def merge_decreasing(a: ScalarSequence, b: ScalarSequence) -> ScalarSequence:
    """Nonincreasing rearrangement of the multiset union of two sequences.

    Supported exactly for finite sequences (the sequence model of a direct
    sum); k-fold self-merges should use ``ScalarSequence.repeated``.
    """
    if a.tail is not None or b.tail is not None:
        raise NotImplementedError("merge of sequences with analytic tails")
    va = np.repeat(a.prefix, a.repeat)
    vb = np.repeat(b.prefix, b.repeat)
    merged = np.sort(np.concatenate([va, vb]))[::-1]
    return ScalarSequence(merged)
