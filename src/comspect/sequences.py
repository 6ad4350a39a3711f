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

The tail laws' special functions, log-gamma at integer positions
(`gammaln`, with the shared `log_factorials` table) and the Hurwitz zeta,
are in-module ports of the cephes routines behind scipy.special.gammaln and
scipy.special.zeta.  They repeat cephes' operations one for one and give
scipy's bits, so this module needs numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError

__all__ = [
    "PowerTail",
    "GeometricTail",
    "FactorialPowerTail",
    "ScalarSequence",
    "frac_index",
    "log_factorials",
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


# cephes' constants of lgam (gammaln) and zeta (hurwitz_zeta)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # lgam overflows beyond this
_LGAM_A = (  # the Stirling correction below x = 1000, highest power first
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_MACHEP = 1.11022302462515654042e-16
_ZETA_A = (  # (2k)! / B_2k, the Euler-Maclaurin coefficients
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)


def gammaln(x):
    """log Gamma(x) = log((x-1)!), bit for bit as scipy.special.gammaln.

    The domain is integer-valued x >= 1: every caller passes tail positions,
    and other x get wrong values.  A call whose positions all lie in the
    log_factorials table is one gather from it; any other call evaluates
    cephes lgam (_lgam) at every position.  Its logs come from math.log, the
    C library's log that cephes calls, because numpy's vectorized log
    differs from it in the last bit on some inputs.  Table and formula give
    the same bits, so the result does not depend on how far the table is
    filled.
    """
    x = np.asarray(x, dtype=float)
    table = _log_factorials
    if table is not None and x.max(initial=0.0) <= table.size:
        return table[(x - 1).astype(np.intp)]
    return _lgam(x.reshape(-1)).reshape(x.shape)[()]


def _lgam(x: np.ndarray) -> np.ndarray:
    """cephes lgam over a 1-D array of integers x >= 1.

    Below 13 it is the log of the exact product (x-1)!; above, Stirling's
    series with a correction term up to x = 1e8 and none beyond, and inf
    past _MAXLGM.  The + - * / steps run on arrays, since each is correctly
    rounded; the logs are math.log's (see gammaln).
    """
    small = x < 13.0
    z = x.copy()
    z[small] = [math.factorial(int(u) - 1) for u in x[small].tolist()]  # exact
    logs = _map(math.log, z)
    with np.errstate(over="ignore"):  # beyond _MAXLGM, where the result is inf
        q = (x - 0.5) * logs - x + _LS2PI
    near = x <= 1e8
    xn = x[near]
    p = 1.0 / (xn * xn)
    series = _LGAM_A[0] * p + _LGAM_A[1]  # Horner, as cephes polevl
    for coef in _LGAM_A[2:]:
        series = series * p + coef
    far = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333)
    q[near] += np.where(xn >= 1000.0, far, series) / xn
    q[x > _MAXLGM] = math.inf
    return np.where(small, logs, q)


def hurwitz_zeta(x: float, q: float) -> float:
    """The Hurwitz zeta sum over k >= 0 of (k + q)**-x, for x > 1 and q >= 1,
    as scipy.special.zeta(x, q): cephes zeta in Python floats, with the C
    library's pow behind ** as in cephes.

    Euler-Maclaurin: sum the first terms until one falls below MACHEP of the
    sum (at least 9 of them, and up to k + q > 9), then add the integral, the
    half term and up to 12 Bernoulli corrections.  For q > 1e8 the two-term
    asymptotic expansion.  A sum that underflows to 0 takes the same steps
    as in C, where the ratio tests see NaN and fail.
    """
    q = float(q)
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q**-x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if s != 0 and abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if s != 0 and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


_log_factorials = None  # log(m!) for m = 0..n, filled by log_factorials()


def log_factorials(n: int) -> np.ndarray:
    """log(m!) = gammaln(m + 1) for m = 1..n, as a read-only array.

    One table serves every caller: it holds log(m!) from m = 0, fills on
    first use, is rebuilt only when a larger n is asked for (the largest is
    kept), and a smaller n gets a slice of it.  Its entries are _lgam's own,
    so log_factorials(n) / m has the bits of gammaln(m + 1) / m.
    """
    global _log_factorials
    if _log_factorials is None or _log_factorials.size <= n:
        table = _lgam(np.arange(1, n + 2, dtype=float))
        table.flags.writeable = False
        _log_factorials = table
    return _log_factorials[1 : n + 1]


_BLOCK = 1 << 16  # elements per block of the passes over long arrays, which bounds their temporaries


def round_sig(x):
    """Round to ROUND_DIGITS significant decimal digits (elementwise, monotone).

    Arrays longer than _BLOCK go through in blocks.  The pre-scale branch is
    then chosen per block, which keeps the bits: its factor 1.0 is exact.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size > _BLOCK:
        flat = arr.reshape(-1)
        out = np.empty_like(flat)
        for b in range(0, flat.size, _BLOCK):
            out[b : b + _BLOCK] = round_sig(flat[b : b + _BLOCK])
        return out.reshape(arr.shape)
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
    """fn applied to the elements of a 1-D array as Python scalars, through
    one list of at most _BLOCK of them at a time."""
    if values.size <= _BLOCK:
        return np.fromiter(map(fn, values.tolist()), dtype=float, count=values.size)
    out = np.empty(values.size)
    for b in range(0, values.size, _BLOCK):
        out[b : b + _BLOCK] = _map(fn, values[b : b + _BLOCK])
    return out


POWER_SUM_OVERFLOW = "the p-th power sum of a sequence overflows the float range"
WEAK_SUP_OVERFLOW = "the weak-lp supremum of a sequence overflows the float range"


def require_finite(value, message: str):
    """value (a float or an array), or NumericalError(message) when it holds
    a non-finite float: a divergent sum or supremum is math.inf by decision
    and never reaches this check."""
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise NumericalError(message)
    return value


def _floor_index(v: np.ndarray) -> np.ndarray:
    """floor(v) robust to values sitting one ulp below an integer; 0 for v < 0.

    Elementwise over a 1-D array, with math.floor's exact integers: int64,
    or Python integers (object dtype) from 2**53 on, so that the sums and
    repeat multiples the counts go into cannot wrap around.
    """
    require_finite(v, "a tail position bound (c/x or alpha*c) overflows the float range")
    lifted = np.where(v < 0, 0.0, round_sig(v) + DERIVED_SLACK)
    if lifted.max(initial=0.0) < 2.0**53:  # np.floor is exact, and so is the cast
        return np.floor(lifted).astype(np.int64)
    return np.array([math.floor(u) for u in lifted.tolist()], dtype=object)


def prefix_power_sum(values: np.ndarray, p: float) -> float:
    """np.sum(values**p), or NumericalError when that arithmetic overflows:
    numpy's flag, which on a finite prefix is a non-finite sum, and which a
    prefix already holding inf does not raise."""
    try:
        with np.errstate(over="raise"):
            return float(np.sum(values**p))
    except FloatingPointError:
        raise NumericalError(POWER_SUM_OVERFLOW) from None


def _pow(x: float, y: float) -> float:
    """x**y with Python's float pow, but inf where that raises OverflowError
    (numpy's pow gives inf there), for the sums and suprema require_finite
    checks."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _weak_sup_of(n: np.ndarray, values: np.ndarray, p: float) -> float:
    """max of n^(1/p) * values over the positive values (n^(1/p) may
    overflow where a value has underflowed to 0)."""
    with np.errstate(over="ignore"):
        powers = n ** (1.0 / p)
    return float(np.max(np.multiply(powers, values, out=np.zeros(values.size), where=values > 0)))


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

    def value_range(self, start: int, stop: int) -> np.ndarray:
        """value_at over m = start+1..stop, computed in the positions' own buffer."""
        m = np.arange(start + 1, stop + 1, dtype=float)
        m **= -self.a
        m *= self.c
        return m

    def count_ge(self, x: np.ndarray, start: int) -> np.ndarray:
        """#{m > start : value(m) >= x} per threshold of a 1-D array of
        positive thresholds (no scalar form, no x <= 0)."""
        bound = _map(lambda u: u ** (1.0 / self.a), self.c / x)
        return np.maximum(_floor_index(bound) - start, 0)

    def schatten_sum(self, p: float, start: int) -> float:
        ap = round_sig(self.a * p)
        if ap <= 1:
            return math.inf
        return require_finite(_pow(self.c, p) * hurwitz_zeta(self.a * p, start + 1), POWER_SUM_OVERFLOW)

    def weak_sup(self, p: float, start: int) -> float:
        ap = round_sig(self.a * p)
        if ap < 1:
            return math.inf
        if ap == 1:
            return self.c
        m = start + 1
        return require_finite(_pow(m, 1.0 / p) * self.c * _pow(m, -self.a), WEAK_SUP_OVERFLOW)


@dataclass(frozen=True)
class GeometricTail:
    """Tail law value(m) = c * q**m with 0 < q < 1."""

    c: float
    q: float

    def __post_init__(self):
        if not (self.c > 0 and 0 < self.q < 1):
            raise ValueError("geometric tail requires c > 0 and 0 < q < 1")

    def value_at(self, m):
        """c * q**m, with pow called only where m <= 1100 / -log2(q).

        Beyond that cut m * -log2(q) > 1100, so q**m < 2**-1100, far below
        half the smallest subnormal (2**-1075); rounding the cut moves it by
        a few ulps, nowhere near the 25 bits to spare.  The nearest float to
        q**m is then +0, and the nearest nonzero one, 2**-1074, is more than
        0.99 ulp away, so any pow within that accuracy returns +0 there and
        c * (+0) = +0 for the finite c > 0.  Skipping those calls skips
        libm's slow underflow path (at q = 0.45 pow runs at 954 of the first
        10**5 positions), and every value keeps its bits.
        """
        m = np.asarray(m, dtype=float)
        return self.c * np.power(self.q, m, out=np.zeros(m.shape), where=m <= self._cut())

    def _cut(self) -> float:
        return 1100.0 / -math.log2(self.q)

    def value_range(self, start: int, stop: int) -> np.ndarray:
        """value_at over m = start+1..stop, computed in the positions' own
        buffer: pow up to the cut, +0 past it, then the factor c."""
        m = np.arange(start + 1, stop + 1, dtype=float)
        k = int(np.searchsorted(m, self._cut(), side="right"))  # m <= cut on m[:k]
        np.power(self.q, m[:k], out=m[:k])
        m[k:] = 0.0
        m *= self.c
        return m

    def schatten_sum(self, p: float, start: int) -> float:
        qp = self.q**p
        return require_finite(_pow(self.c, p) * qp ** (start + 1) / (1 - qp), POWER_SUM_OVERFLOW)

    def weak_sup(self, p: float, start: int) -> float:
        # maximize m^(1/p) * c * q^m over integer m > start
        m_star = -1.0 / (p * math.log(self.q))
        cands = {start + 1, max(start + 1, math.floor(m_star)), max(start + 1, math.ceil(m_star))}
        return require_finite(max(_pow(m, 1.0 / p) * self.c * self.q**m for m in cands), WEAK_SUP_OVERFLOW)


@dataclass(frozen=True)
class FactorialPowerTail:
    """Tail law value(m) = c * (m!)**(-a/m), the running geometric mean of c*n^-a.

    Sandwiched between c*m^-a and c*(e/m)^a, so ideal membership matches the
    plain power law of the same exponent except at the weak-type boundary,
    where the supremum is c*e^a (finite).
    """

    c: float
    a: float
    _last_range: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.c > 0 and self.a > 0):
            raise ValueError("factorial power tail requires c > 0 and a > 0")

    def value_at(self, m):
        m = np.asarray(m, dtype=float)
        return self.c * np.exp(-self.a * gammaln(m + 1) / m)

    def value_range(self, start: int, stop: int) -> np.ndarray:
        """value_at over m = start+1..stop, with log(m!) from the shared
        log_factorials(stop) array and the steps after it in the positions'
        buffer: the same floats, no second gammaln pass.

        The result is read-only, and the instance keeps the last one: a call
        inside that range is a slice of it, so a stability check computes its
        geometric means once for the head and the membership sums.
        """
        if self._last_range:
            lo, hi, vals = self._last_range
            if lo <= start and stop <= hi:
                return vals[start - lo : stop - lo]
        vals = np.arange(start + 1, stop + 1, dtype=float)
        np.divide(-self.a * log_factorials(stop)[start:], vals, out=vals)
        np.exp(vals, out=vals)
        vals *= self.c
        vals.flags.writeable = False
        self._last_range[:] = (start, stop, vals)
        return vals

    def schatten_sum(self, p: float, start: int) -> float:
        ap = round_sig(self.a * p)
        if ap <= 1:
            return math.inf
        # value <= c * (e/m)^a, so bound via the Hurwitz zeta of the majorant
        head = prefix_power_sum(self.value_range(start, start + 100000), p)
        n, s = start + 100001, self.a * p
        lead = _pow(self.c * _pow(math.e, self.a), p)
        if math.isfinite(lead):
            tail = lead * hurwitz_zeta(s, n)
        else:  # e^a past the float range: zeta(s, n) <= n^-s (1 + n/(s-1)), multiplied in logs
            tail = _pow(math.e, p * (math.log(self.c) + self.a) - s * math.log(n) + math.log1p(n / (s - 1)))
        return require_finite(head + tail, POWER_SUM_OVERFLOW)

    def weak_sup(self, p: float, start: int) -> float:
        ap = round_sig(self.a * p)
        if ap < 1:
            return math.inf
        if ap == 1:
            return require_finite(self.c * _pow(math.e, self.a), WEAK_SUP_OVERFLOW)  # m^a/(m!)^(a/m) increases to e^a
        m = np.arange(start + 1, start + 10001, dtype=float)
        return require_finite(_weak_sup_of(m, self.value_range(start, start + 10000), p), WEAK_SUP_OVERFLOW)


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
        if self.tail is not None and arr.size:  # a bare law has no junction
            junction = float(np.asarray(self.tail.value_at(arr.size + 1)))
            if exceeds(junction, arr[-1], DERIVED_SLACK):
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
        """First n entries, materialized: the floats of value(1..n), with the
        tail evaluated once per base position and then replayed."""
        nb = -(-n // self.repeat)  # base positions 1..nb cover 1..n
        k = min(nb, self.prefix.size)
        out = np.zeros(nb)
        out[:k] = self.prefix[:k]
        if self.tail is not None and nb > k:
            out[k:] = self.tail.value_range(k, nb)
        return out if self.repeat == 1 else np.repeat(out, self.repeat)[:n]

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
        m_top = _floor_index(lead).astype(float)  # exact below 2**53
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
        """sum of value(n)**p over the whole sequence: math.inf when the tail's
        sum diverges, NumericalError when a convergent one passes the float
        range."""
        tail = 0.0 if self.tail is None else self.tail.schatten_sum(p, self.prefix.size)
        if tail == math.inf:
            return math.inf
        return require_finite(self.repeat * (prefix_power_sum(self.prefix, p) + tail), POWER_SUM_OVERFLOW)

    def weak_sup(self, p: float) -> float:
        """sup_n n^(1/p) * value(n) over the whole sequence: math.inf when the
        tail's supremum diverges, NumericalError when a finite one passes the
        float range."""
        sup = 0.0
        if self.prefix.size:
            sup = _weak_sup_of(self.repeat * np.arange(1, self.prefix.size + 1), self.prefix, p)
        if self.tail is not None:
            t = self.tail.weak_sup(p, self.prefix.size)
            if t == math.inf:
                return math.inf
            sup = max(sup, _pow(self.repeat, 1.0 / p) * t)
        return require_finite(sup, WEAK_SUP_OVERFLOW)

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
