"""The in-module special functions against their oracles, bit for bit.

`sequences.gammaln` and `sequences.hurwitz_zeta` port the cephes routines
behind `scipy.special.gammaln` and `scipy.special.zeta`, so scipy stays the
oracle here: every comparison is byte for byte.  The Schatten-sum pins were
computed with scipy's own functions.  `ideals._eta_or_zeta`, the power laws'
partial-sum limits, has mpmath as its oracle.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from comspect import sequences
from comspect.ideals import _eta_or_zeta
from comspect.sequences import FactorialPowerTail, PowerTail, gammaln, hurwitz_zeta, log_factorials

EDGES = [1, 2, 12, 13, 14, 999, 1000, 1001, 1e8 - 1, 1e8, 1e8 + 1, 2.0**53, 2.0**53 + 2]
EDGES += [1.34e154, 1.35e154, 2.556348e305, np.nextafter(2.556348e305, math.inf), 1e306, 1.7e308]


def _same_bytes(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (bad.size, got.ravel()[bad[:5]], want.ravel()[bad[:5]])


def _positions():
    rng = np.random.default_rng(20251019)
    return np.concatenate(
        [
            np.arange(1, 2_000_001, dtype=float),
            np.floor(10.0 ** rng.uniform(0, 306, 300_000)),
            EDGES,
        ]
    )


@pytest.fixture()
def empty_table(monkeypatch):
    monkeypatch.setattr(sequences, "_log_factorials", None)


class TestGammaln:
    def test_equals_scipy_with_the_table_empty(self, empty_table):
        x = _positions()
        with np.errstate(all="raise"):
            got = gammaln(x)
        _same_bytes(got, special.gammaln(x))
        assert sequences._log_factorials is None

    def test_equals_scipy_with_the_table_filled(self, empty_table):
        log_factorials(100_000)
        inside = np.arange(1, 100_002, dtype=float)[::-1]
        with np.errstate(all="raise"):
            got_inside, got_all = gammaln(inside), gammaln(_positions())
        _same_bytes(got_inside, special.gammaln(inside))
        _same_bytes(got_all, special.gammaln(_positions()))

    def test_table_entries(self, empty_table):
        n = 2_000_000
        with np.errstate(all="raise"):
            table = log_factorials(n)
        _same_bytes(table, special.gammaln(np.arange(2, n + 2, dtype=float)))
        _same_bytes(sequences._log_factorials[:1], [0.0])  # log(0!), so x = 1 is read too

    def test_overflow_is_inf(self, empty_table):
        top = np.nextafter(2.556348e305, math.inf)
        assert math.isfinite(gammaln(2.556348e305)) and gammaln(top) == math.inf

    @pytest.mark.parametrize("filled", [False, True])
    @pytest.mark.parametrize(
        "x",
        [1, 13, 1000, 2**53, 5.0, np.float64(1e8 + 1), np.array(17.0), np.arange(1.0, 7.0).reshape(2, 3), np.empty(0)],
        ids=repr,
    )
    def test_scalar_and_array_arguments(self, empty_table, filled, x):
        if filled:
            log_factorials(100)
        got, want = gammaln(x), special.gammaln(x)
        assert type(got) is type(want)
        _same_bytes(got, want)


def _zeta_grid():
    rng = np.random.default_rng(20251019)
    xs = np.concatenate([rng.uniform(1.0, 15.0, 3_000), [1 + 2.0**-40, 1.0000001, 2.0, 3.0, 64.0, 100.0, 700.0, 1e4]])
    qs = [1, 2, 31, 100_001, 100_000_000, 100_000_005, 1e12]
    return [(float(x), q) for q in qs for x in xs]


class TestHurwitzZeta:
    def test_equals_scipy(self):
        got = [hurwitz_zeta(x, q) for x, q in _zeta_grid()]
        want = [special.zeta(x, q) for x, q in _zeta_grid()]
        _same_bytes(got, want)

    def test_underflowing_sum(self):
        # 100001**-100 underflows to 0: the C ratio tests see 0/0 and fail
        assert hurwitz_zeta(100.0, 100_001) == special.zeta(100.0, 100_001) == 0.0


# schatten_sum(p, start) as computed with scipy.special.zeta and gammaln
SCHATTEN_PINS = [
    (PowerTail, (1.0, 1.5, 1.0, 0), "0x1.4e6250bfbd89dp+1"),
    (PowerTail, (1.0, 3.0, 0.5, 0), "0x1.4e6250bfbd89dp+1"),
    (PowerTail, (2.5, 0.75, 2.0, 7), "0x1.23f506f038f0ep+2"),
    (PowerTail, (1.0, 1.0, 1.5, 2000), "0x1.6e4fc44353fa6p-5"),
    (PowerTail, (0.3, 50.0, 2.0, 0), "0x1.70a3d70a3d70ap-4"),
    (PowerTail, (1.0, 1.2, 1.0, 99_999_999), "0x1.0137988227c24p-3"),
    (PowerTail, (1.0, 1.2, 1.0, 100_000_004), "0x1.01379857005dbp-3"),
    (FactorialPowerTail, (1.0, 1.5, 1.0, 0), "0x1.6ec32447011f3p+2"),
    (FactorialPowerTail, (1.0, 3.0, 0.5, 0), "0x1.6ec32447011f3p+2"),
    (FactorialPowerTail, (2.5, 0.75, 2.0, 7), "0x1.1b3bbed1a384ap+4"),
    (FactorialPowerTail, (1.0, 1.0, 1.5, 2000), "0x1.99e86a4b189dep-3"),
    (FactorialPowerTail, (0.3, 50.0, 2.0, 0), "0x1.70a3d70a3d710p-4"),
]


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("law, args, pin", SCHATTEN_PINS, ids=lambda v: getattr(v, "__name__", repr(v)))
def test_schatten_sum_pins(monkeypatch, filled, law, args, pin):
    monkeypatch.setattr(sequences, "_log_factorials", None)
    if filled:
        log_factorials(200_000)
    c, a, p, start = args
    assert law(c, a).schatten_sum(p, start).hex() == pin


def _mpmath_limit(a, zeta, dps):
    with mpmath.workdps(dps):  # 15 digits: mpmath's default 53 bits
        return float(mpmath.zeta(a) if zeta else mpmath.altzeta(a))


class TestEtaZeta:
    """eta(a) and zeta(a) are the 40-digit sums rounded once: mpmath's float
    wherever that float is correctly rounded, and 60-digit mpmath rounded
    once everywhere."""

    # at 53 bits mpmath returns ln 2 for eta(a) with 0 < |a - 1| below ~1e-11
    EDGES = [math.nextafter(1.0, -math.inf), math.nextafter(1.0, math.inf), 1 - 1e-12, 1 + 1e-12]
    EDGES += [1e-8, 0.5, 1.0, 2.0, 709.0, 800.0, 1e4]

    def test_equals_mpmath(self):
        rng = np.random.default_rng(20261020)
        uniform = 15.0 - rng.uniform(0.0, 14.99, 1000)  # (0.01, 15]
        log_uniform = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 1000))
        for a in uniform.tolist() + log_uniform.tolist() + self.EDGES:
            for zeta in (False, True) if a > 1 else (False,):
                got = _eta_or_zeta.__wrapped__(a, zeta)  # uncached
                assert got == _mpmath_limit(a, zeta, 60), (a, zeta)
                if abs(a - 1) > 1e-10:
                    assert got == _mpmath_limit(a, zeta, 15), (a, zeta)

    def test_known_values(self):
        assert _eta_or_zeta(1.0, False) == math.log(2)
        assert _eta_or_zeta(2.0, True) == math.pi**2 / 6
        assert _eta_or_zeta(2.0, False) == math.pi**2 / 12
        assert _eta_or_zeta(0.5, False).hex() == "0x1.35b54665c805ap-1"
