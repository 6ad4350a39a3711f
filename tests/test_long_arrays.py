"""The long arrays of `stability` and of the law inputs, bit for bit.

`ScalarSequence.head`, `GeometricTail.value_at`, `EigenLaw.prefix_values`,
`cesaro_sequence` and the shared log-factorial array each compute their
floats in fewer passes than before.  The oracles below are the former
implementations, copied here, and every comparison is byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import gammaln

from comspect import sequences
from comspect.ideals import EigenLaw, IdealSpec, cesaro_sequence, check_geometric_stability
from comspect.sequences import (
    FactorialPowerTail,
    GeometricTail,
    PowerTail,
    ScalarSequence,
    log_factorials,
)

# -- the former implementations ------------------------------------------


def _old_value_at(tail, m):
    m = np.asarray(m, dtype=float)
    if isinstance(tail, PowerTail):
        return tail.c * m ** (-tail.a)
    if isinstance(tail, GeometricTail):
        return tail.c * tail.q**m
    return tail.c * np.exp(-tail.a * gammaln(m + 1) / m)


def _old_value(s, n):
    """ScalarSequence.value with the former tail laws; head(n) was
    np.asarray(value(np.arange(1, n + 1)))."""
    n = np.asarray(n)
    base = np.ceil(n / s.repeat).astype(np.int64)
    out = np.zeros(base.shape, dtype=float)
    np_len = s.prefix.size
    in_prefix = base <= np_len
    if np_len:
        out[in_prefix] = s.prefix[base[in_prefix] - 1]
    if s.tail is not None:
        beyond = ~in_prefix
        if np.any(beyond):
            out[beyond] = _old_value_at(s.tail, base[beyond])
    return out if out.ndim else float(out)


def _old_prefix_values(law, n):
    k = np.arange(1, n + 1, dtype=float)
    if law.kind == "power":
        vals = law.c * k ** (-law.a)
    else:
        vals = law.c * law.q**k
    if law.alternating:
        vals = vals * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return vals


def _old_cesaro_prefix(law, n):
    sums = np.cumsum(_old_prefix_values(law, n))
    return np.abs(sums) / np.arange(1, n + 1)


def _same_bytes(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# -- head(n) against value(1..n) -------------------------------------------


TAILS = {
    "none": None,
    "power": PowerTail(1.5, 0.7),
    "harmonic": PowerTail(3.0, 1.0),
    "geometric": GeometricTail(2.0, 0.45),
    "geometric-slow": GeometricTail(0.5, 0.999),
    "factorial": FactorialPowerTail(1.0, 1.3),
}


@st.composite
def sequences_with_prefix(draw):
    tail = TAILS[draw(st.sampled_from(sorted(TAILS)))]
    size = draw(st.integers(0, 50))
    floor = 1.0 if tail is None else float(_old_value_at(tail, size + 1))
    steps = draw(st.lists(st.floats(0.0, 2.0), min_size=size, max_size=size))
    prefix = floor * (1.0 + np.cumsum(steps[::-1])[::-1]) if size else np.empty(0)
    return ScalarSequence(np.asarray(prefix, dtype=float), tail, draw(st.integers(1, 5)))


class TestHead:
    @given(sequences_with_prefix(), st.integers(0, 5000))
    @example(ScalarSequence(np.linspace(9.0, 5.0, 40), PowerTail(1.0, 0.5), 3), 100)  # inside the prefix
    @example(ScalarSequence(np.linspace(9.0, 5.0, 40), PowerTail(1.0, 0.5), 3), 4999)  # not a multiple of 3
    @example(ScalarSequence(np.ones(7), GeometricTail(1.0, 0.05), 4), 4097)
    @example(ScalarSequence(np.empty(0), FactorialPowerTail(2.0, 0.5), 5), 0)
    def test_equals_former_value_pipeline(self, s, n):
        _same_bytes(s.head(n), _old_value(s, np.arange(1, n + 1)))

    @pytest.mark.parametrize("repeat", [1, 4])
    @pytest.mark.parametrize("tail", ["power", "geometric", "factorial"])
    def test_stability_length(self, tail, repeat):
        s = ScalarSequence(np.empty(0), TAILS[tail], repeat)
        _same_bytes(s.head(10**5), _old_value(s, np.arange(1, 10**5 + 1)))

    def test_does_not_call_value(self, monkeypatch):
        def refuse(self, n):
            raise AssertionError("head went through value")

        s = ScalarSequence(np.array([2.0, 1.0]), PowerTail(1.0, 1.0), 2)
        expected = _old_value(s, np.arange(1, 12))
        monkeypatch.setattr(ScalarSequence, "value", refuse)
        _same_bytes(s.head(11), expected)


# -- the geometric law's underflow cut -------------------------------------


Q_VALUES = [1e-300, 0.05, 0.45, 0.9, 1 - 1e-12]


class TestGeometricCut:
    @staticmethod
    def _positions(q):
        cut = 1100.0 / -math.log2(q)
        around = np.arange(max(math.floor(cut) - 3, 1), math.ceil(cut) + 4, dtype=float)
        # below, at and beyond the cut, and far beyond it
        return np.concatenate([[1.0, 2.0, 3.0], around, [2 * cut + 1, 1e6, 1e15, 1e300]])

    @pytest.mark.parametrize("c", [1e-300, 1.0, 7.5, 1e300])
    @pytest.mark.parametrize("q", Q_VALUES)
    def test_array_positions(self, q, c):
        tail = GeometricTail(c, q)
        m = self._positions(q)
        _same_bytes(tail.value_at(m), _old_value_at(tail, m))
        _same_bytes(tail.value_at(m[:-1].astype(np.int64)), _old_value_at(tail, m[:-1]))

    @pytest.mark.parametrize("c", [1.0, 1e300])
    @pytest.mark.parametrize("q", Q_VALUES)
    def test_scalar_positions(self, q, c):
        tail = GeometricTail(c, q)
        for m in self._positions(q).tolist():
            got, expected = tail.value_at(m), _old_value_at(tail, m)
            assert type(got) is type(expected)
            _same_bytes(got, expected)

    def test_beyond_the_cut_is_zero(self):
        # 0.45**m is subnormal up to m = 933 and +0 from 934 on; pow runs up to m = 954
        tail = GeometricTail(1e300, 0.45)
        assert tail.value_at(933.0) == 1e300 * 0.45**933.0 > 0.0
        assert tail.value_at(934.0) == 0.0
        assert tail.value_at(955.0) == 0.0


# -- the law prefixes and their Cesàro means -------------------------------


LAWS = [
    EigenLaw("power", 1.0, a=0.5),
    EigenLaw("power", 1.0, a=0.5, alternating=True),
    EigenLaw("power", 2.5, a=1.0, alternating=True),
    EigenLaw("power", 1.0, a=2.0),
    EigenLaw("geometric", 1.0, q=0.5),
    EigenLaw("geometric", 3.0, q=0.45, alternating=True),
    EigenLaw("geometric", 1e300, q=0.999, alternating=True),
]


class TestLawPrefixes:
    @pytest.mark.parametrize("n", [1, 2, 3, 2000, 10**6])
    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_prefix_values(self, law, n):
        _same_bytes(law.prefix_values(n), _old_prefix_values(law, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 2000, 10**6])
    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_cesaro_prefix(self, law, n):
        _same_bytes(cesaro_sequence(law, n).prefix, _old_cesaro_prefix(law, n))


# -- the shared log-factorial array ----------------------------------------


@pytest.fixture()
def fresh_table(monkeypatch):
    monkeypatch.setattr(sequences, "_log_factorials", None)


class TestLogFactorials:
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 5000])
    def test_equals_gammaln_when_sliced(self, fresh_table, n):
        log_factorials(2 * n + 3)
        _same_bytes(log_factorials(n), gammaln(np.arange(1, n + 1, dtype=float) + 1))

    def test_read_only(self, fresh_table):
        table = log_factorials(10)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_keeps_the_largest(self, fresh_table):
        small = log_factorials(100)
        large = log_factorials(1000)
        assert not np.shares_memory(small, large)
        assert np.shares_memory(log_factorials(100), large)
        assert np.shares_memory(log_factorials(1000), large)

    def test_stability_fills_the_table_once(self, fresh_table, monkeypatch):
        sizes = []
        lgam = sequences._lgam

        def counting_lgam(x):
            sizes.append(np.size(x))
            return lgam(x)

        monkeypatch.setattr(sequences, "_lgam", counting_lgam)
        n_max = 100_000
        check_geometric_stability(ScalarSequence.power_law(1.0, 3.0), IdealSpec.schatten(0.5), n_max)
        assert sizes == [n_max + 1]  # one fill, log(m!) for m = 0..n_max; every other read is a gather
