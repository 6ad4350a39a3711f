"""The long arrays of `stability` and of the law inputs, bit for bit.

`ScalarSequence.head`, `GeometricTail.value_at`, the tails' `value_range`,
`EigenLaw.prefix_values`, `cesaro_sequence`, `round_sig`, `_map` and the
shared log-factorial array each compute their floats in fewer passes, or
with fewer temporaries, than before.  The oracles below are the former
implementations, copied here, and every comparison is byte for byte.
`TestMemory` pins the tracemalloc peaks of the 10**6-term law arrays.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import gammaln

from comspect import sequences
from comspect.ideals import EigenLaw, IdealSpec, cesaro_membership, cesaro_sequence, check_geometric_stability
from comspect.sequences import (
    ROUND_DIGITS,
    FactorialPowerTail,
    GeometricTail,
    PowerTail,
    ScalarSequence,
    log_factorials,
    round_sig,
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
    t = law.tail
    if isinstance(t, PowerTail):
        vals = t.c * k ** (-t.a)
    else:
        vals = t.c * t.q**k
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


# -- the geometric means of a power law, once per stability call ----------


class TestFactorialRange:
    def test_slices_of_the_last_range(self):
        tail = FactorialPowerTail(1.3, 2.2)
        whole = tail.value_range(0, 5000)
        assert not whole.flags.writeable
        for start, stop in [(0, 5000), (0, 17), (100, 4099), (4999, 5000), (10, 10)]:
            got = tail.value_range(start, stop)
            assert np.shares_memory(got, whole) or got.size == 0
            _same_bytes(got, FactorialPowerTail(1.3, 2.2).value_range(start, stop))
            _same_bytes(got, _old_value_at(tail, np.arange(start + 1, stop + 1)))
        beyond = tail.value_range(4000, 6000)  # not inside: computed, and kept instead
        assert not np.shares_memory(beyond, whole)
        _same_bytes(beyond, _old_value_at(tail, np.arange(4001, 6001)))
        inside = tail.value_range(4500, 5500)
        assert np.shares_memory(inside, beyond)
        _same_bytes(inside, _old_value_at(tail, np.arange(4501, 5501)))

    @pytest.mark.parametrize("ideal", ["schatten:p=1", "weaklp:p=2"])
    def test_stability_computes_the_means_once(self, monkeypatch, ideal):
        calls = []
        table = sequences.log_factorials
        monkeypatch.setattr(sequences, "log_factorials", lambda n: calls.append(n) or table(n))
        check_geometric_stability(ScalarSequence.power_law(1.0, 3.0), IdealSpec.parse(ideal), 10**5)
        assert calls == [10**5]  # the head's range; the membership sum or sup takes a slice of it


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
    EigenLaw(PowerTail(1.0, 0.5)),
    EigenLaw(PowerTail(1.0, 0.5), alternating=True),
    EigenLaw(PowerTail(2.5, 1.0), alternating=True),
    EigenLaw(PowerTail(1.0, 2.0)),
    EigenLaw(GeometricTail(1.0, 0.5)),
    EigenLaw(GeometricTail(3.0, 0.45), alternating=True),
    EigenLaw(GeometricTail(1e300, 0.999), alternating=True),
]


class TestLawPrefixes:
    @pytest.mark.parametrize("n", [1, 2, 3, 2000, 10**6])
    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_prefix_values(self, law, n):
        _same_bytes(law.prefix_values(n), _old_prefix_values(law, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 2000, 2**16 - 1, 2**16, 2**16 + 1, 10**6])
    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_cesaro_prefix(self, law, n):
        # the positions divide a block of 2**16 at a time; the oracle divides once
        _same_bytes(cesaro_sequence(law, n).prefix, _old_cesaro_prefix(law, n))

    @pytest.mark.parametrize(
        "tail",
        [PowerTail(1.5, 0.7), PowerTail(3.0, 1.0), PowerTail(1.0, 0.5), PowerTail(1e-300, 4.0)]
        + [GeometricTail(c, q) for c in (1e-300, 2.0, 1e300) for q in Q_VALUES],
        ids=repr,
    )
    def test_value_range_in_place(self, tail):
        # ranges from the start, inside, and for the geometric law before, across and past its cut
        cut = 1100.0 / -math.log2(tail.q) if isinstance(tail, GeometricTail) else 5000.0
        inner = min(int(cut), 10**6)
        for start, stop in [(0, 1), (0, 5000), (7, 4099), (max(inner - 50, 0), inner + 50), (inner + 3, inner + 900)]:
            m = np.arange(start + 1, stop + 1, dtype=float)
            _same_bytes(tail.value_range(start, stop), tail.value_at(m))


class TestMemory:
    """tracemalloc peaks of the 10**6-term law arrays (numpy reports its
    buffers to tracemalloc)."""

    @staticmethod
    def _peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "law, bound_mb",
        [(EigenLaw(PowerTail(1.0, 0.5)), 9.0), (EigenLaw(GeometricTail(1.0, 0.5)), 11.0)],
        ids=["power", "geometric"],
    )
    def test_cesaro_sequence(self, law, bound_mb):
        # one 8 MB array: the law prefix, summed, made absolute and divided in place
        cesaro_sequence(law, 10)  # the limit's first evaluation is not the arrays' cost
        assert self._peak_mb(lambda: cesaro_sequence(law)) <= bound_mb

    def test_weak_lp_cesaro_membership(self):
        # round_sig and _map hold one block of 2**16 values at a time (82 MB
        # when they took the whole 10**6 candidates at once)
        law = EigenLaw(PowerTail(1.0, 3.0))
        cesaro_sequence(law, 10)
        assert self._peak_mb(lambda: cesaro_membership(cesaro_sequence(law), IdealSpec.weak_lp(1))) <= 60.0


# -- round_sig and _map in blocks ------------------------------------------


def _whole_round_sig(x):
    """round_sig over the whole array at once (the former implementation)."""
    arr = np.asarray(x, dtype=float)
    out = arr.copy()
    nz = (arr != 0) & np.isfinite(arr)
    if np.any(nz):
        vals = arr[nz]
        shift = ROUND_DIGITS - 1 - np.floor(np.log10(np.abs(vals)))
        if np.maximum.reduce(shift) <= 308:
            scale = 10.0**shift
            out[nz] = np.round(vals * scale) / scale
        else:
            pre = np.where(shift > 308, 1e300, 1.0)
            scale = 10.0 ** np.where(shift > 308, shift - 300, shift)
            out[nz] = np.round(vals * pre * scale) / scale / pre
    return out if out.ndim else float(out)


class TestBlocks:
    @staticmethod
    def _values(n, tiny_block):
        rng = np.random.default_rng(n)
        vals = np.exp(rng.uniform(-300.0, 300.0, n)) * rng.choice([-1.0, 1.0], n)
        vals[rng.integers(0, n, 20)] = 0.0
        vals[rng.integers(0, n, 5)] = np.inf
        if tiny_block is not None:  # values below 1e-297 (the pre-scale branch) in one block only
            lo = tiny_block * 2**16
            vals[lo + rng.integers(0, min(2**16, n - lo), 50)] = 10.0 ** rng.uniform(-320.0, -297.5, 50)
        return vals

    @pytest.mark.parametrize(
        "n, tiny_block",
        [(n, None) for n in (2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 17)]
        + [(2**16, 0), (2**16 + 1, 0), (2**16 + 1, 1), (3 * 2**16 + 17, 1), (3 * 2**16 + 17, 3)],
    )
    def test_round_sig(self, n, tiny_block):
        vals = self._values(n, tiny_block)
        _same_bytes(round_sig(vals), _whole_round_sig(vals))
        _same_bytes(round_sig(vals.reshape(-1, 1)), _whole_round_sig(vals).reshape(-1, 1))

    @pytest.mark.parametrize("n", [1, 2**16, 2**16 + 1, 3 * 2**16 + 17])
    def test_map(self, n):
        vals = np.abs(self._values(n, None)) + 1.0
        expected = np.array([math.log(v) for v in vals.tolist()], dtype=float)
        _same_bytes(sequences._map(math.log, vals), expected)
        counts = np.arange(n, dtype=np.int64)
        _same_bytes(sequences._map(lambda k: k ** (1.0 / 3.0), counts), np.array([k ** (1.0 / 3.0) for k in range(n)]))


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
