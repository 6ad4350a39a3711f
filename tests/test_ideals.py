import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from comspect.criterion import condition2
from comspect.errors import NumericalError
from comspect.ideals import (
    EigenLaw,
    IdealSpec,
    _chain_factor,
    cesaro_membership,
    cesaro_sequence,
    check_geometric_stability,
    dyadic_series_envelope,
    geometric_mean_seq,
    max_envelope,
    membership,
)
from comspect.sequences import (
    DERIVED_SLACK,
    GeometricTail,
    PowerTail,
    ScalarSequence,
    _floor_index,
    log_factorials,
    round_sig,
)
from comspect.spectral import EigenSequence


def _eig(values):
    return EigenSequence(np.asarray(values, dtype=complex))


def _per_level_envelope(s, theta, length):
    """The dyadic envelope as one `s.value` call per level (the former
    implementation, kept as the bit-for-bit oracle)."""
    n = np.arange(1, length + 1, dtype=np.int64)
    out = np.zeros(length, dtype=float)
    k = 0
    while (1 << k) <= length:
        step = 1 << k
        live = n >= step
        idx = -(-n[live] // step)  # exact ceil division
        out[live] += 2.0 ** (-theta * k) * s.value(idx)
        k += 1
    s1 = float(s.value(1))
    k0 = np.floor(np.log2(n.astype(float))).astype(np.int64) + 1
    out += s1 * 2.0 ** (-theta * k0.astype(float)) / (1.0 - 2.0**-theta)
    return out


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _envelope_inputs(draw):
    kind = draw(st.sampled_from(["power", "geometric", "geometric-cut", "finite", "finite-zeros", "prefix+tail"]))
    if kind == "power":
        s = ScalarSequence.power_law(draw(_POSITIVE), draw(st.floats(min_value=0.1, max_value=4.0)))
    elif kind == "geometric":
        s = ScalarSequence.geometric_law(draw(_POSITIVE), draw(st.floats(min_value=0.05, max_value=0.95)))
    elif kind == "geometric-cut":
        # q <= 0.5 puts the underflow cut 1100 / -log2(q) at position 1100 or
        # before: the head ends in exact zeros
        s = ScalarSequence.geometric_law(draw(_POSITIVE), draw(st.floats(min_value=1e-300, max_value=0.5)))
    else:
        extras = draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=60))
        prefix = np.sort(np.array(extras))[::-1]
        if kind == "finite":
            s = ScalarSequence.finite(prefix)
        elif kind == "finite-zeros":
            # trailing zeros, and maybe a rise within STORED_SLACK after a zero
            zeros = np.zeros(draw(st.integers(min_value=1, max_value=40)))
            rise = draw(st.sampled_from([[], [5e-13], [1e-12, 0.0, 0.0]]))
            s = ScalarSequence.finite(np.concatenate([prefix, zeros, rise]))
        else:
            c, a = draw(_POSITIVE), draw(st.floats(min_value=0.1, max_value=4.0))
            # every prefix entry at or above the tail's first value
            s = ScalarSequence(prefix + c * (prefix.size + 1) ** -a, PowerTail(c, a))
    k = draw(st.integers(min_value=1, max_value=5))
    return s.repeated(k) if k > 1 else s


class TestIdealSpec:
    def test_parse_round_trip(self):
        spec = IdealSpec.parse("schatten:p=1.5")
        assert spec.family == "schatten" and spec.p == 1.5
        assert IdealSpec.parse("weaklp:p=2").family == "weaklp"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            IdealSpec.parse("banach:q=1")
        with pytest.raises(ValueError):
            IdealSpec.parse("schatten")

    def test_parse_takes_p_as_a_plain_decimal(self):
        # digits, an optional point, an optional exponent; the family may carry case and spaces
        for text, p in (("schatten:p=2.", 2.0), (" Schatten :p=0.5", 0.5), ("weaklp:p=25e-1", 2.5), ("weaklp:p=1E+1", 10.0)):
            assert IdealSpec.parse(text) == IdealSpec(text.partition(":")[0].strip().lower(), p)
        for value in ("1_0", " 2", "2 ", "+1", "-1", ".5", "1e", "inf", "nan", "0x1p0", "\u0661"):
            with pytest.raises(ValueError, match="cannot parse ideal spec"):
                IdealSpec.parse(f"schatten:p={value}")

    def test_quasi_norm_exponent(self):
        assert IdealSpec.schatten(0.5).quasi_norm_exponent == 0.5
        assert IdealSpec.schatten(2.0).quasi_norm_exponent == 1.0

    def test_fields_are_family_and_p(self):
        # both families are quasi-Banach, hence geometrically stable: no flag to set
        assert [f.name for f in dataclasses.fields(IdealSpec)] == ["family", "p"]
        with pytest.raises(ValueError, match="unknown ideal family 'custom'"):
            IdealSpec("custom", 1.0)


class TestMembership:
    def test_harmonic_not_trace_class(self):
        assert membership(ScalarSequence.power_law(1, 1), IdealSpec.schatten(1)).status == "Out"

    def test_harmonic_is_hilbert_schmidt(self):
        assert membership(ScalarSequence.power_law(1, 1), IdealSpec.schatten(2)).status == "In"

    def test_weak_type_boundary(self):
        v = membership(ScalarSequence.power_law(1, 0.5), IdealSpec.weak_lp(2))
        assert v.status == "In"
        assert v.evidence["weak_sup"] == pytest.approx(1.0)

    def test_finite_always_in(self):
        v = membership(ScalarSequence.finite([5, 1, 0.1]), IdealSpec.schatten(0.5))
        assert v.status == "In" and "p_sum" in v.evidence

    def test_geometric_always_in(self):
        assert membership(ScalarSequence.geometric_law(3, 0.9), IdealSpec.schatten(0.25)).status == "In"

    def test_pointwise_domination_monotone(self, rng):
        # s <= s' pointwise and s' In implies s In
        spec = IdealSpec.schatten(1.2)
        big = ScalarSequence.power_law(2.0, 1.0)
        small = ScalarSequence(np.asarray(big.head(50)) * 0.5)
        assert membership(big, spec).status == "In"
        assert membership(small, spec).status == "In"


class TestCesaro:
    def test_alternating_prefix(self):
        ces = cesaro_sequence(_eig([1, -1, 1, -1, 1]))
        assert np.allclose(ces.prefix, [1, 0, 1 / 3, 0, 1 / 5])

    def test_zero_eigenvalues(self):
        ces = cesaro_sequence(_eig([0, 0, 0]))
        assert np.allclose(ces.prefix, 0)
        assert ces.tail is None

    def test_cancelling_total_has_no_tail(self):
        ces = cesaro_sequence(_eig([1, -1]))
        assert ces.tail is None

    def test_nonzero_total_gets_exact_harmonic_tail(self):
        ces = cesaro_sequence(_eig([2, -1]))
        assert ces.tail is not None
        assert ces.tail.c == pytest.approx(1.0) and ces.tail.a == 1.0

    def test_alternating_harmonic_limit(self):
        # 10^6-term prefix: n*c_n converges to ln 2
        law = EigenLaw(PowerTail(1.0, 1.0), alternating=True)
        ces = cesaro_sequence(law, 10**6)
        n = ces.prefix.size
        assert n * ces.prefix[-1] == pytest.approx(math.log(2), abs=1e-5)
        assert ces.tail.c == pytest.approx(math.log(2), rel=1e-12)

    def test_alternating_harmonic_verdicts(self):
        law = EigenLaw(PowerTail(1.0, 1.0), alternating=True)
        ces = cesaro_sequence(law, 10**5)
        assert cesaro_membership(ces, IdealSpec.schatten(1)).status == "Out"
        assert cesaro_membership(ces, IdealSpec.schatten(2)).status == "In"

    def test_positive_harmonic_log_law(self):
        law = EigenLaw(PowerTail(1.0, 1.0), alternating=False)
        ces = cesaro_sequence(law, 10**5)
        assert ces.log_tail_coefficient == 1.0
        assert cesaro_membership(ces, IdealSpec.schatten(1)).status == "Out"
        assert cesaro_membership(ces, IdealSpec.schatten(2)).status == "In"
        assert cesaro_membership(ces, IdealSpec.weak_lp(1)).status == "Out"

    def test_weak_lp_of_exact_tail(self):
        # single eigenvalue 1: Cesaro sequence is exactly 1/n
        ces = cesaro_sequence(_eig([1.0]))
        assert cesaro_membership(ces, IdealSpec.weak_lp(1)).status == "In"
        assert cesaro_membership(ces, IdealSpec.weak_lp(0.5)).status == "Out"
        assert cesaro_membership(ces, IdealSpec.schatten(1)).status == "Out"


def _loop_cesaro_membership(ces, ideal):
    """Membership of the Cesàro sequence with the weak-lp supremum taken one
    candidate at a time (the former implementation, kept as the bit-for-bit
    oracle): an O(n) count and a scalar tail count per distinct value."""

    def tail_count_ge(tail, x, start):
        if x <= 0:
            return math.inf
        bound = float(tail.c / x) ** (1.0 / tail.a)  # Python's pow, as _map took it
        return max(int(_floor_index(np.array([bound]))[0]) - start, 0)

    def weak_sup_multiset(prefix, tail, start, p):
        if tail is not None and round_sig(tail.a * p) < 1:
            return math.inf
        cands = list(np.unique(prefix[prefix > 0]))
        limit = 0.0
        if tail is not None:
            m = np.arange(start + 1, start + 2001, dtype=float)
            cands.extend(np.unique(tail.value_at(m)))
            if round_sig(tail.a * p) == 1:
                limit = tail.c
        sup = limit
        for x in cands:
            count = int(np.count_nonzero(prefix >= x))
            if tail is not None:
                count += tail_count_ge(tail, x, start)
            sup = max(sup, x * count ** (1.0 / p))
        return sup

    n = int(ces.prefix.size)
    evidence = {}
    if ces.tail is not None:
        evidence["tail_coefficient"] = ces.tail.c
        evidence["tail_exponent"] = ces.tail.a
    if n:
        evidence["n_times_c_at_scale"] = float(ces.prefix[-1] * n)
    if ces.log_tail_coefficient is not None:
        evidence["log_tail_coefficient"] = ces.log_tail_coefficient
        return "In" if ideal.p > 1 else "Out", n, evidence
    if ces.tail is None:
        if ideal.family == "schatten":
            evidence["p_sum"] = float(np.sum(ces.prefix**ideal.p))
        else:
            evidence["weak_sup"] = weak_sup_multiset(ces.prefix, None, n, ideal.p)
        return "In", n, evidence
    tail = ces.tail
    ap = round_sig(tail.a * ideal.p)
    if ideal.family == "schatten":
        if ap <= 1:
            evidence["p_sum"] = math.inf
            return "Out", n, evidence
        if ces.tail_exact:
            evidence["p_sum"] = float(np.sum(ces.prefix**ideal.p)) + tail.schatten_sum(ideal.p, n)
        else:
            evidence["p_sum_prefix"] = float(np.sum(ces.prefix**ideal.p))
        return "In", n, evidence
    if ap < 1:
        evidence["weak_sup"] = math.inf
        return "Out", n, evidence
    sup = weak_sup_multiset(ces.prefix, tail, n, ideal.p)
    evidence["weak_sup"] = sup
    return ("In" if math.isfinite(sup) else "Out"), n, evidence


def _bits(status, scale, evidence):
    return status, scale, list(evidence), [float(v).hex() for v in evidence.values()]


def _oracle_lists():
    rng = np.random.default_rng(16)
    for i in range(24):
        n = int(rng.integers(1, 40))
        if i % 3 == 0:
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        elif i % 3 == 1:
            vals = np.round(rng.standard_normal(n) * 4) / 4  # real, with ties
        else:
            vals = rng.standard_normal(n)
            vals = np.append(vals, -vals.sum())  # a cancelling closer
        yield EigenSequence.from_values(vals * 10.0 ** rng.uniform(-30, 30))


_ORACLE_LAWS = [
    (EigenLaw(PowerTail(c, a), alternating=alt), n)
    for c, a in [(1.0, 0.5), (2.0, 1.0), (1.0, 1.5), (0.5, 3.0), (1e-320, 3.0)]
    for alt in (False, True)
    for n in (1, 37)
] + [
    (EigenLaw(GeometricTail(c, q), alternating=alt), n)
    for c, q in [(1.0, 0.5), (3.0, 0.9)]
    for alt in (False, True)
    for n in (1, 37)
] + [
    (EigenLaw(PowerTail(1.0, 1.5)), 3000),
    (EigenLaw(PowerTail(1.0, 0.5), alternating=True), 3000),
    (EigenLaw(GeometricTail(1.0, 0.5), alternating=True), 3000),
]


class TestCesaroMembershipOracle:
    """The sorted, batched weak-lp supremum and the single a*p rule against
    the former per-candidate loop: status, scale, evidence keys in order and
    every float's bits."""

    P = (0.5, 1.0, 1.5, 2.0, 3.7)

    def _check(self, ces):
        for family in ("schatten", "weaklp"):
            for p in self.P:
                spec = IdealSpec(family, p)
                with np.errstate(invalid="ignore"):  # the loop's 0 * inf for an underflowed tail value
                    expected = _loop_cesaro_membership(ces, spec)
                got = cesaro_membership(ces, spec)
                assert _bits(got.status, got.scale, got.evidence) == _bits(*expected), (family, p)

    def test_finite_lists(self):
        for lam in _oracle_lists():
            self._check(cesaro_sequence(lam))

    @pytest.mark.parametrize("law, n", _ORACLE_LAWS)
    def test_laws(self, law, n):
        self._check(cesaro_sequence(law, n))

    def test_underflowed_tail_window_is_quiet(self):
        # every tail value of the 2,000-term window underflows to 0; the loop
        # took 0 * inf there and leaked a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = condition2(EigenLaw(PowerTail(1e-320, 3.0)), IdealSpec.weak_lp(1))
        assert verdict.status == "In"
        assert verdict.evidence["weak_sup"] == float.fromhex("0x0.00000000012fbp-1022")


class TestMaxEnvelope:
    def test_worked_example(self):
        env = max_envelope(_eig([1, -1, 0.5]))
        assert np.allclose(env.prefix, [1, 1 / 6, 1 / 6])
        assert env.tail.c == pytest.approx(0.5)
        assert env.value(4) == pytest.approx(0.5 / 4)

    def test_zero_total_tail_free(self):
        env = max_envelope(_eig([1, -1]))
        assert env.tail is None
        assert np.allclose(env.prefix, [1, 0])

    def test_brute_force_oracle(self, rng):
        # max over m <= 10 N windows, plus the exact tail supremum
        for _ in range(40):
            n = int(rng.integers(1, 30))
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lam = EigenSequence.from_values(vals)
            env = max_envelope(lam)
            sums = np.cumsum(lam.values)
            total = abs(sums[-1])
            horizon = 10 * n
            padded = np.abs(
                np.concatenate([sums, np.full(horizon - n, sums[-1])])
            ) / np.arange(1, horizon + 1)
            for idx in range(1, n + 1):
                ref = max(padded[idx - 1 :].max(), total / (horizon + 1))
                assert float(env.value(idx)) == pytest.approx(ref, rel=1e-12)
            means = np.abs(sums) / np.arange(1, n + 1)
            assert np.all(env.prefix >= means - 1e-15)
            assert np.all(np.diff(env.prefix) <= 1e-15)


class TestGeometricMean:
    def test_dyadic_decay(self):
        s = ScalarSequence.finite([1, 0.5, 0.25, 0.125])
        t = geometric_mean_seq(s)
        assert np.allclose(t.prefix, [2 ** (-k / 2) for k in range(4)])

    def test_constant_sequence(self):
        t = geometric_mean_seq(ScalarSequence.finite([3, 3, 3]))
        assert np.allclose(t.prefix, 3)

    def test_zeros_propagate(self):
        t = geometric_mean_seq(ScalarSequence.finite([2, 1, 0, 0]))
        assert t.prefix[1] > 0 and t.prefix[2] == 0 and t.prefix[3] == 0

    def test_power_law_against_direct_product(self):
        # t_n = (n!)^(-a/n) via direct products up to n = 1000
        a = 1.3
        t = geometric_mean_seq(ScalarSequence.power_law(1.0, a))
        n = 1000
        direct = np.exp(np.cumsum(np.log(np.arange(1, n + 1) ** -a)) / np.arange(1, n + 1))
        assert np.allclose(t.head(n), direct, rtol=1e-10)

    def test_geometric_law_stays_geometric(self):
        t = geometric_mean_seq(ScalarSequence.geometric_law(1.0, 0.25))
        assert t.tail.q == pytest.approx(0.5)
        assert float(t.value(2)) == pytest.approx(0.25 * (1 / np.sqrt(0.25)) ** -1)

    def test_dominates_input(self, rng):
        vals = np.sort(rng.uniform(0.01, 3, 30))[::-1]
        s = ScalarSequence(vals)
        t = geometric_mean_seq(s)
        assert np.all(t.prefix >= vals - 1e-12)
        assert np.all(np.diff(t.prefix) <= 1e-12)


class TestDyadicEnvelope:
    def test_worked_value(self):
        u = dyadic_series_envelope(ScalarSequence.power_law(1, 1), 2.0, 8)
        expected = 0.25 + 0.125 + 0.0625 + (2.0**-6) / (1 - 0.25)
        assert u[3] == pytest.approx(expected, rel=1e-12)

    def test_single_jump_closed_form(self):
        # s = (1, 0, 0, ...): u_n = sum of 2^(-theta k) over k with n/2^k <= 1
        theta = 1.5
        u = dyadic_series_envelope(ScalarSequence.finite([1.0]), theta, 16)
        for n in (1, 2, 3, 5, 8):
            k0 = math.ceil(math.log2(n))
            closed = 2.0 ** (-theta * k0) / (1 - 2.0**-theta)
            direct = sum(2.0 ** (-theta * k) for k in range(k0, 80))
            assert closed == pytest.approx(direct, rel=1e-10)
            assert u[n - 1] == pytest.approx(closed, rel=1e-10)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            dyadic_series_envelope(ScalarSequence.finite([1.0]), 0.0)

    def test_monotone_on_random_inputs(self, rng):
        # 1000 random nonincreasing sequences, envelope must stay monotone
        for _ in range(1000):
            vals = np.sort(rng.uniform(0, 5, int(rng.integers(1, 20))))[::-1]
            u = dyadic_series_envelope(ScalarSequence(vals), 2.0, 64)
            assert np.all(np.diff(u) <= 1e-12)

    @given(
        _envelope_inputs(),
        st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
        st.one_of(
            st.integers(min_value=1, max_value=5000),
            st.sampled_from([2**k + d for k in range(13) for d in (-1, 0, 1) if 2**k + d >= 1]),
        ),
    )
    def test_matches_per_level_oracle_bit_for_bit(self, s, theta, length):
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = _per_level_envelope(s, theta, length)
            if not np.all(np.isfinite(expected)):
                # theta below ~2^-53 leaves 1 - 2^-theta == 0: no finite envelope
                with pytest.raises(NumericalError, match="envelope"):
                    dyadic_series_envelope(s, theta, length)
                return
        got = dyadic_series_envelope(s, theta, length)
        assert np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_level_oracle_at_stability_length(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.sort(rng.uniform(0.0, 5.0, int(rng.integers(2, 400))))[::-1]
        cases = [
            ScalarSequence.finite(np.concatenate([vals, np.zeros(100), [5e-13]])).repeated(int(rng.integers(2, 6))),
            ScalarSequence.geometric_law(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.5))),
        ]
        for s in cases:
            theta = float(rng.choice([2.0, 4.0, rng.uniform(0.5, 6.0)]))
            expected = _per_level_envelope(s, theta, 10**5)
            assert dyadic_series_envelope(s, theta, 10**5).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 1000])
    def test_one_head_evaluation(self, monkeypatch, length):
        s = ScalarSequence(np.array([3.0, 2.0, 1.0]), PowerTail(2.0, 1.0))
        heads, values = [], []
        head, value = ScalarSequence.head, ScalarSequence.value

        def counting_head(self, n):
            heads.append(n)
            return head(self, n)

        def counting_value(self, n):
            values.append(np.array(n, copy=True))
            return value(self, n)

        monkeypatch.setattr(ScalarSequence, "head", counting_head)
        monkeypatch.setattr(ScalarSequence, "value", counting_value)
        dyadic_series_envelope(s, 2.0, length)
        # the head over positions 1..length, then the s_1 of the closed-form tail
        assert heads == [length]
        assert len(values) == 1
        assert values[0].ndim == 0 and int(values[0]) == 1

    @given(st.floats(min_value=1.1, max_value=6.0))
    def test_direct_summation_oracle(self, theta):
        s = ScalarSequence.power_law(2.0, 0.7)
        u = dyadic_series_envelope(s, theta, 32)
        n = 24
        direct = sum(
            2.0 ** (-theta * k) * float(s.value(math.ceil(n / 2**k)))
            for k in range(0, 200)
        )
        assert u[n - 1] == pytest.approx(direct, rel=1e-9)


def _former_stability(s, ideal, n_max):
    """check_geometric_stability's former arithmetic (theta, empirical
    constant, worst chain margin, chain verdict), kept as the bit-for-bit
    oracle: the means through `value`, the per-level envelope and the chain
    factor rebuilt on every call."""
    t = geometric_mean_seq(s)
    theta = 2.0 / ideal.quasi_norm_exponent
    n = np.arange(1, n_max + 1, dtype=float)
    t_vals = np.asarray(t.value(np.arange(1, n_max + 1)), dtype=float)
    u_vals = _per_level_envelope(s, theta, n_max)
    ratio = np.divide(t_vals, u_vals, out=np.zeros_like(t_vals), where=u_vals > 0)
    empirical = float(np.max(ratio))
    factor = np.exp(theta * (math.log(2.0) + np.log(n) - log_factorials(n_max) / n))
    margin = t_vals - factor * u_vals
    worst = float(np.max(margin / (1.0 + factor * u_vals)))
    return theta.hex(), empirical.hex(), worst.hex(), bool(worst <= DERIVED_SLACK)


def _stability_inputs(seed):
    """Two seeded power laws, geometric laws and finite lists, drawn like the
    benchmark's stability documents."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        c = math.exp(rng.uniform(-2.0, 2.0))
        yield ScalarSequence.power_law(c, float(rng.uniform(0.6, 5.0)))
        yield ScalarSequence.geometric_law(c, float(rng.uniform(0.05, 0.95)))
        yield ScalarSequence.finite(sorted(c * rng.random(int(rng.integers(2, 40))), reverse=True))


_POOL_IDEALS = ("schatten:p=0.5", "schatten:p=1", "schatten:p=2", "weaklp:p=2")  # theta 4, 2, 2, 2


class TestGeometricStability:
    @pytest.mark.parametrize("n_max", [10**5, 4096, 777])
    def test_matches_former_arithmetic(self, n_max):
        hits = _chain_factor.cache_info().hits
        for s in _stability_inputs(n_max):
            for text in _POOL_IDEALS:
                ideal = IdealSpec.parse(text)
                rep = check_geometric_stability(s, ideal, n_max)
                got = (rep.theta.hex(), rep.empirical_constant.hex(), rep.worst_chain_margin.hex(), rep.chain_holds)
                assert got == _former_stability(s, ideal, n_max), (s, text)
        assert _chain_factor.cache_info().hits > hits

    def test_chain_factor_is_cached_read_only(self):
        factor = _chain_factor(2.0, 777)
        assert _chain_factor(2.0, 777) is factor
        assert _chain_factor.cache_info().maxsize == 4
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0] = 1.0

    def test_chain_factor_cache_starts_empty(self):
        code = "import comspect.cli, comspect.ideals as i; print(i._chain_factor.cache_info().currsize)"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=root)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == b"0"

    def test_power_law_in_trace_class(self):
        rep = check_geometric_stability(
            ScalarSequence.power_law(1.0, 2.0), IdealSpec.schatten(1), n_max=10_000
        )
        assert rep.input_verdict.status == "In"
        assert rep.mean_verdict.status == "In"
        assert rep.chain_holds
        assert rep.empirical_constant <= rep.proof_constant

    def test_geometric_law_any_p(self):
        for p in (0.5, 1.0, 2.0):
            rep = check_geometric_stability(
                ScalarSequence.geometric_law(1.0, 0.5), IdealSpec.schatten(p), n_max=2000
            )
            assert rep.mean_verdict.status == "In"

    def test_non_member_gets_its_chain(self):
        # the chain t_n <= 2^theta n^theta (n!)^(-theta/n) u_n is pointwise
        rep = check_geometric_stability(
            ScalarSequence.power_law(1.0, 1.0), IdealSpec.schatten(1), n_max=100
        )
        assert rep.input_verdict.status == "Out"
        assert rep.mean_verdict.status == "Out"
        assert rep.chain_holds

    def test_empirical_constant_scan(self, rng):
        for _ in range(10):
            p = float(rng.choice([0.5, 1.0, 2.0]))
            a = 1.0 / p + rng.uniform(0.1, 2.5)
            rep = check_geometric_stability(
                ScalarSequence.power_law(math.exp(rng.uniform(-1, 1)), a),
                IdealSpec.schatten(p),
                n_max=5000,
            )
            assert math.isfinite(rep.empirical_constant)
            assert rep.chain_holds
