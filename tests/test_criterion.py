import math

import numpy as np
import pytest

from comspect.criterion import (
    commutator_membership,
    condition2,
    condition3_witness,
    condition4_check,
    condition5_check,
    dominating_witness,
    witness_3_to_4,
    witness_4_to_3,
)
from comspect.ideals import EigenLaw, IdealSpec
from comspect.sequences import FactorialPowerTail, GeometricTail, PowerTail, ScalarSequence
from comspect.spectral import EigenSequence


def _eig(values):
    return EigenSequence(np.asarray(values, dtype=complex))


def _random_eigen(rng, max_len=50):
    n = int(rng.integers(1, max_len + 1))
    vals = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(
        rng.uniform(-1, 1, n)
    )
    return EigenSequence.from_values(vals * math.exp(rng.uniform(-1.5, 1.5)))


def _tight_witness(g: float):
    """Sequence pair where condition (4) holds exactly but c_n > s_n somewhere."""
    lam = _eig([g, 1, 1, 1, 1])
    c_t = math.ceil(g + 4.0) + 2.0
    m0 = int(math.ceil(c_t))
    prefix = [g]
    j = 1
    while g / j > 1.0:
        prefix.append(g / j)
        j += 1
    prefix += [1.0] * (m0 - len(prefix))
    t = ScalarSequence(np.array(sorted(prefix, reverse=True)), PowerTail(c_t, 1.0))
    return lam, t


class TestCondition2:
    def test_alternating_harmonic(self):
        law = EigenLaw(PowerTail(1.0, 1.0), alternating=True)
        assert condition2(law, IdealSpec.schatten(1), 10**5).status == "Out"
        assert condition2(law, IdealSpec.schatten(2), 10**5).status == "In"

    def test_all_zero_in_everything(self):
        lam = _eig([0, 0, 0])
        for spec in (IdealSpec.schatten(0.5), IdealSpec.schatten(1), IdealSpec.weak_lp(1)):
            assert condition2(lam, spec).status == "In"

    def test_finite_nonzero_trace_needs_p_above_one(self):
        lam = _eig([2, -1])  # trace 1: Cesaro tail 1/m
        assert condition2(lam, IdealSpec.schatten(1)).status == "Out"
        assert condition2(lam, IdealSpec.schatten(1.5)).status == "In"
        assert condition2(lam, IdealSpec.weak_lp(1)).status == "In"

    def test_traceless_finite_always_in(self):
        lam = _eig([1, 1j, -1, -1j])
        assert condition2(lam, IdealSpec.schatten(0.5)).status == "In"


class TestCondition3Witness:
    def test_worked_example(self):
        env = condition3_witness(_eig([1, -1, 0.5]))
        assert np.allclose(env.prefix, [1, 1 / 6, 1 / 6])

    def test_single_value_harmonic(self):
        env = condition3_witness(_eig([1.0]))
        assert np.allclose([env.value(k) for k in (1, 2, 3)], [1, 0.5, 1 / 3])

    def test_envelope_membership_follows_condition2(self, rng):
        # membership(u, J) is In whenever condition2 is In
        for _ in range(40):
            lam = _random_eigen(rng, 20)
            env = condition3_witness(lam)
            for spec in (IdealSpec.schatten(1), IdealSpec.schatten(2), IdealSpec.weak_lp(1)):
                from comspect.ideals import membership

                if condition2(lam, spec).status == "In":
                    assert membership(env, spec).status == "In"


class TestConditionChecks:
    def test_single_breakpoint_equality(self):
        # at alpha = 1 both sides equal 1; the all-alpha check then reports
        # the genuine failure of a finite witness beyond the breakpoint
        lam, t = _eig([1.0]), ScalarSequence.finite([1.0])
        sums = np.cumsum(lam.values)
        assert abs(sums[-1]) == 1.0 == t.count_ge(1.0)
        check = condition4_check(lam, t)
        assert not check.holds

    def test_constructed_failure(self):
        check = condition4_check(_eig([2, 2]), ScalarSequence.finite([1.0, 0.0]))
        assert not check.holds
        assert check.failing_alpha == pytest.approx(0.5)

    def test_condition5_constructed_failure(self):
        check = condition5_check(_eig([10.0]), ScalarSequence.finite([1.0]))
        assert not check.holds
        assert check.failing_alpha == pytest.approx(0.1)

    def test_zero_sequence_holds(self):
        check = condition4_check(_eig([0.0, 0.0]), ScalarSequence.finite([1.0]))
        assert check.holds and check.worst_ratio == 0.0

    def test_four_to_five_via_e_scaling(self, rng):
        # condition4 witness scaled by e satisfies condition5
        for _ in range(30):
            lam = _random_eigen(rng, 25)
            t4 = witness_3_to_4(dominating_witness(lam, condition3_witness(lam)))
            assert condition4_check(lam, t4).holds
            assert condition5_check(lam, t4.scaled(math.e)).holds


class TestWitnessCycle:
    def test_quadrupled_envelope_passes_with_unit_ratio(self, rng):
        for _ in range(100):
            lam = _random_eigen(rng)
            env = condition3_witness(lam)
            sums = np.cumsum(lam.values)
            means = np.abs(sums) / np.arange(1, sums.size + 1)
            assert np.all(means <= env.prefix + 1e-15)
            t4 = witness_3_to_4(dominating_witness(lam, env))
            check = condition4_check(lam, t4)
            assert check.holds
            assert check.worst_ratio <= 1 + 1e-9

    def test_doubling_step_verifies(self, rng):
        for _ in range(60):
            lam = _random_eigen(rng, 30)
            t4 = witness_3_to_4(dominating_witness(lam, condition3_witness(lam)))
            doubled = witness_4_to_3(lam, t4)
            assert doubled.value(1) == pytest.approx(2 * t4.value(1))

    def test_doubling_step_reports_failing_index(self):
        lam = _eig([2.0, 2.0])
        bad = ScalarSequence.finite([2.0, 2.0])  # fine prefix, no tail: fails beyond
        with pytest.raises(ValueError, match="n="):
            witness_4_to_3(lam, bad)

    def test_factor_two_not_vacuous(self, rng):
        # witnesses satisfying condition (4) whose undoubled claim fails
        hits = 0
        for _ in range(10):
            g = float(rng.uniform(2.2, 3.8))
            lam, t = _tight_witness(g)
            if not condition4_check(lam, t).holds:
                continue
            s_vals = np.asarray(t.value(np.arange(1, 6)))
            mods = lam.moduli
            assert np.all(s_vals >= mods - 1e-12)
            sums = np.abs(np.cumsum(lam.values))
            means = sums / np.arange(1, 6)
            if np.any(means > s_vals + 1e-9):
                hits += 1
            witness_4_to_3(lam, t)  # the doubled claim must still verify
        assert hits == 10


class TestPaperInvariants:
    def test_quadruple_merge_example(self):
        t4 = witness_3_to_4(ScalarSequence.finite([1.0, 0.5]))
        assert list(t4.head(8)) == [1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5]
        # nu quadruples at every scale
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            assert t4.count_ge(1 / alpha) == 4 * ScalarSequence.finite([1.0, 0.5]).count_ge(
                1 / alpha
            )

    def test_five_implies_three_chain(self, rng):
        # whenever |chi(alpha S)| <= mu(alpha T) with s(T) >= s(S),
        # the means obey c_n <= t_n + s_n (t = running geometric means of T)
        for _ in range(40):
            lam = _random_eigen(rng, 25)
            t4 = witness_3_to_4(dominating_witness(lam, condition3_witness(lam)))
            t5 = t4.scaled(math.e)
            assert condition5_check(lam, t5).holds
            horizon = 200
            s_vals = np.asarray(t5.value(np.arange(1, horizon + 1)))
            assert np.all(s_vals[: lam.values.size] >= lam.moduli - 1e-12)
            pos = s_vals > 0
            k = int(np.argmin(pos)) if not pos.all() else horizon
            t_vals = np.zeros(horizon)
            if k:
                t_vals[:k] = np.exp(np.cumsum(np.log(s_vals[:k])) / np.arange(1, k + 1))
            sums = np.cumsum(lam.values)
            means = np.zeros(horizon)
            means[: sums.size] = np.abs(sums) / np.arange(1, sums.size + 1)
            total = abs(complex(sums[-1]))
            means[sums.size :] = total / np.arange(sums.size + 1, horizon + 1)
            assert np.all(means <= t_vals + s_vals + 1e-9)

    def test_normal_split_consistency_on_breakpoints(self, rng):
        # |chi(alpha H) - Re chi(alpha N)| <= nu(alpha T) at every breakpoint,
        # for diagonal normal N and any T with s(T) >= |lambda|
        from comspect.functionals import chi as chi_f
        from comspect.spectral import eigenvalue_sequence, hermitian_split

        for _ in range(25):
            d = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) * math.exp(
                rng.uniform(-1, 1)
            )
            n_mat = np.diag(d)
            h, _k = hermitian_split(n_mat)
            lam = eigenvalue_sequence(n_mat)
            t = ScalarSequence(np.sort(np.abs(d))[::-1])
            for mod in np.abs(d):
                if mod == 0:
                    continue
                alpha = 1.0 / mod
                dev = abs(
                    chi_f(eigenvalue_sequence(alpha * h)).real
                    - chi_f(lam.scaled(alpha)).real
                )
                assert dev <= t.count_ge(1.0 / alpha) + 1e-9

    def test_verdict_invariant_under_modulus_reordering(self):
        # same multiset, different admissible arrangements: same verdict
        a = EigenSequence(np.array([2.0, -2.0, 1.0, -1.0], dtype=complex))
        b = EigenSequence(np.array([-2.0, 2.0, -1.0, 1.0], dtype=complex))
        for spec in (IdealSpec.schatten(1), IdealSpec.schatten(2), IdealSpec.weak_lp(1)):
            assert condition2(a, spec).status == condition2(b, spec).status


class TestCommutatorMembership:
    def test_symbolic_alternating_harmonic(self):
        law = EigenLaw(PowerTail(1.0, 1.0), alternating=True)
        report = commutator_membership(law, IdealSpec.schatten(1), prefix_length=10**5)
        assert report.verdict == "NotInComJ"
        assert report.condition4.holds and report.condition5.holds

    def test_symbolic_harmonic(self):
        law = EigenLaw(PowerTail(1.0, 1.0), alternating=False)
        report = commutator_membership(law, IdealSpec.schatten(1), prefix_length=10**5)
        assert report.verdict == "NotInComJ"
        report2 = commutator_membership(law, IdealSpec.schatten(2), prefix_length=10**5)
        assert report2.verdict == "InComJ"

    def test_matrix_path_with_split_report(self, rng):
        m = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) * 1.5
        report = commutator_membership(m, IdealSpec.schatten(2))
        assert report.verdict == "InComJ"
        hs = report.hermitian_split
        assert hs is not None
        assert max(hs["chi_dev_re"], hs["chi_dev_im"]) <= hs["bound"] + 1e-9

    def test_traceless_matrix_trace_class(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a - np.trace(a) / 4 * np.eye(4)
        report = commutator_membership(m, IdealSpec.schatten(1))
        assert report.verdict == "InComJ"

    def test_nonzero_trace_matrix_not_in_trace_class_commutators(self):
        report = commutator_membership(np.diag([2.0 + 0j, 1.0]), IdealSpec.schatten(1))
        assert report.verdict == "NotInComJ"
        assert report.condition2.evidence["tail_coefficient"] == pytest.approx(3.0)

    def test_split_consistency_for_diagonal_input(self, rng):
        # joint verdict agrees with the H/K verdicts for Schatten(1)
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = np.diag(d)
        joint = commutator_membership(m, IdealSpec.schatten(1))
        hs = joint.hermitian_split
        h_in = hs["condition2_h"].status == "In"
        k_in = hs["condition2_k"].status == "In"
        assert (joint.verdict == "InComJ") == (h_in and k_in)

    def test_doubling_failure_on_built_witness_is_numerical(self, monkeypatch, tmp_path, capsys):
        # the built witness dominates |lambda| by construction, so a failing
        # doubling step is an internal fault: exit 3, not an input error
        import comspect.criterion as crit
        from comspect import cli
        from comspect.errors import NumericalError

        def failing(lam, t):
            raise ValueError("factor-2 domination fails at n=1")

        monkeypatch.setattr(crit, "witness_4_to_3", failing)
        with pytest.raises(NumericalError, match="^the doubling step failed on the built witness: factor-2"):
            commutator_membership(_eig([2.0, 1.0]), IdealSpec.schatten(1))
        path = tmp_path / "in.json"
        path.write_text('{"kind": "finite", "values": [2, 1]}')
        assert cli.main(["criterion", "-i", str(path), "--ideal", "schatten:p=1"]) == 3
        assert capsys.readouterr().err.strip() == (
            "numerical failure: the doubling step failed on the built witness: factor-2 domination fails at n=1"
        )


class TestSharedEigenData:
    """One membership call derives each list's Cesàro data once and solves
    each matrix once."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        import collections

        counts = collections.Counter()

        def counted(name, fn, over=lambda data: True):
            def wrapper(*args, **kwargs):
                if over(args[0]):
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # cumsums over eigen data (complex128 values); a witness's running
        # sums of log levels (sum_plog_bounds) are a float cumsum
        monkeypatch.setattr(np, "cumsum", counted("cumsum", np.cumsum, np.iscomplexobj))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        prop = EigenSequence.__dict__["net_total"]
        monkeypatch.setattr(prop, "func", counted("net_total", prop.func))
        return counts

    def test_finite_list_one_cumsum_and_one_total(self, counts):
        lam = EigenSequence.from_values([3, -1 + 2j, -2.5, 0.75])
        commutator_membership(lam, IdealSpec.schatten(2))
        assert counts == {"cumsum": 1, "net_total": 1}

    def test_matrix_three_eigensolves(self, counts):
        m = np.array([[2 + 1j, 0.5, -1j], [0, -1.5 + 0.5j, 1], [0.3, 0, 0.75 - 0.5j]])
        report = commutator_membership(m, IdealSpec.schatten(2))
        # T, H and K: T's list serves the witnesses and the split report
        assert counts == {"eigvals": 3, "cumsum": 3, "net_total": 3}
        assert report.witness_scale == report.witness_sequence.values.size == 3

    def test_law_witness_scale_is_its_sequence_length(self):
        law = EigenLaw(PowerTail(1.0, 1.0), alternating=True)
        report = commutator_membership(law, IdealSpec.schatten(2), prefix_length=10**4)
        assert report.witness_scale == report.witness_sequence.values.size == 2000
        assert np.array_equal(report.witness_sequence.values, law.prefix_values(2000))


class TestWitnessShape:
    """The scans and the doubling step take finite or harmonic witnesses."""

    @pytest.mark.parametrize(
        "tail",
        [GeometricTail(1.0, 0.5), FactorialPowerTail(1.0, 1.0), PowerTail(1.0, 2.0), PowerTail(1.0, 0.5)],
        ids=["geometric", "factorial", "power-a2", "power-a0.5"],
    )
    @pytest.mark.parametrize("check", [condition4_check, condition5_check, witness_4_to_3])
    def test_other_tails_raise_one_error(self, tail, check):
        with pytest.raises(ValueError, match="^witness must be finite or have a harmonic tail c/m$"):
            check(_eig([1.0]), ScalarSequence(np.empty(0), tail))

    def test_finite_witness_failure_search(self):
        # the right side of a finite witness stops growing at 5, so the
        # condition fails for large alpha; no scale fails on the grid [1] and
        # its closing scale 2, so no failing scale is named and the worst
        # ratio is the grid's, 2 * 1 / 5
        check = condition4_check(EigenSequence([1]), ScalarSequence.finite([1.0] * 5))
        assert not check.holds
        assert check.failing_alpha is None
        assert check.worst_ratio == 0.4

    def test_criterion_names_no_other_tail(self):
        # the shape is decided once, by ScalarSequence.harmonic_coefficient
        import ast
        import pathlib

        import comspect.criterion
        import comspect.serialize

        tails = {"PowerTail", "GeometricTail", "FactorialPowerTail", "Tail"}
        for module, banned in ((comspect.criterion, tails | {"BLOCK"}), (comspect.serialize, tails)):
            tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
            names = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            assert names & banned == set(), module.__name__
