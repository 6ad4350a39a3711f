import numpy as np
import pytest

from comspect.verify import SuiteConfig, gen_matrix, run_suite, suite_names

BASE_SUITES = [
    "weyl",
    "horn",
    "lemma2_2",
    "lemma2_3",
    "lemma2_4_1",
    "lemma2_4_2",
    "lemma2_4_3",
    "lemma2_5",
    "thm2_7",
    "thm3_1_cycle",
    "prop3_2",
]


class TestGenMatrix:
    def test_deterministic_in_seed(self):
        a = gen_matrix("general", 5, 42)
        b = gen_matrix("general", 5, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_matrix("general", 5, 43))

    def test_hermitian_is_self_adjoint(self):
        m = gen_matrix("hermitian", 4, 7)
        assert np.allclose(m, m.conj().T)

    def test_nilpotent_spectrum(self):
        m = gen_matrix("nilpotent", 3, 7)
        assert np.allclose(np.linalg.eigvals(m), 0)

    def test_normal_diagonal_is_diagonal(self):
        m = gen_matrix("normal-diagonal", 4, 7)
        assert np.allclose(m, np.diag(np.diag(m)))

    def test_jordan_block_structure(self):
        m = gen_matrix("jordan", 4, 7)
        assert np.allclose(np.diag(m, k=1), 1)
        assert len(set(np.round(np.diag(m), 12))) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_matrix("sparse", 3, 0)


class TestRunSuite:
    @pytest.mark.parametrize("name", BASE_SUITES)
    def test_base_suites_pass(self, name):
        trials = 25 if name in ("thm3_1_cycle", "prop3_2") else 120
        report = run_suite(SuiteConfig(suite=name, trials=trials, max_dim=7, seed=5))
        assert report.passed, report.violations[:2]
        assert report.informative_trials > report.trials / 2

    def test_circle_mean_suite_passes(self):
        report = run_suite(
            SuiteConfig(suite="lemma2_1_3", trials=20, max_dim=6, seed=5, nodes=256)
        )
        assert report.passed

    @pytest.mark.parametrize(
        "name", [s for s in suite_names() if s.endswith("_control") and "2_6" not in s and "2_1_3" not in s]
    )
    def test_controls_record_violations(self, name):
        trials = 60 if ("cycle" in name or "prop" in name) else 300
        report = run_suite(SuiteConfig(suite=name, trials=trials, max_dim=8, seed=5))
        assert len(report.violations) >= 1

    def test_circle_mean_control(self):
        report = run_suite(
            SuiteConfig(suite="lemma2_1_3_control", trials=40, max_dim=6, seed=5, nodes=128)
        )
        assert len(report.violations) >= 1

    def test_grid_suite_and_control(self):
        ok = run_suite(SuiteConfig(suite="lemma2_6", trials=1, seed=0))
        assert ok.passed and ok.trials == 1
        bad = run_suite(SuiteConfig(suite="lemma2_6_control", trials=1, seed=0))
        assert len(bad.violations) == 1
        assert bad.empirical_constants["minLaplacian"] <= -1e-3

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="lemma9_9", trials=1))

    def test_reports_are_deterministic(self):
        cfg = SuiteConfig(suite="lemma2_3", trials=60, max_dim=6, seed=9)
        a, b = run_suite(cfg), run_suite(cfg)
        assert a.worst_slack == b.worst_slack
        assert a.violations == b.violations
        assert a.empirical_constants == b.empirical_constants

    def test_trial_stream_is_prefix_stable(self):
        # growing the trial count never changes earlier trials
        small = run_suite(SuiteConfig(suite="lemma2_2", trials=40, max_dim=6, seed=3))
        large = run_suite(SuiteConfig(suite="lemma2_2", trials=80, max_dim=6, seed=3))
        assert large.worst_slack >= small.worst_slack - 1e-18


class TestEstimateConstant:
    def test_lemma2_2_ratio_at_most_one(self):
        cfg = SuiteConfig(suite="lemma2_2", trials=300, max_dim=8, seed=2)
        ratio = run_suite(cfg).empirical_constants["maxRatio"]
        assert ratio <= 1 + 1e-12

    def test_monotone_in_trials(self):
        lo = run_suite(SuiteConfig(suite="thm2_7", trials=50, seed=4)).empirical_constants["maxRatio"]
        hi = run_suite(SuiteConfig(suite="thm2_7", trials=150, seed=4)).empirical_constants["maxRatio"]
        assert hi >= lo

    def test_scaling_ratio_approaches_one(self):
        # equality in the scaling bound is approached near alpha = 1/|lambda_1|
        cfg = SuiteConfig(suite="lemma2_4_2", trials=400, max_dim=8, seed=6)
        ratio = run_suite(cfg).empirical_constants["maxRatio"]
        assert 0.5 <= ratio <= 1 + 1e-9


class TestFingerprints:
    """Fingerprints computed once with the per-caller hashes they replaced;
    the control suites' fingerprints are part of their reports."""

    def test_matrix_fingerprint(self):
        from comspect.spectral import matrix_fingerprint

        assert matrix_fingerprint(np.array([[1.0, 2.0 - 1.0j], [0.5j, -3.0]])) == "e637fd5fe61b"

    @pytest.mark.parametrize("m", [np.array([[1.0, 2.0], [0.0, -3.0]]), np.array([[1, 2], [0, -3]]), [[1, 2], [0, -3]]])
    def test_real_input_hashes_as_its_complex_form(self, m):
        from comspect.spectral import matrix_fingerprint

        assert matrix_fingerprint(m) == "df483452125e"

    @pytest.mark.parametrize(
        "suite, fingerprint",
        [("weyl_control", "436213be2880"), ("thm3_1_cycle_control", "e8e335874d9f"), ("prop3_2_control", "81fb26d790ea")],
    )
    def test_first_control_violation(self, suite, fingerprint):
        report = run_suite(SuiteConfig(suite=suite, trials=20, seed=0))
        assert report.violations[0]["fingerprint"] == fingerprint
