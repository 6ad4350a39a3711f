import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from comspect.cutoffs import eval_g, eval_h
from comspect.errors import NumericalError
from comspect.functionals import (
    FunctionalReport,
    chi,
    chi_phi,
    circle_mean,
    derived_c2,
    f_hat,
    functional_report,
    mu,
    nu,
)
from comspect.spectral import (
    EigenSequence,
    eigenvalue_sequence,
    hermitian_split,
    singular_sequence,
    validate_matrix,
)
from comspect.verify import _huber_log, gen_matrix


def _eig(values):
    return EigenSequence.from_values(np.asarray(values, dtype=complex))


def _random_matrix(rng, n, scale=1.0):
    m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return m * scale


class TestThresholdFunctionals:
    def test_nu_counts_boundary(self):
        assert nu(_eig([3, 1, 0.2])) == 2
        assert nu(_eig([2 * math.e, math.e, 1, 0.9])) == 3
        assert nu(_eig([])) == 0

    def test_mu_examples(self):
        assert mu(_eig([math.e**2, math.e, 0.5])) == pytest.approx(3.0)
        assert mu(_eig([0.5, 0.9, 1.0])) == 0.0

    def test_chi_examples(self):
        assert chi(_eig([3, 2j, 0.1])) == pytest.approx(3 + 2j)
        assert chi(_eig([0.5, 0.2])) == 0
        assert chi(_eig([2, 1, 0.5])) == pytest.approx(3.0)

    def test_mu_dominated_by_modulus_mu(self, rng):
        # 0 <= mu(T) <= mu(|T|)
        for _ in range(50):
            m = _random_matrix(rng, 6, math.exp(rng.uniform(-2, 2)))
            lhs = mu(eigenvalue_sequence(m))
            rhs = singular_sequence(m).sum_plog(1.0)
            assert 0.0 <= lhs <= rhs + 1e-10 * (1 + rhs)


class TestChiPhi:
    def test_equals_chi_for_large_moduli(self, pair, rng):
        vals = (2 + rng.random(5) * 3) * math.e * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        eig = _eig(vals)
        assert chi_phi(eig, pair) == pytest.approx(chi(eig), rel=1e-12)

    def test_vanishes_below_threshold(self, pair):
        assert chi_phi(_eig([0.9, 0.5, 0.1]), pair) == 0

    def test_single_eigenvalue_bound(self, pair):
        eig = _eig([2.0])
        dev = abs(chi(eig) - chi_phi(eig, pair))
        assert dev == pytest.approx(2 * (1 - pair.phi(math.log(2))), abs=1e-12)
        assert dev <= math.e

    def test_report_invariant(self, pair, rng):
        for _ in range(25):
            m = _random_matrix(rng, 5, math.exp(rng.uniform(-1, 2)))
            rep = functional_report(m, pair)
            assert abs(rep.chi - rep.chi_phi) <= math.e * rep.nu + 1e-9

    def test_report_rejects_inconsistency(self):
        # a broken invariant is an internal fault (exit 3), not an input error
        with pytest.raises(NumericalError, match="strays beyond e"):
            FunctionalReport(nu=0, mu=0.0, chi=5.0 + 0j, chi_phi=0j)

    @pytest.mark.parametrize(("nu_value", "mu_value"), [(-1, 0.0), (0, -1.0), (0, math.inf), (0, math.nan)])
    def test_report_rejects_bad_counts(self, nu_value, mu_value):
        with pytest.raises(NumericalError, match="finite and nonnegative"):
            FunctionalReport(nu=nu_value, mu=mu_value, chi=0j, chi_phi=0j)


class TestFHat:
    def test_requires_delta(self, pair):
        eig = _eig([2.0])
        with pytest.raises(ValueError):
            f_hat(eig, lambda z: eval_h(pair, z), 0.0)

    def test_zero_inside_disk(self, pair):
        eig = _eig([0.9, 0.5])
        assert f_hat(eig, lambda z: eval_h(pair, z), 1.0) == 0.0

    def test_g_hat_bounded_by_c1_mu(self, pair, rng):
        # 0 <= g_hat(S) <= c1 * mu(S)
        for _ in range(40):
            m = _random_matrix(rng, 6, math.exp(rng.uniform(-1, 2)))
            eig = eigenvalue_sequence(m)
            val = f_hat(eig, lambda z: eval_g(pair, z), 1.0)
            assert -1e-12 <= val <= pair.c1 * mu(eig) + 1e-9

    def test_g_minus_h_recovers_chi_phi(self, pair, rng):
        # g_hat(S) - h_hat(S) = Re chi_phi(S)
        for _ in range(100):
            m = _random_matrix(rng, 5, math.exp(rng.uniform(-2, 2)))
            eig = eigenvalue_sequence(m)
            g_val = f_hat(eig, lambda z: eval_g(pair, z), 1.0)
            h_val = f_hat(eig, lambda z: eval_h(pair, z), 1.0)
            assert g_val - h_val == pytest.approx(chi_phi(eig, pair).real, abs=1e-10)


class TestCircleMean:
    def test_zero_perturbation_is_identity(self, pair, rng):
        s = _random_matrix(rng, 4, 2.0)
        f = lambda z: eval_h(pair, z)
        lhs = f_hat(eigenvalue_sequence(s), f, 1.0)
        assert circle_mean(s, np.zeros((4, 4)), f, nodes=16) == pytest.approx(lhs, abs=1e-12)

    def test_submean_with_fine_oracle(self, pair, rng):
        # 512-node mean stays above h_hat(S); agreement with a 4096-node
        # direct quadrature is high even through threshold crossings (the
        # tight doubling bound is asserted on smooth trials in acceptance)
        f = lambda z: eval_h(pair, z)
        for _ in range(5):
            s = _random_matrix(rng, 4, math.exp(rng.uniform(-0.5, 1.0)))
            t = _random_matrix(rng, 4)
            coarse = circle_mean(s, t, f, nodes=512)
            fine = circle_mean(s, t, f, nodes=4096)
            assert coarse >= f_hat(eigenvalue_sequence(s), f, 1.0) - 1e-7
            assert coarse == pytest.approx(fine, abs=2e-5)

    def test_pencil_form(self, pair, rng):
        # mean of h_hat over F(e^{i theta}) dominates h_hat(F(0)) = h_hat(T/2)
        f = lambda z: eval_h(pair, z)
        m = _random_matrix(rng, 4, 3.0)
        mean = circle_mean(m / 2, m.conj().T / 2, f, nodes=256)
        assert mean >= f_hat(eigenvalue_sequence(m / 2), f, 1.0) - 1e-8

    def test_rejects_few_nodes(self, pair):
        with pytest.raises(ValueError):
            circle_mean(np.eye(2), np.eye(2), lambda z: eval_h(pair, z), nodes=4)


def _loop_circle_mean(s, t, f, nodes=512, delta=1.0):
    """The former circle_mean: one eigensolve and one f_hat call per node."""
    if nodes < 8:
        raise ValueError("need at least 8 quadrature nodes")
    s = validate_matrix(s)
    t = validate_matrix(t)
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = [f_hat(eigenvalue_sequence(s + np.exp(1j * th) * t), f, delta) for th in thetas]
    return math.fsum(vals) / nodes


class TestStackedCircleMean:
    """circle_mean solves a block of nodes at once and calls f once per
    block; the per-node loop is its bit-for-bit oracle."""

    KINDS = ("general", "scaled", "hermitian", "normal-diagonal", "nilpotent", "jordan")
    NODES = (8, 512, 1024, 513)  # 513 is one past the edge of a 512-node block

    def _fns(self, pair):
        return (lambda z: eval_h(pair, z), lambda z: eval_g(pair, z), _huber_log)

    def test_matches_the_loop_on_every_kind(self, pair):
        fns = self._fns(pair)
        rng = np.random.default_rng(17)
        checked = 0
        for i, (ks, kt) in enumerate((ks, kt) for ks in self.KINDS for kt in self.KINDS):
            dim = 1 + i % 6
            s = gen_matrix(ks, dim, rng) * math.exp(rng.uniform(-1.0, 1.0))
            t = np.zeros((dim, dim)) if i % 5 == 0 else gen_matrix(kt, dim, rng)
            f, nodes = fns[i % 3], self.NODES[i % 4]
            want = _loop_circle_mean(s, t, f, nodes)
            assert circle_mean(s, t, f, nodes).hex() == want.hex(), (ks, kt, dim, nodes)
            checked += want != 0.0
        assert checked >= 24  # most circles cross the threshold somewhere

    @pytest.mark.parametrize("nodes", NODES)
    def test_every_f_and_node_count_on_ties(self, pair, nodes):
        # jordan and nilpotent blocks have one eigenvalue of full multiplicity,
        # so the stacked rows tie in modulus at every node
        rng = np.random.default_rng(nodes)
        for f in self._fns(pair):
            for dim in (1, 3, 6):
                s = gen_matrix("jordan", dim, rng) * 1.5
                t = gen_matrix("nilpotent", dim, rng)
                assert circle_mean(s, t, f, nodes).hex() == _loop_circle_mean(s, t, f, nodes).hex()

    def test_no_live_value_at_any_node(self, pair):
        rng = np.random.default_rng(3)
        s = gen_matrix("general", 4, rng) * 0.05
        t = gen_matrix("general", 4, rng) * 0.05
        for f in self._fns(pair):
            assert circle_mean(s, t, f, 1024) == _loop_circle_mean(s, t, f, 1024) == 0.0

    @pytest.mark.parametrize(
        "s, t, nodes",
        [
            (np.full((2, 2), 1e308), np.full((2, 2), 1e308), 16),  # node 0 overflows
            (np.full((1, 1), 1e308), np.full((1, 1), 1e308j), 1024),  # node 621, in block 2, fails
            (np.full((2, 2), 1e308), np.zeros((2, 2)), 16),  # finite nodes, eigenvalues overflow
        ],
        ids=["node-0", "second-block", "eigenvalues"],
    )
    @pytest.mark.parametrize("quiet", [True, False], ids=["errstate", "warnings-as-errors"])
    def test_failing_node_raises_what_the_loop_raises(self, pair, s, t, nodes, quiet):
        f = lambda z: eval_h(pair, z)
        caught = []
        for mean in (_loop_circle_mean, circle_mean):
            with np.errstate(over="ignore" if quiet else "warn", invalid="ignore" if quiet else "warn"):
                with pytest.raises(Exception) as info:
                    mean(s, t, f, nodes)
            caught.append((type(info.value), str(info.value)))
        assert caught[0] == caught[1]

    def test_radius_is_checked(self, pair):
        with pytest.raises(ValueError, match="positive vanishing radius"):
            circle_mean(np.eye(2) * 2, np.eye(2), lambda z: eval_h(pair, z), nodes=8, delta=0.0)


class TestLemmaInequalities:
    def test_additivity_over_direct_sum(self, pair, rng):
        a = _random_matrix(rng, 4, 2.0)
        b = _random_matrix(rng, 3, 0.7)
        both = eigenvalue_sequence(block_diag(a, b))
        ea, eb = eigenvalue_sequence(a), eigenvalue_sequence(b)
        assert nu(both) == nu(ea) + nu(eb)
        assert mu(both) == pytest.approx(mu(ea) + mu(eb), abs=1e-10)
        assert chi(both) == pytest.approx(chi(ea) + chi(eb), abs=1e-10)
        assert chi_phi(both, pair) == pytest.approx(
            chi_phi(ea, pair) + chi_phi(eb, pair), abs=1e-10
        )

    def test_duplicated_block_doubles_nu(self, rng):
        a = _random_matrix(rng, 4, 2.0)
        assert nu(eigenvalue_sequence(block_diag(a, a))) == 2 * nu(eigenvalue_sequence(a))

    def test_scaling_bound(self, rng):
        # |alpha chi(T) - chi(alpha T)| <= nu(T) for |alpha| <= 1
        for _ in range(50):
            m = _random_matrix(rng, 5, math.exp(rng.uniform(-1, 2)))
            eig = eigenvalue_sequence(m)
            alpha = math.sqrt(rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            dev = abs(alpha * chi(eig) - chi(eig.scaled(alpha)))
            assert dev <= nu(eig) + 1e-9

    def test_normal_split_bound(self, rng):
        # normal T: |chi(H) - Re chi(T)| <= nu(T)
        for _ in range(50):
            d = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * math.exp(
                rng.uniform(-1, 1)
            )
            m = np.diag(d)
            h, _ = hermitian_split(m)
            dev = abs(chi(eigenvalue_sequence(h)).real - chi(eigenvalue_sequence(m)).real)
            assert dev <= nu(eigenvalue_sequence(m)) + 1e-9

    def test_hermitian_comparison_constant(self, pair, rng):
        # |chi(H) - Re chi(T)| <= (4 c1 + 52/ln 2) mu(2|T|)
        c2 = derived_c2(pair)
        assert c2 == pytest.approx(4 * pair.c1 + 52 / math.log(2))
        for _ in range(50):
            m = _random_matrix(rng, 6, math.exp(rng.uniform(-2, 2)))
            h, k = hermitian_split(m)
            eig = eigenvalue_sequence(m)
            mu2 = singular_sequence(m).sum_plog(2.0)
            dev_re = abs(chi(eigenvalue_sequence(h)).real - chi(eig).real)
            dev_im = abs(chi(eigenvalue_sequence(k)).real - chi(eig).imag)
            assert max(dev_re, dev_im) <= c2 * mu2 + 1e-9 * (1 + mu2)

    def test_nu_subadditivity_with_doubling(self, rng):
        # nu(|S+T|) <= nu(2|S|) + nu(2|T|) and nu(H) <= 2 nu(|T|)
        for _ in range(50):
            s = _random_matrix(rng, 5, math.exp(rng.uniform(-1, 2)))
            t = _random_matrix(rng, 5, math.exp(rng.uniform(-1, 2)))
            lhs = singular_sequence(s + t).count_ge(1.0)
            rhs = singular_sequence(s).count_ge(0.5) + singular_sequence(t).count_ge(0.5)
            assert lhs <= rhs
            h, _ = hermitian_split(t)
            assert nu(eigenvalue_sequence(h)) <= 2 * singular_sequence(t).count_ge(1.0)
