import math

import numpy as np
import pytest

from comspect.cutoffs import (
    ConvexCorrector,
    SmoothStep,
    _psi_second_scalar,
    _reference_integral,
    _reference_psi,
    c1_constant,
    eval_g,
    eval_h,
    laplacian_grid_check,
)
from comspect.errors import NumericalError


class TestSmoothStep:
    def test_clamped_regions(self):
        phi = SmoothStep()
        assert phi(-1.0) == 0.0
        assert phi(2.0) == 1.0
        assert phi.d1(-0.5) == 0.0 and phi.d2(1.5) == 0.0

    def test_midpoint_symmetry(self):
        phi = SmoothStep()
        assert phi(0.5) == pytest.approx(0.5, abs=1e-15)
        xs = np.linspace(0.01, 0.99, 50)
        assert np.allclose(phi(xs) + phi(1 - xs), 1.0, atol=1e-14)

    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    def test_derivatives_match_finite_differences(self, x):
        phi = SmoothStep()
        h = 1e-6
        fd1 = (phi(x + h) - phi(x - h)) / (2 * h)
        assert phi.d1(x) == pytest.approx(fd1, abs=1e-6)
        # wider step for the second difference: rounding scales as eps/h^2
        h2 = 1e-5
        fd2 = (phi(x + h2) - 2 * phi(x) + phi(x - h2)) / h2**2
        assert phi.d2(x) == pytest.approx(fd2, abs=1e-4 * (1 + abs(fd2)))

    def test_nondecreasing_on_grid(self):
        phi = SmoothStep()
        vals = phi(np.linspace(-1, 2, 3001))
        assert np.all(np.diff(vals) >= -1e-15)


class TestConvexCorrector:
    def test_zero_below_origin(self, pair):
        assert pair.psi(-3.0) == 0.0
        assert pair.psi(0.0) == 0.0

    def test_affine_beyond_one(self, pair):
        psi = pair.psi
        assert psi(2.0) - psi(1.5) == pytest.approx(0.5 * psi.slope_at_one, abs=1e-10)
        xs = np.linspace(1.0, 5.0, 101)
        affine = psi.value_at_one + (xs - 1.0) * psi.slope_at_one
        assert np.allclose(psi(xs), affine, atol=1e-10)

    def test_value_matches_simpson_oracle(self, pair):
        # psi(1) = integral of (1-u) psi''(u) du, composite Simpson on the
        # two smooth pieces split at the corner of |phi''|
        psi = pair.psi

        def simpson(f, a, b, n=4096):
            xs = np.linspace(a, b, n + 1)
            w = np.ones(n + 1)
            w[1:-1:2] = 4
            w[2:-1:2] = 2
            return (b - a) / (3 * n) * float(np.sum(w * f(xs)))

        ref = simpson(lambda u: (1 - u) * psi.second(u), 0.0, 0.5) + simpson(
            lambda u: (1 - u) * psi.second(u), 0.5, 1.0
        )
        assert psi(1.0) == pytest.approx(ref, abs=1e-8)

    def test_smooth_at_zero(self, pair):
        assert pair.psi(1e-9) == pytest.approx(0.0, abs=1e-12)
        assert pair.psi.d1(1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_convexity_on_random_triples(self, pair, rng):
        xs = rng.uniform(-1, 3, 500)
        ys = rng.uniform(-1, 3, 500)
        mids = pair.psi((xs + ys) / 2)
        assert np.all(mids <= (pair.psi(xs) + pair.psi(ys)) / 2 + 1e-10)


class TestSelfCheck:
    def test_scalar_integrand_matches_vector(self, pair):
        near = np.array([1e-3, 1e-4, 1e-5, 1e-6])
        xs = np.concatenate([
            np.linspace(-0.5, 1.5, 2001),
            near, 0.5 - near, 0.5 + near, 1.0 - near,
            [-1.0, -1e-12, 0.0, 1.0, 1.0 + 1e-12, 2.0],
        ])
        vec = pair.psi.second(xs)
        sca = np.array([_psi_second_scalar(float(x)) for x in xs])
        assert np.all(np.abs(sca - vec) <= 1e-14 * np.abs(vec))
        outside = (xs <= 0.0) | (xs >= 1.0)
        assert np.all(vec[outside] == 0.0) and np.all(sca[outside] == 0.0)

    @pytest.mark.parametrize("which", [2, 3])  # the value and the slope interpolant
    def test_perturbed_piece_fails_the_check(self, which):
        psi = ConvexCorrector(SmoothStep())
        cuts = [piece[0] for piece in psi._pieces] + [1.0]
        psi._self_check(cuts)
        k = next(i for i, (lo, hi, _, _) in enumerate(psi._pieces) if lo <= 0.5 < hi)
        piece = list(psi._pieces[k])
        piece[which] = piece[which] + 1e-8
        psi._pieces[k] = tuple(piece)
        with pytest.raises(NumericalError):
            psi._self_check(cuts)


class TestReferenceQuadrature:
    def test_matches_scipy_quad(self, pair):
        from scipy import integrate  # an outside oracle: comspect.cutoffs never imports scipy

        cuts = [piece[0] for piece in pair.psi._pieces] + [1.0]
        pts = [c for c in cuts if 0 < c < 1]
        for x in (0.25, 0.5, 0.75, 1.0):
            slope, value = _reference_psi(x, cuts)
            quad_slope, _ = integrate.quad(_psi_second_scalar, 0.0, x, points=pts, limit=200)
            quad_value, _ = integrate.quad(
                lambda t: _psi_second_scalar(t) * (x - t), 0.0, x, points=pts, limit=200
            )
            assert abs(slope - quad_slope) <= 1e-13
            assert abs(value - quad_value) <= 1e-13

    def test_smooth_integrals_meet_the_piece_tolerance(self):
        assert _reference_integral(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1, abs=1e-15)
        assert _reference_integral(math.cos, 0.0, 40.0) == pytest.approx(math.sin(40.0), abs=1e-13)

    def test_jump_inside_a_piece_raises(self):
        # 1/3 is never a bisection point, so no piece ever isolates the jump
        with pytest.raises(NumericalError, match="did not converge"):
            _reference_integral(lambda t: 1.0 if t > 1.0 / 3.0 else 0.0, 0.0, 1.0)


class TestCanonicalPair:
    # float.hex values of the canonical pair; the build is deterministic, so
    # every bit is pinned
    INTERIOR_CUTS = [
        "0x1.0000000000000p-12", "0x1.0000000000000p-11", "0x1.8000000000000p-11",
        "0x1.0000000000000p-10", "0x1.4000000000000p-10", "0x1.0000000000000p-1",
        "0x1.ff60000000000p-1", "0x1.ff80000000000p-1", "0x1.ffa0000000000p-1",
        "0x1.ffc0000000000p-1", "0x1.ffe0000000000p-1",
    ]

    def test_pinned_bits(self, pair):
        cuts = [piece[0] for piece in pair.psi._pieces[1:]]
        assert [float(c).hex() for c in cuts] == self.INTERIOR_CUTS
        assert pair.psi._pieces[-1][1] == 1.0
        assert pair.c1.hex() == "0x1.454e187d60f0fp+3"
        assert pair.psi.value_at_one.hex() == "0x1.220e53a251550p+2"
        assert pair.psi.slope_at_one.hex() == "0x1.454e187d60f0fp+3"

    def test_sign_change_between_grid_points_raises(self):
        class ShiftedStep(SmoothStep):
            # moves the sign change of phi'' from 0.5 to 0.5 + 1e-5, which is
            # not a point of the 4097-point grid
            def d2(self, x):
                return super().d2(np.asarray(x, dtype=float) - 1e-5)

        with pytest.raises(NumericalError, match="changes sign"):
            ConvexCorrector(ShiftedStep())


class TestC1Constant:
    def test_dominates_unit_value(self, pair):
        assert pair.c1 >= pair.psi(1.0)

    def test_linear_bound_on_grid(self, pair):
        xs = np.linspace(1e-3, 10, 10_000)
        assert np.all(pair.psi(xs) <= pair.c1 * xs + 1e-12)

    def test_positive_slope(self, pair):
        # phi increases somewhere in (0,1), so psi'' > 0 there and c1 > 0
        assert pair.c1 > 0
        assert c1_constant(pair.psi) == pytest.approx(pair.psi.slope_at_one)


class TestFieldEvaluators:
    def test_g_vanishes_inside_disk(self, pair):
        assert eval_g(pair, 0.5) == 0.0
        assert eval_g(pair, 0.0) == 0.0

    def test_g_substitution(self, pair):
        assert eval_g(pair, math.e**2) == pytest.approx(pair.psi(2.0), rel=1e-12)

    def test_h_vanishes_inside_disk(self, pair):
        assert eval_h(pair, 0.3 + 0.2j) == 0.0
        assert eval_h(pair, 0.0) == 0.0

    def test_h_on_negative_axis(self, pair):
        z = -math.e**2
        assert eval_h(pair, z) == pytest.approx(pair.psi(2.0) + math.e**2, rel=1e-12)

    def test_h_on_imaginary_axis(self, pair):
        y = 3.0
        assert eval_h(pair, 1j * y) == pytest.approx(pair.psi(math.log(y)), rel=1e-12)

    def test_vectorized_matches_scalar(self, pair, rng):
        zs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        zs *= np.exp(rng.uniform(-1, 2, 64))
        vec = eval_h(pair, zs)
        assert np.allclose(vec, [eval_h(pair, z) for z in zs], atol=1e-14)


class TestLaplacianGrid:
    def test_inner_annulus_exactly_zero(self, pair):
        assert laplacian_grid_check(pair, 0.1, 0.9, 64) == 0.0

    def test_wide_annulus_nonnegative(self, pair):
        minimum = laplacian_grid_check(pair, 0.5, 10.0, 400)
        assert minimum >= -1e-6

    def test_sign_flip_control_goes_negative(self, pair):
        assert laplacian_grid_check(pair, 0.5, 10.0, 400, negate=True) <= -1e-3

    def test_rejects_bad_annulus(self, pair):
        with pytest.raises(ValueError):
            laplacian_grid_check(pair, 1.0, 0.5, 64)
        with pytest.raises(ValueError):
            laplacian_grid_check(pair, 0.5, 1.0, 8)
