"""Smooth cutoff machinery: the C-infinity step, its convex corrector, and
the scalar fields built from them.

The step is the standard bump quotient phi(x) = b(x)/(b(x) + b(1-x)) with
b(t) = exp(-1/t) for t > 0, which is 0 for x <= 0 and 1 for x >= 1 and has
closed-form first and second derivatives.  The corrector psi is defined
through its second derivative psi''(x) = e^x (|phi''(x)| + 2|phi'(x)|) on
[0, infinity) and double integration from 0; since phi'' changes sign inside
(0, 1), psi'' has corner points there, so psi' and psi are built as piecewise
Chebyshev interpolants split at the sign changes (spectrally accurate on each
piece, O(1) evaluation) and extended affinely beyond 1 where psi'' vanishes.

The built corrector checks itself against an independent reference: adaptive
Gauss-Legendre quadrature of a plain-``math`` copy of psi'' over the same
pieces, where each piece is bisected until its 32- and 64-point rules agree
to 1e-3 times the check's tolerance.  Only numpy is needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.legendre import leggauss

from .errors import NumericalError

__all__ = [
    "SmoothStep",
    "ConvexCorrector",
    "CutoffPair",
    "c1_constant",
    "make_cutoff_pair",
    "default_cutoff_pair",
    "eval_g",
    "eval_h",
    "laplacian_grid_check",
]

# construction tolerances: the Chebyshev coefficient tail of psi'' (relative
# to its largest coefficient), and the agreement with direct quadrature that
# the built corrector must reach
_INTERP_TOL = 1e-12
_QUADRATURE_TOL = 1e-10
# the paired Gauss-Legendre orders of the reference quadrature, the agreement
# between them that accepts a piece, and the bisection depth where it gives up
_GAUSS_ORDERS = (32, 64)
_GAUSS_TOL = 1e-3 * _QUADRATURE_TOL
_GAUSS_DEPTH = 30
# grid points of the c1 scan over (0, 10]
_C1_GRID = 10_000
# Laplacian stencil step per unit of max(1, |z|)
_LAPLACIAN_STEP = 2e-3


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _bump_jet(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b, b' = b/t^2 and b'' = b(1-2t)/t^4, the derivatives 0 where exp
    already underflowed (avoids inf * 0)."""
    b = _bump(t)
    b1, b2 = np.zeros_like(t), np.zeros_like(t)
    live = b > 0
    bl, tl = b[live], t[live]
    b1[live] = bl / tl**2
    b2[live] = bl * (1.0 - 2.0 * tl) / tl**4
    return b, b1, b2


class SmoothStep:
    """The canonical smooth step (0 below 0, 1 above 1, nondecreasing,
    C-infinity) with analytic first and second derivatives."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 1.0, 1.0, 0.0)
        mid = (x > 0.0) & (x < 1.0)
        if np.any(mid):
            xm = x[mid]
            bx, bc = _bump(xm), _bump(1.0 - xm)
            out[mid] = bx / (bx + bc)
        return out if out.ndim else float(out)

    def d1(self, x):
        out = self._derivatives(x)[0]
        return out if out.ndim else float(out)

    def d2(self, x):
        out = self._derivatives(x)[1]
        return out if out.ndim else float(out)

    def _derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(phi', phi'') at x, from one evaluation of b, b' and b'' at x and 1 - x."""
        x = np.asarray(x, dtype=float)
        d1, d2 = np.zeros_like(x), np.zeros_like(x)
        mid = (x > 0.0) & (x < 1.0)
        if np.any(mid):
            xm = x[mid]
            (bx, b1x, b2x), (bc, b1c, b2c) = _bump_jet(xm), _bump_jet(1.0 - xm)
            d = bx + bc
            n1 = b1x * bc + bx * b1c
            d1[mid] = n1 / d**2
            d2[mid] = (b2x * bc - bx * b2c) / d**2 - 2.0 * n1 * (b1x - b1c) / d**3
        return d1, d2


def _psi_second_scalar(x: float) -> float:
    """psi''(x) = e^x (|phi''(x)| + 2|phi'(x)|) of the canonical step at one float.

    Plain-``math`` evaluation of the same bump-quotient formulas as
    ``SmoothStep.d1``/``d2``, written out separately so the quadrature
    self-check tests the interpolants against an independent implementation
    (and so the quadrature's point evaluations skip numpy's 0-d array
    overhead).  Zero outside (0, 1), where phi is constant.
    """
    if not 0.0 < x < 1.0:
        return 0.0
    c = 1.0 - x
    bx, bc = math.exp(-1.0 / x), math.exp(-1.0 / c)
    # b'(t) = b/t^2 and b''(t) = b(1-2t)/t^4, taken as 0 where b underflowed
    b1x = bx / x**2 if bx > 0 else 0.0
    b1c = bc / c**2 if bc > 0 else 0.0
    b2x = bx * (1.0 - 2.0 * x) / x**4 if bx > 0 else 0.0
    b2c = bc * (1.0 - 2.0 * c) / c**4 if bc > 0 else 0.0
    d = bx + bc
    n1 = b1x * bc + bx * b1c
    d1 = n1 / d**2
    d2 = (b2x * bc - bx * b2c) / d**2 - 2.0 * n1 * (b1x - b1c) / d**3
    return math.exp(x) * (abs(d2) + 2.0 * abs(d1))


@functools.cache
def _gauss_rule(order: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the Gauss-Legendre rule on [-1, 1], built once."""
    nodes, weights = leggauss(order)
    return tuple(zip(nodes.tolist(), weights.tolist()))


def _gauss(fn, lo: float, hi: float, order: int) -> float:
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return half * math.fsum(w * fn(mid + half * t) for t, w in _gauss_rule(order))


def _reference_integral(fn, lo: float, hi: float, depth: int = 0) -> float:
    """Integral of a scalar function over [lo, hi] by adaptive Gauss-Legendre.

    A piece is accepted when its two rules agree to _GAUSS_TOL (relative to
    1 + |integral|) and bisected otherwise; a piece still unresolved at
    depth _GAUSS_DEPTH (width 2^-30 of the start) raises NumericalError.
    """
    coarse, fine = (_gauss(fn, lo, hi, order) for order in _GAUSS_ORDERS)
    if abs(fine - coarse) <= _GAUSS_TOL * (1.0 + abs(fine)):
        return fine
    if depth == _GAUSS_DEPTH:
        raise NumericalError(f"reference quadrature did not converge on [{lo}, {hi}]")
    mid = 0.5 * (lo + hi)
    return _reference_integral(fn, lo, mid, depth + 1) + _reference_integral(fn, mid, hi, depth + 1)


def _reference_psi(x: float, cuts) -> tuple[float, float]:
    """(psi'(x), psi(x)) of the canonical step by the reference quadrature:
    the integrals of psi''(t) and psi''(t) (x - t) over [0, x], split at the
    cuts inside (0, x)."""
    edges = [0.0, *(c for c in cuts if 0 < c < x), x]
    pieces = list(zip(edges[:-1], edges[1:]))
    slope = math.fsum(_reference_integral(_psi_second_scalar, lo, hi) for lo, hi in pieces)
    value = math.fsum(
        _reference_integral(lambda t: _psi_second_scalar(t) * (x - t), lo, hi) for lo, hi in pieces
    )
    return slope, value


def _interpolate_adaptive(fn, lo: float, hi: float) -> Chebyshev:
    """Chebyshev fit with degree escalation until the coefficient tail decays."""
    for deg in (32, 64, 128, 256, 512):
        poly = Chebyshev.interpolate(fn, deg, domain=[lo, hi])
        coef = np.abs(poly.coef)
        scale = coef.max() if coef.max() > 0 else 1.0
        if np.all(coef[-6:] < _INTERP_TOL * scale):
            return poly.trim(_INTERP_TOL * scale * 1e-2)
    raise NumericalError(
        f"Chebyshev interpolation on [{lo}, {hi}] did not reach tolerance {_INTERP_TOL}"
    )


class ConvexCorrector:
    """psi with psi(x) = 0 for x <= 0, the prescribed second derivative on
    [0, 1], and affine continuation (slope psi'(1)) beyond 1."""

    def __init__(self, phi: SmoothStep):
        self._phi = phi

        def second(x):  # 0 outside (0, 1), where phi' and phi'' are
            d1, d2 = phi._derivatives(x)
            return np.exp(x) * (np.abs(d2) + 2.0 * np.abs(d1))

        self.second = second

        # split [0, 1] where phi'' is exactly 0 on the grid: its sign change at
        # 0.5 (the corner of |phi''|) and the zones where it underflows near 0
        # and 1; a sign change strictly between grid points would need a root
        # finder, and the canonical step has none
        grid = np.linspace(0.0, 1.0, 4097)
        vals = phi.d2(grid)
        if np.any(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
            raise NumericalError("phi'' changes sign between two points of the cut grid")
        cuts = [0.0, *grid[1:-1][vals[1:-1] == 0.0].tolist(), 1.0]

        self._pieces: list[tuple[float, float, Chebyshev, Chebyshev]] = []
        d1_left = 0.0  # psi'(0) = 0, forced by the double-integral definition
        val_left = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            s2 = _interpolate_adaptive(second, lo, hi)
            s1 = s2.integ(1, k=[d1_left], lbnd=lo)
            s0 = s1.integ(1, k=[val_left], lbnd=lo)
            self._pieces.append((lo, hi, s0, s1))
            d1_left = float(s1(hi))
            val_left = float(s0(hi))
        self.value_at_one = val_left
        self.slope_at_one = d1_left

        self._self_check(cuts)

    def _self_check(self, cuts) -> None:
        """Compare the interpolants against the reference quadrature of the
        scalar integrand, split at the same cuts."""
        for x in (0.25, 0.5, 0.75, 1.0):
            d1_ref, ref = _reference_psi(x, cuts)
            if abs(d1_ref - self.d1(x)) > _QUADRATURE_TOL * (1 + abs(d1_ref)) or abs(
                ref - self(x)
            ) > _QUADRATURE_TOL * (1 + abs(ref)):
                raise NumericalError(
                    f"corrector quadrature failed to reach {_QUADRATURE_TOL} at x={x}"
                )

    def _eval(self, x, which: int):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        above = x >= 1.0
        if which == 0:
            out[above] = self.value_at_one + (x[above] - 1.0) * self.slope_at_one
        else:
            out[above] = self.slope_at_one
        for lo, hi, s0, s1 in self._pieces:
            sel = (x >= lo) & (x < hi)
            if np.any(sel):
                out[sel] = (s0 if which == 0 else s1)(x[sel])
        return out if out.ndim else float(out)

    def __call__(self, x):
        return self._eval(x, 0)

    def d1(self, x):
        return self._eval(x, 1)


def c1_constant(psi: ConvexCorrector) -> float:
    """Least constant with psi(x) <= c1 * max(x, 0) on a dense grid.

    psi is convex with psi(0) = 0, so psi(x)/x is nondecreasing and tends to
    the affine slope psi'(1); the grid scan over (0, 10] is a safeguard and
    the returned value is the max of both.
    """
    xs = np.linspace(10.0 / _C1_GRID, 10.0, _C1_GRID)
    ratio = float(np.max(psi(xs) / xs))
    return max(ratio, psi.slope_at_one)


@dataclass(frozen=True)
class CutoffPair:
    """The smooth step, its convex corrector, and the linear-bound constant."""

    phi: SmoothStep
    psi: ConvexCorrector
    c1: float


def make_cutoff_pair() -> CutoffPair:
    phi = SmoothStep()
    psi = ConvexCorrector(phi)
    return CutoffPair(phi, psi, c1_constant(psi))


_DEFAULT_PAIR: CutoffPair | None = None


def default_cutoff_pair() -> CutoffPair:
    """Shared lazily-built cutoff pair (construction is deterministic)."""
    global _DEFAULT_PAIR
    if _DEFAULT_PAIR is None:
        _DEFAULT_PAIR = make_cutoff_pair()
    return _DEFAULT_PAIR


def eval_g(pair: CutoffPair, z) -> float | np.ndarray:
    """g(z) = psi(log|z|), with g = 0 on |z| <= 1 (and at z = 0)."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    out = np.zeros(r.shape, dtype=float)
    live = r > 1.0
    if np.any(live):
        out[live] = pair.psi(np.log(r[live]))
    return out if out.ndim else float(out)


def eval_h(pair: CutoffPair, z) -> float | np.ndarray:
    """h(z) = psi(log|z|) - Re(z) * phi(log|z|), zero on |z| <= 1."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    out = np.zeros(r.shape, dtype=float)
    live = r > 1.0
    if np.any(live):
        u = np.log(r[live])
        out[live] = pair.psi(u) - z.real[live] * pair.phi(u)
    return out if out.ndim else float(out)


def laplacian_grid_check(
    pair: CutoffPair,
    r_min: float,
    r_max: float,
    grid_size: int,
    negate: bool = False,
) -> float:
    """Minimum of a step-adapted five-point Laplacian of h over an annulus.

    Sample points form a grid_size x grid_size lattice on the bounding square;
    only points with r_min <= |z| <= r_max are kept.  At each point the
    stencil step is _LAPLACIAN_STEP * max(1, |z|), and the discrete Laplacian
    is Richardson-extrapolated over steps (d, 2d) to cancel the second-order
    truncation term, leaving errors well below 1e-6.
    Subharmonicity of h makes the expected minimum >= -epsilon; ``negate``
    flips the sign of h (the control must then go clearly negative).
    """
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    axis = np.linspace(-r_max, r_max, grid_size)
    xx, yy = np.meshgrid(axis, axis)
    zz = xx + 1j * yy
    rr = np.abs(zz)
    keep = (rr >= r_min) & (rr <= r_max)
    z = zz[keep]
    sign = -1.0 if negate else 1.0

    def lap(delta: np.ndarray) -> np.ndarray:
        stencil = (
            eval_h(pair, z + delta)
            + eval_h(pair, z - delta)
            + eval_h(pair, z + 1j * delta)
            - 4.0 * eval_h(pair, z)
            + eval_h(pair, z - 1j * delta)
        )
        return stencil / delta**2

    d = _LAPLACIAN_STEP * np.maximum(1.0, np.abs(z))
    richardson = (4.0 * lap(d) - lap(2.0 * d)) / 3.0
    return float(np.min(sign * richardson))
