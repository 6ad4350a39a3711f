"""Spectral functionals on eigenvalue sequences.

``nu`` counts eigenvalues of modulus at least 1, ``mu`` sums the positive
logarithms of the moduli, ``chi`` sums the eigenvalues of modulus at least 1,
and ``chi_phi`` is the smoothed variant weighting each eigenvalue by
phi(log|lambda|).  ``f_hat`` lifts any scalar function vanishing near the
origin to a functional, and ``circle_mean`` averages such a functional over
the circle S + e^{i theta} T, which witnesses its sub-mean-value property.

Threshold comparisons (|lambda| >= 1) use the same 12-significant-digit
modulus rounding as the eigenvalue ordering, so the index sets of nu and chi
always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoffs import CutoffPair
from .errors import NumericalError
from .sequences import exceeds_scaled
from .spectral import EigenSequence, eigenvalue_sequence, eigenvalue_stack, validate_matrix

__all__ = [
    "nu",
    "mu",
    "chi",
    "chi_phi",
    "f_hat",
    "circle_mean",
    "FunctionalReport",
    "functional_report",
    "derived_c2",
]


def nu(eig: EigenSequence) -> int:
    """Number of eigenvalues with modulus >= 1."""
    return int(np.count_nonzero(eig.rounded_moduli >= 1.0))


def mu(eig: EigenSequence) -> float:
    """Sum of log_+ |lambda_n| (zero terms for moduli <= 1)."""
    m = eig.moduli
    m = m[m > 1.0]
    return float(np.sum(np.log(m))) if m.size else 0.0


def chi(eig: EigenSequence) -> complex:
    """Sum of the eigenvalues with modulus >= 1."""
    sel = eig.rounded_moduli >= 1.0
    return complex(np.sum(eig.values[sel])) if np.any(sel) else 0j


def chi_phi(eig: EigenSequence, pair: CutoffPair) -> complex:
    """Smoothed threshold sum: sum of lambda_n * phi(log |lambda_n|)."""
    m = eig.moduli
    live = m > 1.0  # phi(log r) = 0 for r <= 1, and log(0) never evaluated
    if not np.any(live):
        return 0j
    w = pair.phi(np.log(m[live]))
    return complex(np.sum(eig.values[live] * w))


def _require_radius(delta) -> None:
    if delta is None or not delta > 0:
        raise ValueError("f must declare a positive vanishing radius delta")


def f_hat(eig: EigenSequence, f, delta: float):
    """Sum of f(lambda_n) over eigenvalues with |lambda_n| > delta.

    ``delta`` declares the radius on which f vanishes; it must be positive
    (this both documents the hypothesis and keeps log-based f away from 0).
    """
    _require_radius(delta)
    vals = eig.values[eig.moduli > delta]
    if vals.size == 0:
        return 0.0
    return float(np.sum(f(vals)))


# nodes per stacked eigensolve: memory is O(_NODE_BLOCK * n^2) at any node count
_NODE_BLOCK = 512


def circle_mean(s, t, f, nodes: int = 512, delta: float = 1.0) -> float:
    """Average of f_hat over the matrix circle S + e^{i theta} T.

    Uses the uniform-node trapezoid rule (equal to the rectangle rule for
    2*pi-periodic integrands, spectrally accurate where the integrand is
    smooth).  Node values are accumulated with math.fsum in node order, so
    the result does not depend on evaluation scheduling.

    The nodes are evaluated in blocks of _NODE_BLOCK: one stacked eigensolve
    per block, and one call of f on the block's values of modulus > delta,
    pooled from many nodes in (node, canonical) order.  So f must act
    elementwise, as h, g and the Huber log do; each node's value is then the
    f_hat of that node, bit for bit.
    """
    if nodes < 8:
        raise ValueError("need at least 8 quadrature nodes")
    s = validate_matrix(s)
    t = validate_matrix(t)
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = []
    for start in range(0, nodes, _NODE_BLOCK):
        vals += _block_f_hat(s, t, thetas[start : start + _NODE_BLOCK], f, delta)
    return math.fsum(vals) / nodes


def _block_f_hat(s, t, thetas, f, delta) -> list[float]:
    """f_hat at the nodes S + e^{i theta} T of one block of angles.

    A block with a non-finite node matrix, a failed solve or non-finite
    eigenvalues is redone node by node, so the first failing node raises
    what eigenvalue_sequence raises there.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            mats = s + np.exp(1j * thetas)[:, None, None] * t
        values = eigenvalue_stack(mats)
    except (ValueError, NumericalError):
        return [f_hat(eigenvalue_sequence(s + np.exp(1j * th) * t), f, delta) for th in thetas]
    _require_radius(delta)
    live = np.abs(values) > delta
    if not live.any():
        return [0.0] * thetas.size
    fv = f(values[live])
    ends = np.cumsum(np.count_nonzero(live, axis=1)).tolist()
    # np.add.reduce is np.sum of a 1-D slice without its Python wrapper
    return [float(np.add.reduce(fv[a:b])) if b > a else 0.0 for a, b in zip([0, *ends[:-1]], ends)]


@dataclass(frozen=True)
class FunctionalReport:
    """The four spectral functionals of one operator."""

    nu: int
    mu: float
    chi: complex
    chi_phi: complex

    def __post_init__(self):
        if self.nu < 0 or self.mu < 0 or not math.isfinite(self.mu):
            raise NumericalError("nu and mu must be finite and nonnegative")
        bound = math.e * self.nu
        if exceeds_scaled(abs(self.chi - self.chi_phi), bound):
            raise NumericalError("smoothed threshold sum strays beyond e * nu")


def functional_report(m, pair: CutoffPair) -> FunctionalReport:
    eig = eigenvalue_sequence(m)
    return FunctionalReport(nu(eig), mu(eig), chi(eig), chi_phi(eig, pair))


def derived_c2(pair: CutoffPair) -> float:
    """The hermitian-part comparison constant 4*c1 + 52/ln 2.

    Assembled from the proof chain 4*c1*mu(|T|) + 44*nu(|T|) + 8*nu(T)
    together with nu(T) <= mu(2T)/ln 2 and mu(2T) <= mu(2|T|).
    """
    return 4.0 * pair.c1 + 52.0 / math.log(2.0)
