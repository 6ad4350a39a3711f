"""Dense spectral computations with reproducible eigenvalue ordering.

Eigenvalues of a (possibly non-normal) complex matrix are computed with the
dense LAPACK solver, so algebraic multiplicities come for free: an n x n
matrix always yields exactly n values.  Values are arranged in decreasing
order of absolute value; ties in modulus (after rounding to 12 significant
digits) are broken by argument in [0, 2*pi) ascending, then by real part
descending, so the sequence is a pure function of the matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigensolverError
from .sequences import STORED_SLACK, ScalarSequence, require_finite, round_sig

__all__ = [
    "EigenSequence",
    "matrix_fingerprint",
    "validate_matrix",
    "eigenvalue_sequence",
    "eigenvalue_stack",
    "singular_sequence",
    "hermitian_split",
]


def matrix_fingerprint(*parts) -> str:
    """Short stable hash of the given matrices' complex128 bytes (bytes objects
    enter as they are), for error reports and violation records."""
    acc = hashlib.sha1()
    for part in parts:
        if not isinstance(part, bytes):
            part = np.ascontiguousarray(part, dtype=np.complex128).tobytes()
        acc.update(part)
    return acc.hexdigest()[:12]


def validate_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    _require_finite_entries(arr)
    return arr


_OVERFLOW = "the {} of a finite matrix overflowed the float range"


def _require_finite_entries(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")


def _canonical_order(values: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues along the last axis, with rounded moduli
    ``mod``, by the deterministic convention."""
    arg = np.angle(values)
    arg = np.where(arg < 0, arg + 2 * np.pi, arg)
    # lexsort: last key is primary
    return np.lexsort((-values.real, arg, -mod), axis=-1)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class EigenSequence:
    """Eigenvalues in canonical order, multiplicities included.

    The data derived from the values (rounded moduli, partial sums, Cesàro
    means and the cancelled total) is computed once, on first use, and held
    read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if vals.size > 1 and np.any(np.diff(self.rounded_moduli) > 0):
            raise ValueError("moduli must be nonincreasing")

    @classmethod
    def from_values(cls, values) -> "EigenSequence":
        vals = np.asarray(values, dtype=np.complex128).ravel()
        mod = round_sig(np.abs(vals))
        order = _canonical_order(vals, mod)
        # round_sig is elementwise, so the sorted values' rounded moduli are the
        # sorted rounded moduli: seed the cache before __post_init__ reads it
        seq = cls.__new__(cls)
        seq.__dict__["rounded_moduli"] = _read_only(mod[order])
        seq.__init__(vals[order])
        return seq

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.values)

    @cached_property
    def rounded_moduli(self) -> np.ndarray:
        """The moduli rounded to ROUND_DIGITS significant digits, the form
        every threshold comparison (|lambda| >= 1, order ties) uses."""
        return _read_only(round_sig(self.moduli))

    @cached_property
    def partial_sums(self) -> np.ndarray:
        """S_n = lambda_1 + ... + lambda_n for n = 1..len(values), in stored order.

        A sum beyond the float range is inf without a warning; the sequences
        built from it reject it as non-finite.
        """
        with np.errstate(over="ignore"):
            return _read_only(np.cumsum(self.values))

    @cached_property
    def cesaro_means(self) -> np.ndarray:
        """The Cesàro means c_n = |S_n| / n over the stored values."""
        sums = self.partial_sums
        return _read_only(np.abs(sums) / np.arange(1, sums.size + 1))

    @cached_property
    def net_total(self) -> float:
        """|S_N| for the whole list, or 0.0 when the values cancel: the total
        is at most STORED_SLACK times sum |lambda_k|.  Beyond the list the
        Cesàro means are exactly net_total / m."""
        sums = self.partial_sums
        total = abs(complex(sums[-1])) if sums.size else 0.0
        # moduli summing beyond the float range give an inf scale, so every total
        # counts as cancelled; the inf partial sums are rejected downstream
        with np.errstate(over="ignore"):
            scale = float(np.sum(self.moduli)) or 1.0
        return 0.0 if total <= STORED_SLACK * scale else total

    def scaled(self, alpha: complex) -> "EigenSequence":
        if alpha == 0:
            return EigenSequence(np.zeros_like(self.values))
        return EigenSequence(self.values * alpha)


def _eigvals(arr: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of a finite matrix or stack, its failures as NumericalError."""
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(matrix_fingerprint(arr), str(exc)) from exc
    require_finite(vals, _OVERFLOW.format("eigenvalues"))
    return vals


def eigenvalue_sequence(m) -> EigenSequence:
    """Eigenvalues of a dense complex matrix, canonical order, multiplicities included."""
    return EigenSequence.from_values(_eigvals(validate_matrix(m)))


def eigenvalue_stack(stack) -> np.ndarray:
    """Eigenvalues of a (k, n, n) stack of finite complex matrices as a (k, n)
    array, each row in canonical order: row i is
    ``eigenvalue_sequence(stack[i]).values`` bit for bit, from one batched
    LAPACK call and one rounding of the moduli."""
    arr = np.asarray(stack, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {arr.shape}")
    _require_finite_entries(arr)
    vals = _eigvals(arr)
    order = _canonical_order(vals, round_sig(np.abs(vals)))
    return np.take_along_axis(vals, order, axis=-1)


def singular_sequence(m) -> ScalarSequence:
    """Singular values (eigenvalues of (T*T)^(1/2)) in nonincreasing order."""
    arr = validate_matrix(m)
    try:
        s = np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(matrix_fingerprint(arr), str(exc)) from exc
    require_finite(s, _OVERFLOW.format("singular values"))
    return ScalarSequence(np.sort(s)[::-1])


def hermitian_split(t) -> tuple[np.ndarray, np.ndarray]:
    """Split T = H + iK with H = (T + T*)/2 and K = (T - T*)/(2i)."""
    arr = validate_matrix(t)
    with np.errstate(over="ignore", invalid="ignore"):
        h = (arr + arr.conj().T) / 2.0
        k = (arr - arr.conj().T) / 2.0j
    require_finite(h, _OVERFLOW.format("hermitian part H"))
    require_finite(k, _OVERFLOW.format("hermitian part K"))
    return h, k
