import numpy as np
import pytest
from scipy.linalg import block_diag

from comspect.spectral import (
    EigenSequence,
    eigenvalue_sequence,
    eigenvalue_stack,
    hermitian_split,
    singular_sequence,
)
from comspect.verify import gen_matrix


def _random_matrix(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier characteristic polynomial, independent of eigvals."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ mk) / k
    return coeffs


class TestEigenvalueSequence:
    def test_diagonal_example(self):
        eig = eigenvalue_sequence(np.diag([1.0, 3.0, -2.0j]))
        assert np.allclose(eig.values, [3.0, -2.0j, 1.0])

    def test_jordan_block_multiplicity(self):
        eig = eigenvalue_sequence(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(eig.values, [0.0, 0.0])
        assert eig.values.size == 2

    def test_matches_char_poly_roots(self, rng):
        # independent oracle: Faddeev-LeVerrier coefficients + companion roots
        for _ in range(20):
            m = _random_matrix(rng, 6)
            eig = eigenvalue_sequence(m)
            roots = np.roots(_char_poly_coeffs(m))
            assert np.allclose(
                np.sort_complex(eig.values), np.sort_complex(roots), atol=1e-8
            )

    def test_ordering_is_canonical(self, rng):
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = EigenSequence.from_values(vals)
        b = EigenSequence.from_values(vals[rng.permutation(8)])
        assert np.array_equal(a.values, b.values)

    def test_tie_break_by_argument(self):
        eig = EigenSequence.from_values([-1.0, 1.0, 1.0j, -1.0j])
        # equal moduli: argument ascending in [0, 2*pi)
        assert np.allclose(eig.values, [1.0, 1.0j, -1.0, -1.0j])

    def test_moduli_nonincreasing_enforced(self):
        with pytest.raises(ValueError):
            EigenSequence(np.array([1.0, 2.0], dtype=complex))


class TestEigenvalueStack:
    KINDS = ("general", "scaled", "hermitian", "normal-diagonal", "nilpotent", "jordan")

    @staticmethod
    def _assert_rows_match(stack):
        rows = eigenvalue_stack(stack)
        assert rows.shape == stack.shape[:2] and rows.dtype == np.complex128
        for m, row in zip(stack, rows):
            assert row.tobytes() == eigenvalue_sequence(m).values.tobytes()

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_rows_are_the_sequences_bit_for_bit(self, dim):
        # 6 kinds x 60 matrices per dimension: 2,160 matrices in all; jordan and
        # nilpotent blocks tie every modulus
        rng = np.random.default_rng(dim)
        for kind in self.KINDS:
            stack = np.array([gen_matrix(kind, dim, rng) for _ in range(60)])
            self._assert_rows_match(stack)

    def test_modulus_ties_broken_by_argument_then_real_part(self):
        diags = [
            [2.0, -2.0, 2j, -2j, 1.0],
            [1.0, 1.0j, -1.0, -1.0j, 0.0],
            [1.0, 1.0 + 1e-13, 1.0 - 1e-13, -1.0, 1.0],  # equal after 12-digit rounding
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [3.0, 3.0, 3.0, -3.0, 3j],
        ]
        rng = np.random.default_rng(5)
        stack = np.array([np.diag([d[p] for p in rng.permutation(5)]) for d in diags * 4]).astype(complex)
        self._assert_rows_match(stack)
        assert np.array_equal(eigenvalue_stack(stack[:1])[0], [2.0, 2j, -2.0, -2j, 1.0])

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="stack of square matrices"):
            eigenvalue_stack(np.eye(3))
        with pytest.raises(ValueError, match="stack of square matrices"):
            eigenvalue_stack(np.zeros((2, 3, 2)))
        with pytest.raises(ValueError, match="entries must be finite"):
            eigenvalue_stack(np.array([np.eye(2), np.diag([1.0, np.inf])]))

    def test_overflowing_eigenvalues_are_numerical(self):
        from comspect.errors import NumericalError

        with pytest.raises(NumericalError, match="eigenvalues of a finite matrix overflowed"):
            eigenvalue_stack(np.array([np.eye(2), np.full((2, 2), 1e308)]))


class TestSingularSequence:
    def test_diagonal_example(self):
        s = singular_sequence(np.diag([1.0, 3.0, -2.0j]))
        assert np.allclose(s.prefix, [3.0, 2.0, 1.0])

    def test_nilpotent(self):
        s = singular_sequence(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(s.prefix, [1.0, 0.0])

    def test_matches_gram_eigensolver(self, rng):
        # independent oracle: hermitian eigendecomposition of M*M
        for _ in range(20):
            m = _random_matrix(rng, 7)
            s = singular_sequence(m).prefix
            w = np.linalg.eigh(m.conj().T @ m)[0]
            ref = np.sqrt(np.clip(w, 0, None))[::-1]
            assert np.allclose(s, ref, atol=1e-8)


class TestHermitianSplit:
    def test_hermitian_input(self, rng):
        m = _random_matrix(rng, 5)
        h0 = (m + m.conj().T) / 2
        h, k = hermitian_split(h0)
        assert np.allclose(h, h0)
        assert np.allclose(k, 0)

    def test_explicit_two_by_two(self):
        h, k = hermitian_split(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(h, [[0, 0.5], [0.5, 0]])
        assert np.allclose(k, [[0, -0.5j], [0.5j, 0]])

    def test_reconstruction(self, rng):
        for _ in range(25):
            m = _random_matrix(rng, 6)
            h, k = hermitian_split(m)
            assert np.allclose(h, h.conj().T, atol=1e-14)
            assert np.allclose(k, k.conj().T, atol=1e-14)
            assert np.linalg.norm(h + 1j * k - m) <= 1e-14 * np.linalg.norm(m)


class TestDirectSum:
    def test_eigenvalues_merge_by_modulus(self, rng):
        for _ in range(10):
            a = _random_matrix(rng, 4)
            b = _random_matrix(rng, 3)
            merged = eigenvalue_sequence(block_diag(a, b))
            separate = np.concatenate(
                [eigenvalue_sequence(a).values, eigenvalue_sequence(b).values]
            )
            ref = EigenSequence.from_values(separate)
            assert np.allclose(
                np.sort_complex(merged.values), np.sort_complex(ref.values), atol=1e-8
            )

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigenvalue_sequence(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eigenvalue_sequence(np.array([[np.nan, 0], [0, 1]]))


class TestCesaroData:
    def test_properties_match_their_formulas_bit_for_bit(self, rng):
        from comspect.sequences import round_sig

        for _ in range(20):
            n = int(rng.integers(1, 30))
            lam = EigenSequence.from_values(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            sums = np.cumsum(lam.values)
            assert np.array_equal(lam.rounded_moduli, round_sig(np.abs(lam.values)))
            assert np.array_equal(lam.partial_sums, sums)
            assert np.array_equal(lam.cesaro_means, np.abs(sums) / np.arange(1, n + 1))
            assert lam.net_total == abs(complex(sums[-1]))

    def test_one_rounding_per_eigensolve(self, rng, monkeypatch):
        import comspect.spectral as spectral

        calls = []
        real = spectral.round_sig

        def counting(x):
            calls.append(np.size(x))
            return real(x)

        monkeypatch.setattr(spectral, "round_sig", counting)
        # a diagonal with modulus ties, which the argument breaks
        ties = np.diag([2.0, -2.0, 2j, 1.0, -1.0 + 0j]) + 0j
        for m in (_random_matrix(rng, 6), ties):
            calls.clear()
            lam = spectral.eigenvalue_sequence(m)
            assert calls == [m.shape[0]]
            assert np.array_equal(lam.rounded_moduli, real(np.abs(lam.values)))
            assert not lam.rounded_moduli.flags.writeable
            assert calls == [m.shape[0]]

    def test_computed_once_and_read_only(self):
        lam = EigenSequence(np.array([3.0, -1.0, 0.5], dtype=complex))
        for name in ("rounded_moduli", "partial_sums", "cesaro_means"):
            arr = getattr(lam, name)
            assert getattr(lam, name) is arr
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize(
        ("values", "total"),
        [([2.0, -1.0], 1.0), ([1.0, -0.9999999999999999], 0.0), ([0.0, 0.0], 0.0), ([], 0.0)],
    )
    def test_net_total_cancels_within_stored_slack(self, values, total):
        lam = EigenSequence(np.array(values, dtype=complex))
        assert lam.net_total == total
        assert lam.cesaro_means.size == len(values)

    def test_cesaro_data_is_built_only_in_spectral(self):
        # EigenSequence owns its partial sums, Cesàro means and cancelled
        # total; a module forming them again from the values is a second copy
        import ast
        import pathlib

        import comspect

        found = []
        for path in sorted(pathlib.Path(comspect.__file__).parent.glob("*.py")):
            if path.name == "spectral.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                where = f"{path.name}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    name, arg = node.func.attr, node.args[0] if node.args else None
                    if name == "partial_sums":
                        found.append(f"{where}: .partial_sums()")
                    elif name == "cumsum" and isinstance(arg, ast.Attribute) and arg.attr == "values":
                        found.append(f"{where}: cumsum of .values")
                elif isinstance(node, ast.Name) and node.id == "net_total":
                    found.append(f"{where}: free net_total")
                elif isinstance(node, (ast.FunctionDef, ast.alias)) and getattr(node, "name", "") == "net_total":
                    found.append(f"{where}: defines or imports net_total")
                elif isinstance(node, ast.Constant) and node.value == "net_total":
                    found.append(f"{where}: exports net_total")
        assert found == []
