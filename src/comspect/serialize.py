"""Versioned JSON schemas and a canonical emitter.

All floating-point output is printed with 17 significant digits so values
round-trip exactly; keys are sorted and separators fixed, making every
emitted document byte-stable for identical inputs.  Complex scalars travel
as [re, im] pairs; infinities (divergent sums in evidence maps) as the
strings "inf"/"-inf".
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import SchemaError
from .ideals import EigenLaw, MembershipVerdict
from .sequences import ScalarSequence
from .spectral import EigenSequence

SCHEMA_VERSION = "1"

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "load_json_file",
    "matrix_from_json",
    "scalar_sequence_from_json",
    "eigen_input_from_json",
    "complex_pair",
    "verdict_to_json",
]


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def _emit(obj, out: list) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _require(doc: dict, field: str, kind=None):
    if field not in doc:
        raise SchemaError(f"missing field {field!r}")
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"field {field!r} has wrong type {type(value).__name__}")
    return value


def matrix_from_json(doc) -> np.ndarray:
    """{"n": dim, "entries": [[re, im], ...]} row-major, length n*n."""
    if not isinstance(doc, dict):
        raise SchemaError("matrix document must be a JSON object")
    n = _require(doc, "n", int)
    if isinstance(n, bool) or n < 1:
        raise SchemaError("field 'n' must be a positive integer")
    entries = _require(doc, "entries", list)
    if len(entries) != n * n:
        raise SchemaError(f"field 'entries' must hold n*n = {n * n} pairs, got {len(entries)}")
    flat = [_complex_pair(item, "entries", i) for i, item in enumerate(entries)]
    return np.array(flat, dtype=np.complex128).reshape(n, n)


def _number(value, name: str, index: int | None = None) -> float:
    """A JSON number as a finite float.

    Booleans, strings and null are non-numeric; JSON's NaN and +-Infinity
    literals and integers beyond the float range are non-finite.  The
    diagnostic names the datum as name[index], or as field 'name'.
    """
    if type(value) is float:
        x = value
    elif type(value) is int:  # not bool, whose type is bool
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    else:
        raise SchemaError(f"{_where(name, index)} holds non-numeric data")
    if not math.isfinite(x):
        raise SchemaError(f"{_where(name, index)} must be finite")
    return x


def _where(name: str, index: int | None) -> str:
    return f"field {name!r}" if index is None else f"{name}[{index}]"


def _complex_pair(item, name: str, index: int) -> complex:
    if not (isinstance(item, list) and len(item) == 2):
        raise SchemaError(f"{name}[{index}] must be a [re, im] pair")
    return complex(_number(item[0], name, index), _number(item[1], name, index))


def _float_field(doc: dict, name: str) -> float:
    return _number(_require(doc, name), name)


def _alternating(doc: dict, refusal: str | None) -> bool:
    """The "alternating" flag by one rule: false or absent, or true where
    refusal is None (a criterion power or geometric law); else SchemaError."""
    flag = doc.get("alternating", False)
    if flag is False or (flag is True and refusal is None):
        return flag
    raise SchemaError(f"field 'alternating' must be {refusal or 'true or false'}")


def scalar_sequence_from_json(doc) -> ScalarSequence:
    """Nonnegative nonincreasing sequence: finite, power, or geometric."""
    if not isinstance(doc, dict):
        raise SchemaError("sequence document must be a JSON object")
    _alternating(doc, "false for a nonnegative sequence")
    return _sequence(doc)


def _sequence(doc: dict) -> ScalarSequence:
    """The sequence of a finite document or the bare law of a power or
    geometric one, with the constructors' checks as input errors."""
    kind = _require(doc, "kind", str)
    try:
        if kind == "finite":
            values = _require(doc, "values", list)
            return ScalarSequence(np.array([_number(v, "values", i) for i, v in enumerate(values)], dtype=float))
        if kind == "power":
            return ScalarSequence.power_law(_float_field(doc, "c"), _float_field(doc, "a"))
        if kind == "geometric":
            return ScalarSequence.geometric_law(_float_field(doc, "c"), _float_field(doc, "q"))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    raise SchemaError(f"unknown sequence kind {kind!r}")


_NOT_A_LAW = "false for a matrix or a finite list"


def eigen_input_from_json(doc):
    """Criterion input: a matrix, a finite eigenvalue list, or a decay law.

    A matrix document carries "n"/"entries"; a sequence document carries
    "kind" with finite values allowed as numbers or [re, im] pairs.  Only the
    symbolic kinds may set the "alternating" flag.
    """
    if not isinstance(doc, dict):
        raise SchemaError("criterion input must be a JSON object")
    if "entries" in doc or "n" in doc:
        _alternating(doc, _NOT_A_LAW)
        return matrix_from_json(doc)
    kind = _require(doc, "kind", str)
    alternating = _alternating(doc, _NOT_A_LAW if kind == "finite" else None)
    if kind == "finite":
        values = _require(doc, "values", list)
        vals = [
            _complex_pair(item, "values", i) if isinstance(item, list) else _number(item, "values", i)
            for i, item in enumerate(values)
        ]
        return EigenSequence.from_values(np.array(vals, dtype=np.complex128))
    return EigenLaw(_sequence(doc).tail, alternating)  # a power or geometric law, or the kind's error


def verdict_to_json(v: MembershipVerdict) -> dict:
    return {"status": v.status, "scale": v.scale, "evidence": dict(v.evidence)}


# leading entries a sequence summary shows
_SUMMARY_HEAD = 16


def sequence_summary(s: ScalarSequence) -> dict:
    """The leading entries, tail and repeat of a finite or harmonic witness."""
    c = s.harmonic_coefficient()
    return {
        "head": list(s.head(min(_SUMMARY_HEAD, max(s.base_length * s.repeat, 1)))),
        "tail": None if c is None else {"kind": "power", "c": c, "a": 1.0},
        "repeat": s.repeat,
    }
