"""Tracing shim: spans around calls into comspect's public functions.

``install()`` replaces each traced function in every comspect module
namespace that binds it (``from .spectral import eigenvalue_sequence`` gives
``functionals``, ``criterion`` and ``verify`` their own binding), and the
traced methods on their classes.  Each call records a span (name, start,
end, parent span, op id) in flat in-memory arrays; self time is derived
afterwards from the parent links.  Counts such as array points and alpha-grid
sizes are recorded at the same boundaries.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

MODULES = (
    "comspect", "comspect.sequences", "comspect.spectral", "comspect.cutoffs",
    "comspect.functionals", "comspect.ideals", "comspect.criterion",
    "comspect.verify", "comspect.serialize", "comspect.cli",
)

# (module, attribute) -> span name; several attributes may share a name
FUNCTIONS = {
    ("comspect.spectral", "eigenvalue_sequence"): "spectral.eigenvalue_sequence",
    ("comspect.spectral", "singular_sequence"): "spectral.singular_sequence",
    ("comspect.cutoffs", "make_cutoff_pair"): "cutoffs.make_cutoff_pair",
    ("comspect.cutoffs", "eval_h"): "cutoffs.eval_h",
    ("comspect.cutoffs", "eval_g"): "cutoffs.eval_g",
    ("comspect.cutoffs", "laplacian_grid_check"): "cutoffs.laplacian_grid_check",
    ("comspect.sequences", "round_sig"): "sequences.round_sig",
    ("comspect.functionals", "circle_mean"): "functionals.circle_mean",
    ("comspect.functionals", "f_hat"): "functionals.f_hat",
    ("comspect.functionals", "nu"): "functionals.nu",
    ("comspect.functionals", "mu"): "functionals.mu",
    ("comspect.functionals", "chi"): "functionals.chi",
    ("comspect.functionals", "chi_phi"): "functionals.chi_phi",
    ("comspect.ideals", "cesaro_sequence"): "ideals.cesaro_sequence",
    ("comspect.ideals", "cesaro_membership"): "ideals.cesaro_membership",
    ("comspect.ideals", "max_envelope"): "ideals.max_envelope",
    ("comspect.ideals", "check_geometric_stability"): "ideals.check_geometric_stability",
    ("comspect.criterion", "commutator_membership"): "criterion.commutator_membership",
    ("comspect.criterion", "condition4_check"): "criterion.condition4_check",
    ("comspect.criterion", "condition5_check"): "criterion.condition5_check",
    ("comspect.criterion", "witness_4_to_3"): "criterion.witness_4_to_3",
    ("comspect.verify", "run_suite"): "verify.run_suite",
    ("comspect.serialize", "canonical_json"): "serialize.canonical_json",
    ("comspect.serialize", "load_json_file"): "serialize.parse",
    ("comspect.serialize", "matrix_from_json"): "serialize.parse",
    ("comspect.serialize", "scalar_sequence_from_json"): "serialize.parse",
    ("comspect.serialize", "eigen_input_from_json"): "serialize.parse",
    ("comspect.cli", "main"): "cli.main",
}

# (module, class, method) -> span name
METHODS = {
    ("comspect.sequences", "ScalarSequence", "value"): "sequences.value",
    ("comspect.sequences", "ScalarSequence", "count_ge"): "sequences.count_ge",
    ("comspect.sequences", "ScalarSequence", "sum_plog"): "sequences.sum_plog",
    ("comspect.cutoffs", "ConvexCorrector", "__call__"): "cutoffs.psi",
    ("comspect.cutoffs", "ConvexCorrector", "d1"): "cutoffs.psi",
    ("comspect.cutoffs", "SmoothStep", "__call__"): "cutoffs.phi",
}

# span name -> index of the argument whose array size is counted as points
POINTS = {
    "sequences.round_sig": 0,
    "cutoffs.eval_h": 1,
    "cutoffs.eval_g": 1,
    "cutoffs.psi": 1,
    "cutoffs.phi": 1,
}


def _size(x) -> int:
    size = getattr(x, "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(x)
    except TypeError:
        return 1


class Tracer:
    """In-memory span store with per-boundary counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn, points_arg=None, on_result=None):
        nid = self.name_id(span)
        stack = self._stack
        starts, ends, parents, names, ops = self.start, self.end, self.parent, self.name, self.op
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            if points_arg is not None and len(args) > points_arg:
                counts[span + ".points"] += _size(args[points_arg])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def aggregate(self) -> dict[str, float]:
        """calls and self_s per span name, plus the recorded counters."""
        import numpy as np

        out: dict[str, float] = {}
        n = len(self.start)
        if n:
            start = np.frombuffer(self.start, dtype=np.float64)
            end = np.frombuffer(self.end, dtype=np.float64)
            parent = np.frombuffer(self.parent, dtype=np.int64)
            name = np.frombuffer(self.name, dtype=np.int64)
            dur = end - start
            child = parent >= 0
            covered = np.bincount(parent[child], weights=dur[child], minlength=n)
            self_time = dur - covered
            calls = np.bincount(name, minlength=len(self.names))
            self_sum = np.bincount(name, weights=self_time, minlength=len(self.names))
            for i, span in enumerate(self.names):
                if calls[i]:
                    out[span + ".calls"] = float(calls[i])
                    out[span + ".self_s"] = float(self_sum[i])
        out.update(self.counts)
        return out

    def save(self, path: str) -> None:
        """Write every span out (compressed arrays plus the name table)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _count_matrices(counts, args, result):
    shape = getattr(args[0], "shape", ()) if args else ()
    counts["spectral.matrices"] += shape[0] if len(shape) == 3 else 1


def _count_grid(counts, args, result):
    counts["criterion.grid_points"] += result.witness_scale
    counts["criterion.checks"] += 1


def _count_suite(counts, args, result):
    counts["verify.trials"] += result.trials
    counts["verify.informative"] += result.informative_trials
    counts["verify.violations"] += len(result.violations)


def _count_bytes(counts, args, result):
    counts["serialize.canonical_json.bytes"] += len(result)


# span name -> counter updated from the call's arguments and result
ON_RESULT = {
    "spectral.eigenvalue_sequence": _count_matrices,
    "spectral.singular_sequence": _count_matrices,
    "criterion.condition4_check": _count_grid,
    "criterion.condition5_check": _count_grid,
    "verify.run_suite": _count_suite,
    "serialize.canonical_json": _count_bytes,
}


def install() -> Tracer:
    """Import every comspect module and route the traced names through spans."""
    tracer = Tracer()
    modules = [importlib.import_module(m) for m in MODULES]
    for (module, attr), span in FUNCTIONS.items():
        original = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(span, original, POINTS.get(span), ON_RESULT.get(span))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for (module, cls_name, attr), span in METHODS.items():
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, attr, tracer.wrap(span, vars(cls)[attr], POINTS.get(span)))
    return tracer


def layer_metrics(agg: dict[str, float]) -> dict[str, float]:
    """Derived per-layer figures that need more than one counter."""
    out = dict(agg)
    checks = agg.get("criterion.checks", 0.0)
    out["criterion.grid_points_per_check"] = agg.get("criterion.grid_points", 0.0) / checks if checks else 0.0
    trials = agg.get("verify.trials", 0.0)
    out["verify.informative_ratio"] = agg.get("verify.informative", 0.0) / trials if trials else 0.0
    return out


TRACKED_PACKAGES = ("comspect", "numpy", "scipy", "mpmath")


def fold_importtime(stderr: str) -> dict[str, float]:
    """Seconds of import per top-level package from ``-X importtime`` lines.

    The self time of every imported module goes to its own package when that
    package is tracked, else to its nearest tracked importer (numpy's stdlib
    imports count as numpy).  The four figures partition the import time of
    the tree, so they add up without overlap.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        own, _, name = line[len("import time:"):].split("|", 2)
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((level, int(own), name.strip().split(".")[0]))
    totals = dict.fromkeys(TRACKED_PACKAGES, 0.0)
    stack: list[tuple[int, str | None]] = []
    for level, own, pkg in reversed(entries):  # a module's importer comes first
        while stack and stack[-1][0] >= level:
            stack.pop()
        owner = pkg if pkg in totals else (stack[-1][1] if stack else None)
        if owner is not None:
            totals[owner] += own * 1e-6
        stack.append((level, owner))
    return totals
