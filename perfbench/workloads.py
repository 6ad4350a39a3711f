"""Workload definitions of the comspect benchmark.

Each workload owns a fixed pool of ops generated from MASTER_SEED, so every
op has a reference output digest recorded in ``reference/<workload>.json``.
The run seed only chooses which pool ops a run executes and in which order.
Ops are scheduled in rounds with a fixed mix of op kinds, so that any prefix
of a schedule has nearly the same cost profile whatever the seed.

Only ``worker.py`` imports this module; it imports comspect lazily so that
the set-up time of a workload is measured by the worker, not here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass

MASTER_SEED = 20250809  # the acceptance gate's seed
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# one ideal for every criterion op keeps op costs comparable across seeds
CRITERION_IDEAL = "schatten:p=1"


@dataclass
class Outcome:
    """What one op produced: its wall time, canonical output and exit code."""

    seconds: float
    text: str
    exit: int = 0
    error: str = ""  # the program's own diagnostic line, if any
    first_stderr: str = ""
    warnings: int = 0  # RuntimeWarnings that reached the user
    check: str = ""  # a failed semantic check, beyond the digest

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _failure_text(exit_code: int, error: str) -> str:
    return json.dumps({"error": error, "exit": exit_code}, sort_keys=True) + "\n"


def _program_error_line(stderr: str) -> str:
    """The CLI's own diagnostic, without interpreter warnings and paths."""
    for line in stderr.splitlines():
        if line.startswith(("input error:", "numerical failure:")):
            return line
    return ""


def _first_line(stderr: str) -> str:
    for line in stderr.splitlines():
        if line.strip() and not line.startswith("import time:"):
            return line.strip()
    return ""


class Workload:
    """A workload: a fixed pool of ops and a seeded schedule over it.

    ``imports`` are the comspect modules its set-up imports; ``pool()`` lists
    every op in the order of the reference digests; ``schedule(seed)`` yields
    op ids without end; ``run(op)`` executes one op; ``run_checks()`` names
    the failures that only a whole run can show.  A traced run executes the
    first ``trace_ops`` ops of the schedule.  With ``whole_passes`` a timed
    run repeats those same ops in whole passes instead of stopping mid-way.
    """

    name = ""
    imports: tuple[str, ...] = ()
    trace_ops = 0
    whole_passes = False

    def run_checks(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# suites: one trial of a verify suite through run_suite


SUITES = (
    "weyl", "horn", "lemma2_2", "lemma2_3", "lemma2_4_1", "lemma2_4_2",
    "lemma2_4_3", "lemma2_5", "thm2_7", "thm3_1_cycle", "prop3_2",
)
SUITE_POOL = 384  # trial seeds per suite
CONTROL_TRIALS = 100


class Suites(Workload):
    """Every random suite and its control except lemma2_1_3, one trial per op.

    Op ``<suite>:<k>`` is ``run_suite`` with one trial drawn from seed k, at
    the acceptance gate's dimensions, serialized like ``comspect verify``.
    """

    name = "suites"
    trace_ops = 22 * 100
    imports = ("comspect.verify", "comspect.serialize")

    def __init__(self, workdir: str):
        from comspect import serialize, verify

        # module attributes are looked up per call, so a traced run sees the shim
        self._serialize = serialize
        self._verify = verify
        self.names = [s for base in SUITES for s in (base, base + "_control")]
        self.fired: dict[str, list[int]] = {}  # control -> [trials, violations]

    def pool(self):
        return [f"{s}:{k}" for k in range(SUITE_POOL) for s in self.names]

    def schedule(self, seed: int):
        import numpy as np

        order = np.random.default_rng([MASTER_SEED, seed]).permutation(SUITE_POOL)
        while True:
            for k in order:
                for s in self.names:
                    yield f"{s}:{k}"

    def run(self, op: str) -> Outcome:
        suite, k = op.split(":")
        max_dim = 12 if suite.startswith(("weyl", "horn")) else 10
        cfg = self._verify.SuiteConfig(suite=suite, trials=1, max_dim=max_dim, seed=int(k))
        t0 = time.perf_counter()
        report = self._verify.run_suite(cfg)
        text = self._serialize.canonical_json(
            {
                "schemaVersion": self._serialize.SCHEMA_VERSION,
                "suite": report.suite,
                "trials": report.trials,
                "tolerance": report.tolerance,
                "violations": report.violations,
                "worstSlack": report.worst_slack,
                "empiricalConstants": report.empirical_constants,
                "informativeTrials": report.informative_trials,
                "passed": report.passed,
            }
        )
        seconds = time.perf_counter() - t0
        out = Outcome(seconds, text)
        if suite.endswith("_control"):
            tally = self.fired.setdefault(suite, [0, 0])
            tally[0] += 1
            tally[1] += len(report.violations)
        elif report.violations:
            out.check = "base suite recorded a violation"
        return out

    def run_checks(self) -> list[str]:
        """A control that ran CONTROL_TRIALS trials or more and never fired
        counts as one failed op (the rarest control fires in ~3% of trials)."""
        return [
            f"{s} recorded no violation in {trials} trials"
            for s, (trials, fired) in sorted(self.fired.items())
            if trials >= CONTROL_TRIALS and fired == 0
        ]


# ---------------------------------------------------------------------------
# quadrature: circle means and the Laplacian grid check


QUAD_PAIRS = 200
QUAD_FUNCS = ("h", "g", "huber")
QUAD_STRATUM = 8  # pairs of nearly equal cost; the seed picks one of each
QUAD_STRIDE = 16  # coprime to the 25 strata, near 25 * 0.618


def _huber_log(z):
    """Smoothed log_+ of |z| (the third f of the lemma2_1_3 suite)."""
    import numpy as np

    r = np.abs(z)
    out = np.zeros(r.shape, dtype=float)
    live = r > 1.0
    u = np.log(r[live])
    out[live] = np.where(u < 1.0, 0.5 * u * u, u - 0.5)
    return out


class Quadrature(Workload):
    """Acceptance-4 circle means at 512 and 1024 nodes, and the 400^2 grid.

    The pairs are the acceptance gate's ensemble (dims 2-6, drawn in order
    from MASTER_SEED).  A round is the three means of two pairs at 512 nodes
    and of one pair at 1024 nodes, and one grid check, negated on odd
    rounds.

    A pair's cost ranges over a decade, so the pairs are sorted by a cost
    estimate into strata of QUAD_STRATUM.  Every run visits the strata in
    one order spread over the cost range; the seed picks the pair of each
    stratum.  Runs with different seeds thus run different pairs with
    nearly the same cost profile.
    """

    name = "quadrature"
    trace_ops = 5 * 10
    imports = ("comspect.functionals", "comspect.cutoffs", "comspect.verify", "comspect.serialize")

    def __init__(self, workdir: str):
        import numpy as np

        from comspect import cutoffs, functionals, serialize, spectral
        from comspect.verify import gen_matrix

        self._np = np
        self._cutoffs = cutoffs
        self._functionals = functionals
        self._serialize = serialize
        self._spectral = spectral
        pair = self._pair = cutoffs.default_cutoff_pair()
        self.funcs = {
            "h": lambda z: cutoffs.eval_h(pair, z),
            "g": lambda z: cutoffs.eval_g(pair, z),
            "huber": _huber_log,
        }
        rng = np.random.default_rng(MASTER_SEED)
        kinds = ("general", "scaled", "hermitian", "normal-diagonal")
        self.pairs = []
        for _ in range(QUAD_PAIRS):
            dim = int(rng.integers(2, 7))
            s = gen_matrix(kinds[int(rng.integers(0, 4))], dim, rng)
            t = gen_matrix(kinds[int(rng.integers(0, 4))], dim, rng)
            if rng.random() < 0.5:
                s = s * math.exp(rng.uniform(-1.5, 1.5))
            self.pairs.append((s, t))
        # f is evaluated only at nodes with an eigenvalue outside the unit
        # circle, and psi costs one Chebyshev series per piece of [0, 1] that
        # log|lambda| falls in (about a dozen; twelve equal bins stand in for
        # them): count both over 64 nodes, with numpy alone, so that the
        # order stays put when comspect changes
        cuts = np.linspace(0.0, 1.0, 13)
        thetas = 2.0 * np.pi * np.arange(64) / 64
        cost = []
        for s, t in self.pairs:
            live = pieces = 0
            for th in thetas:
                r = np.abs(np.linalg.eigvals(s + np.exp(1j * th) * t))
                u = np.log(r[r > 1.0])
                live += bool(u.size)
                pieces += np.unique(np.searchsorted(cuts, u[u < 1.0], side="right")).size
            cost.append(live + 2 * pieces)
        self.by_cost = sorted(range(QUAD_PAIRS), key=lambda i: (cost[i], i))

    def pool(self):
        ops = [f"pair{i}:{f}:{n}" for i in range(QUAD_PAIRS) for n in (512, 1024) for f in QUAD_FUNCS]
        return ops + ["grid", "grid_negate"]

    def schedule(self, seed: int):
        strata = QUAD_PAIRS // QUAD_STRATUM
        member = self._np.random.default_rng([MASTER_SEED, seed]).integers(QUAD_STRATUM, size=strata)

        def pick_at(j):  # a golden-ratio stride over the strata, a new member each lap
            k = (j * QUAD_STRIDE) % strata
            return self.by_cost[k * QUAD_STRATUM + (member[k] + j // strata) % QUAD_STRATUM]

        pick = map(pick_at, itertools.count())
        for r in itertools.count():
            for nodes in (512, 512, 1024):
                i = next(pick)
                for f in QUAD_FUNCS:
                    yield f"pair{i}:{f}:{nodes}"
            yield "grid_negate" if r % 2 else "grid"

    def run(self, op: str) -> Outcome:
        if op.startswith("grid"):
            negate = op == "grid_negate"
            t0 = time.perf_counter()
            minimum = self._cutoffs.laplacian_grid_check(self._pair, 0.5, 10.0, 400, negate=negate)
            text = self._serialize.canonical_json({"minLaplacian": minimum})
            out = Outcome(time.perf_counter() - t0, text)
            if (minimum > -1e-3) if negate else (minimum < -1e-6):
                out.check = f"Laplacian minimum {minimum!r} on the wrong side"
            return out
        name, f, nodes = op.split(":")
        s, t = self.pairs[int(name[4:])]
        fn = self.funcs[f]
        t0 = time.perf_counter()
        mean = self._functionals.circle_mean(s, t, fn, nodes=int(nodes), delta=1.0)
        text = self._serialize.canonical_json({"circleMean": mean})
        out = Outcome(time.perf_counter() - t0, text)
        lhs = self._functionals.f_hat(self._spectral.eigenvalue_sequence(s), fn, 1.0)
        if lhs > mean + 1e-6:
            out.check = f"sub-mean-value inequality broken by {lhs - mean!r}"
        return out

# ---------------------------------------------------------------------------
# criterion: in-process comspect.cli.main calls on a generated corpus


CRIT_LISTS = 240
CRIT_MATRICES = 64
CRIT_STABILITY = 32
GOLDEN_STRIDE = 149  # coprime to CRIT_LISTS, near CRIT_LISTS * 0.618

# every run carries the FIXED inputs and one of the DEFECTS, chosen by the
# seed; the defects are inputs that should get a verdict but exit non-zero
# today.  Inputs left out because one op takes most of a run or more are
# listed, with measured times, under "known_slow" in catalogue.json.
FIXED = {
    "law:power-a0.5": {"kind": "power", "c": 1.0, "a": 0.5},
    "law:power-a0.5-alt": {"kind": "power", "c": 1.0, "a": 0.5, "alternating": True},
    "law:power-a1-alt": {"kind": "power", "c": 1.0, "a": 1.0, "alternating": True},
    "probe:1e308": {"kind": "finite", "values": [1e308, 1e308]},
}
DEFECTS = {
    "probe:1-1e-6": {"kind": "finite", "values": [1.0, 1e-6]},
    "probe:diag-1e-7": {"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1e-7, 0.0]]},
    "probe:geometric-c1e300": {"kind": "geometric", "c": 1e300, "q": 0.5},
    "law:geometric": {"kind": "geometric", "c": 1.0, "q": 0.5},
    "law:geometric-alt": {"kind": "geometric", "c": 1.0, "q": 0.5, "alternating": True},
    "law:power-a2": {"kind": "power", "c": 1.0, "a": 2.0},
    "law:power-a2-alt": {"kind": "power", "c": 1.0, "a": 2.0, "alternating": True},
}


def _criterion_corpus():
    """The criterion pool: {item id: input document}, the list ids sorted by
    |total| / min |lambda| (what the alpha scan's cost grows with), and
    {stability document id: ideal}."""
    import numpy as np

    rng = np.random.default_rng([MASTER_SEED, 3])
    docs = {}
    lists = []
    for i in range(CRIT_LISTS):
        n = int(rng.integers(1, 31))
        mods = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), n))
        kind = i % 4
        if kind == 0:  # real, random signs
            vals = mods * rng.choice([-1.0, 1.0], n)
        elif kind == 1:  # complex, random phases
            vals = mods * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        elif kind == 2:  # real, one sign
            vals = mods.astype(complex)
        else:  # cancelling: each value beside its negative
            half = mods[: max(1, n // 2)] * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, max(1, n // 2)))
            vals = np.concatenate([half, -half])
        if kind == 1 or kind == 3:
            values = [[float(z.real), float(z.imag)] for z in vals]
        else:
            values = [float(z.real) for z in vals]
        item = f"list{i:03d}"
        docs[item] = {"kind": "finite", "values": values}
        total = abs(complex(np.sum(vals)))
        lists.append((total / float(np.min(np.abs(vals))), item))
    lists.sort()
    by_cost = [item for _, item in lists]

    kinds = ("general", "hermitian", "normal")
    for i in range(CRIT_MATRICES):
        dim = int(rng.integers(2, 7))
        a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
        kind = kinds[i % 3]
        if kind == "hermitian":
            a = (a + a.conj().T) / 2
        elif kind == "normal":
            a = np.diag(np.diag(a))
        a = a * math.exp(rng.uniform(-1.0, 1.5))
        docs[f"mat{i:02d}"] = {"n": dim, "entries": [[float(z.real), float(z.imag)] for z in a.ravel()]}

    ideals = (("schatten:p=0.5", 2.0), ("schatten:p=1", 1.0), ("schatten:p=2", 0.5), ("weaklp:p=2", 0.5))
    stability = {}
    for i in range(CRIT_STABILITY):
        ideal, inv_p = ideals[i % 4]
        c = math.exp(rng.uniform(-2.0, 2.0))
        shape = (i // 4) % 3
        if shape == 0:
            seq = {"kind": "power", "c": c, "a": inv_p + float(rng.uniform(0.1, 3.0))}
        elif shape == 1:
            seq = {"kind": "geometric", "c": c, "q": float(rng.uniform(0.05, 0.95))}
        else:
            n = int(rng.integers(2, 40))
            seq = {"kind": "finite", "values": sorted((float(v) for v in c * rng.random(n)), reverse=True)}
        docs[f"stab{i:02d}"] = seq
        stability[f"stab{i:02d}"] = ideal
    docs.update(FIXED)
    docs.update(DEFECTS)
    return docs, by_cost, stability


class Criterion(Workload):
    """In-process ``comspect.cli.main`` calls, each writing its document.

    A run starts with the fixed laws and probes and one of the defect inputs
    (chosen by the seed), then repeats rounds of: four matrices through
    spectrum and functional, one through criterion, two finite eigenvalue
    lists and one stability document.  Spectrum and functional documents are
    two thirds of the ops, so the median is theirs.

    The lists follow one sequence for every seed: a golden-ratio stride
    through the pool sorted by cost, so any run's lists spread evenly over
    the cost range.  Their cost spans three decades and a few of them set a
    run's throughput, so the seed varies the matrices, the stability
    documents and the defect input instead.
    """

    name = "criterion"
    # one pass: the five fixed ops and fifteen rounds, about 25 s on a 2-core
    # x86; a fixed op mix keeps the 12 s of fixed ops from deciding how many
    # rounds fit
    trace_ops = 5 + 15 * 12
    whole_passes = True
    imports = ("comspect.cli", "comspect.criterion", "comspect.ideals", "comspect.serialize", "comspect.functionals")

    def __init__(self, workdir: str):
        import numpy as np

        from comspect import cli

        self._np = np
        self._cli = cli
        docs, self.lists, self.stability = _criterion_corpus()
        self.inputs = {}
        for item, doc in docs.items():
            path = os.path.join(workdir, item.replace(":", "_") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.inputs[item] = path
        self.out_path = os.path.join(workdir, "out.json")

    def argv(self, op: str) -> list[str]:
        cmd, item = op.split("/", 1)
        argv = [cmd, "-i", self.inputs[item]]
        if cmd == "criterion":
            argv += ["--ideal", CRITERION_IDEAL]
        elif cmd == "stability":
            argv += ["--ideal", self.stability[item]]
        return argv + ["-o", self.out_path]

    def pool(self):
        ops = [f"criterion/{item}" for item in self.lists]
        for i in range(CRIT_MATRICES):
            ops += [f"{cmd}/mat{i:02d}" for cmd in ("spectrum", "functional", "criterion")]
        ops += [f"stability/{item}" for item in self.stability]
        return ops + [f"criterion/{item}" for item in list(FIXED) + list(DEFECTS)]

    def schedule(self, seed: int):
        rng = self._np.random.default_rng([MASTER_SEED, seed])
        defects = list(DEFECTS)
        yield f"criterion/{defects[seed % len(defects)]}"
        for item in FIXED:
            yield f"criterion/{item}"
        mats = list(rng.permutation(CRIT_MATRICES))
        stab = [list(self.stability)[i] for i in rng.permutation(len(self.stability))]
        r = 0
        while True:
            for j in range(4):
                m = mats[(4 * r + j) % CRIT_MATRICES]
                yield f"spectrum/mat{m:02d}"
                yield f"functional/mat{m:02d}"
            yield f"criterion/mat{mats[(4 * r) % CRIT_MATRICES]:02d}"
            for j in (2 * r, 2 * r + 1):
                yield f"criterion/{self.lists[(j * GOLDEN_STRIDE) % CRIT_LISTS]}"
            yield f"stability/{stab[r % len(stab)]}"
            r += 1

    def run(self, op: str) -> Outcome:
        argv = self.argv(op)
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = self._cli.main(argv)
                seconds = time.perf_counter() - t0
        leaked = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        stderr = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught) + err.getvalue()
        error = _program_error_line(stderr)
        if code == 0:
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = _failure_text(code, error)
        return Outcome(seconds, text, code, error, _first_line(stderr), len(leaked))


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m comspect.cli` process per op


CLI_INPUTS = 4


def _cli_cold_inputs():
    import numpy as np

    rng = np.random.default_rng([MASTER_SEED, 4])
    docs = {}
    for i in range(CLI_INPUTS):
        dim = 2 + i
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        docs[f"m{i}"] = {"n": dim, "entries": [[float(z.real), float(z.imag)] for z in a.ravel()]}
        vals = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3 + i)) * rng.choice([-1.0, 1.0], 3 + i)
        docs[f"l{i}"] = {"kind": "finite", "values": [float(v) for v in vals]}
        docs[f"s{i}"] = {"kind": "power", "c": float(math.exp(rng.uniform(-1, 1))), "a": 1.5 + 0.5 * i}
    return docs


class CliCold(Workload):
    """Cold command-line invocations in the README's forms on tiny inputs.

    A round runs every subcommand once; the seed picks each round's inputs.
    Ops run one at a time; interpreter start and imports are part of each.
    """

    name = "cli_cold"
    # one pass: three rounds, about 30 s on a 2-core x86, so that every run
    # has the same mix
    trace_ops = 3 * 8
    whole_passes = True
    imports = ("comspect.cli",)
    FORMS = ("spectrum", "functional", "cutoff-report", "criterion", "stability", "verify-list", "verify",
             "verify-circle")
    NO_INPUT = ("cutoff-report", "verify-list")

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.importtime = False  # traced form: -X importtime and the shim
        self.child_stats: list[str] = []  # per-layer counts written by traced children
        self.import_logs: list[str] = []  # -X importtime output of traced children
        self.inputs = {}
        for item, doc in _cli_cold_inputs().items():
            path = os.path.join(workdir, item + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.inputs[item] = path

    def argv(self, op: str) -> list[str]:
        form, _, k = op.partition(":")
        if form in ("spectrum", "functional"):
            return [form, "-i", self.inputs[f"m{k}"]]
        if form == "cutoff-report":
            return [form]
        if form == "criterion":
            return [form, "-i", self.inputs[f"l{k}"], "--ideal", CRITERION_IDEAL]
        if form == "stability":
            return [form, "-i", self.inputs[f"s{k}"], "--ideal", "schatten:p=1"]
        if form == "verify-list":
            return ["verify", "--suite", "weyl", "--list"]
        if form == "verify-circle":  # circle means: the quadrature layers in a gated workload
            return ["verify", "--suite", "lemma2_1_3", "--trials", "1", "--seed", k]
        return ["verify", "--suite", "lemma2_3", "--trials", "50", "--seed", k]

    def pool(self):
        ops = []
        for form in self.FORMS:
            if form in self.NO_INPUT:
                ops.append(form)
            else:
                ops += [f"{form}:{k}" for k in range(CLI_INPUTS)]
        return ops

    def schedule(self, seed: int):
        r = 0
        while True:
            for j, form in enumerate(self.FORMS):
                if form in self.NO_INPUT:
                    yield form
                else:
                    yield f"{form}:{(seed + r + j) % CLI_INPUTS}"
            r += 1

    def run(self, op: str) -> Outcome:
        cmd = [sys.executable]
        env = None
        if self.importtime:
            stats = os.path.join(self.workdir, f"child{len(self.child_stats)}.json")
            self.child_stats.append(stats)
            env = dict(os.environ, PERFBENCH_CHILD_TRACE=stats)
            cmd += ["-X", "importtime", os.path.join(HERE, "worker.py"), "--cli-child", "--"]
        else:
            cmd += ["-m", "comspect.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + self.argv(op), capture_output=True, env=env, cwd=ROOT, text=True)
        seconds = time.perf_counter() - t0
        if self.importtime:
            self.import_logs.append(proc.stderr)
        error = _program_error_line(proc.stderr)
        text = proc.stdout if proc.returncode == 0 else _failure_text(proc.returncode, error)
        leaked = sum(1 for line in proc.stderr.splitlines() if "RuntimeWarning" in line)
        return Outcome(seconds, text, proc.returncode, error, _first_line(proc.stderr), leaked)


WORKLOADS = {cls.name: cls for cls in (Suites, Quadrature, Criterion, CliCold)}
