"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one [PASS] line (visible with -s or in captured output);
a failed assertion marks the criterion red.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from comspect.criterion import condition2
from comspect.cutoffs import eval_g, eval_h, laplacian_grid_check
from comspect.functionals import circle_mean, derived_c2, f_hat
from comspect.ideals import EigenLaw, IdealSpec, cesaro_sequence, check_geometric_stability
from comspect.sequences import PowerTail, ScalarSequence
from comspect.spectral import eigenvalue_sequence, eigenvalue_stack
from comspect.verify import SuiteConfig, gen_matrix, run_suite

PKG_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20250809


def _report(num, text):
    print(f"[PASS] acceptance {num}: {text}")


def test_acceptance_1_weyl_horn_suite():
    t0 = time.time()
    weyl = run_suite(SuiteConfig(suite="weyl", trials=10_000, max_dim=12, seed=SEED))
    horn = run_suite(SuiteConfig(suite="horn", trials=10_000, max_dim=12, seed=SEED))
    elapsed = time.time() - t0
    assert weyl.passed, weyl.violations[:3]
    assert horn.passed, horn.violations[:3]
    assert weyl.informative_trials > 5000 and horn.informative_trials > 5000
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds the 2-minute budget"
    _report(1, f"Weyl+Horn, 10^4 pairs each, dims 2-12, zero violations in {elapsed:.0f}s")


@pytest.mark.parametrize(
    "suite", ["lemma2_2", "lemma2_3", "lemma2_4_1", "lemma2_4_2", "lemma2_4_3", "lemma2_5"]
)
def test_acceptance_2_lemma_suites(suite):
    report = run_suite(SuiteConfig(suite=suite, trials=10_000, max_dim=10, seed=SEED))
    assert report.passed, report.violations[:3]
    assert report.informative_trials > report.trials / 2
    control = run_suite(
        SuiteConfig(suite=suite + "_control", trials=1000, max_dim=10, seed=SEED)
    )
    assert len(control.violations) >= 1, "negative control failed to fire"
    _report(
        2,
        f"{suite}: 10^4 trials zero violations; control fired "
        f"{len(control.violations)} times in 10^3",
    )


def test_acceptance_3_subharmonicity_grid(pair):
    minimum = laplacian_grid_check(pair, 0.5, 10.0, 400)
    flipped = laplacian_grid_check(pair, 0.5, 10.0, 400, negate=True)
    assert minimum >= -1e-6, minimum
    assert flipped <= -1e-3, flipped
    _report(3, f"discrete Laplacian on 400^2 annulus: min {minimum:.2e}, control {flipped:.2e}")


def _circle_sweep(s, t, nodes, fns):
    """Eigenvalue sweep over the theta circle, one stacked eigensolve and
    one call of each f; returns per-f node values and the smoothness flag."""
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = eigenvalue_stack(s + np.exp(1j * thetas)[:, None, None] * t)
    mods = np.abs(vals)
    # smooth: no modulus near the kink of phi at e^(1/2), no two eigenvalues close
    smooth = not np.any(np.abs(mods - math.sqrt(math.e)) < 0.05)
    if vals.shape[1] > 1:
        i, j = np.triu_indices(vals.shape[1], 1)
        smooth = smooth and np.min(np.abs(vals[:, i] - vals[:, j])) >= 0.02
    live = mods > 1.0
    ends = np.cumsum(np.count_nonzero(live, axis=1)).tolist()
    values = []
    for f in fns:
        fv = f(vals[live]) if live.any() else None
        values.append([float(np.sum(fv[a:b])) if b > a else 0.0 for a, b in zip([0, *ends[:-1]], ends)])
    return values, smooth


def _loop_circle_sweep(s, t, nodes, fns):
    """The former sweep, one eigensolve per node: the oracle of _circle_sweep."""
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    values = [[] for _ in fns]
    smooth = True
    for th in thetas:
        eig = eigenvalue_sequence(s + np.exp(1j * th) * t)
        vals = eig.values
        mods = np.abs(vals)
        if np.any(np.abs(mods - math.sqrt(math.e)) < 0.05):
            smooth = False
        if vals.size > 1:
            diffs = np.abs(vals[:, None] - vals[None, :])[np.triu_indices(vals.size, 1)]
            if np.min(diffs) < 0.02:
                smooth = False
        live = vals[mods > 1.0]
        for slot, f in zip(values, fns):
            slot.append(float(np.sum(f(live))) if live.size else 0.0)
    return values, smooth


def test_acceptance_4_circle_mean_submean(pair):
    fns = (lambda z: eval_h(pair, z), lambda z: eval_g(pair, z))
    names = ("h", "g")
    rng = np.random.default_rng(SEED)
    smooth_trials = 0
    worst_doubling = 0.0
    for trial in range(200):
        dim = int(rng.integers(2, 7))
        kinds = ("general", "scaled", "hermitian", "normal-diagonal")
        s = gen_matrix(kinds[int(rng.integers(0, 4))], dim, rng)
        t = gen_matrix(kinds[int(rng.integers(0, 4))], dim, rng)
        if rng.random() < 0.5:
            s = s * math.exp(rng.uniform(-1.5, 1.5))
        node_values, smooth = _circle_sweep(s, t, 1024, fns)
        if trial < 3:  # the stacked sweep repeats the per-node one bit for bit
            loop_values, loop_smooth = _loop_circle_sweep(s, t, 1024, fns)
            assert smooth == loop_smooth
            assert [[v.hex() for v in vs] for vs in node_values] == [
                [v.hex() for v in vs] for vs in loop_values
            ]
        for name, f, vals in zip(names, fns, node_values):
            mean_1024 = math.fsum(vals) / 1024
            mean_512 = math.fsum(vals[::2]) / 512
            lhs = f_hat(eigenvalue_sequence(s), f, 1.0)
            assert lhs <= mean_512 + 1e-6, (name, trial, lhs - mean_512)
            if trial < 3:  # the halved sweep is exactly the 512-node rule
                assert mean_512 == pytest.approx(
                    circle_mean(s, t, f, nodes=512), abs=1e-13
                )
            if smooth:
                worst_doubling = max(worst_doubling, abs(mean_1024 - mean_512))
        if smooth:
            smooth_trials += 1
    assert smooth_trials >= 20, "smoothness filter left too few trials"
    assert worst_doubling < 1e-7, worst_doubling
    _report(
        4,
        f"circle means: 200 pairs, f in {{h,g}}, submean slack 1e-6 held; "
        f"doubling drift {worst_doubling:.1e} on {smooth_trials} smooth trials",
    )


def test_acceptance_5_hermitian_comparison(pair):
    c2 = derived_c2(pair)
    report = run_suite(SuiteConfig(suite="thm2_7", trials=10_000, max_dim=10, seed=SEED))
    assert report.passed, report.violations[:3]
    ratio = report.empirical_constants["maxRatio"]
    assert ratio < c2
    _report(
        5,
        f"hermitian-part comparison: 10^4 trials zero violations; "
        f"empirical ratio {ratio:.3f} < C2 = {c2:.3f} (C1 = {pair.c1:.3f})",
    )


def test_acceptance_6_constructive_cycle():
    report = run_suite(SuiteConfig(suite="thm3_1_cycle", trials=1000, max_dim=10, seed=SEED))
    assert report.passed, report.violations[:3]
    assert report.informative_trials == 1000
    _report(6, "constructive cycle: 10^3 sequences, envelope/quadruple/double all exact")


def test_acceptance_7_geometric_stability():
    rng = np.random.default_rng(SEED)
    worst_c = 0.0
    for trial in range(100):
        p = (0.5, 1.0, 2.0)[trial % 3]
        ideal = IdealSpec.schatten(p)
        c = math.exp(rng.uniform(-2.0, 2.0))
        if rng.random() < 0.5:
            s = ScalarSequence.power_law(c, 1.0 / p + rng.uniform(0.1, 3.0))
        else:
            s = ScalarSequence.geometric_law(c, rng.uniform(0.05, 0.95))
        report = check_geometric_stability(s, ideal, n_max=100_000)
        assert report.mean_verdict.status == "In", (trial, p, s.tail)
        assert report.chain_holds
        assert report.empirical_constant <= report.proof_constant
        worst_c = max(worst_c, report.empirical_constant)
    assert math.isfinite(worst_c)
    _report(7, f"geometric stability: 100 laws, n <= 10^5, empirical C = {worst_c:.3f}")


def test_acceptance_8_criterion_instance():
    alt = EigenLaw(PowerTail(1.0, 1.0), alternating=True)
    ces = cesaro_sequence(alt, 10**6)
    n = ces.prefix.size
    limit = n * ces.prefix[-1]
    assert abs(limit - math.log(2)) <= 1e-5, limit
    assert condition2(alt, IdealSpec.schatten(1), 10**6).status == "Out"
    assert condition2(alt, IdealSpec.schatten(2), 10**6).status == "In"

    pos = EigenLaw(PowerTail(1.0, 1.0), alternating=False)
    assert condition2(pos, IdealSpec.schatten(1), 10**6).status == "Out"
    ces_pos = cesaro_sequence(pos, 10**6)
    n2, n1 = 10**6, 5 * 10**5
    slope = (n2 * ces_pos.prefix[n2 - 1] - n1 * ces_pos.prefix[n1 - 1]) / (
        math.log(n2) - math.log(n1)
    )
    direct_ratio = n2 * ces_pos.prefix[n2 - 1] / math.log(n2)
    assert abs(slope - 1.0) <= 1e-3, slope
    _report(
        8,
        f"harmonic instances: n*c_n -> ln2 within {abs(limit - math.log(2)):.1e}; "
        f"log-law limit estimate {slope:.6f} (direct ratio at 10^6: {direct_ratio:.4f})",
    )


def _cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "comspect.cli", *args],
        capture_output=True,
        env=env,
        cwd=PKG_DIR,
    )


def test_acceptance_9_determinism(tmp_path):
    mat = tmp_path / "m.json"
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    mat.write_text(json.dumps({"n": 5, "entries": [[z.real, z.imag] for z in m.ravel()]}))
    commands = [
        ["verify", "--suite", "lemma2_3", "--trials", "200", "--seed", "7"],
        ["verify", "--suite", "thm2_7", "--trials", "100", "--seed", "5"],
        ["spectrum", "-i", str(mat)],
        ["functional", "-i", str(mat)],
    ]
    for args in commands:
        first = _cli(args)
        second = _cli(args)
        assert first.stdout == second.stdout and first.stdout, args
        threads_1 = _cli(args, {"COMSPECT_THREADS": "1"})
        threads_4 = _cli(args, {"COMSPECT_THREADS": "4", "OMP_NUM_THREADS": "4"})
        assert threads_1.stdout == threads_4.stdout == first.stdout, args
    _report(9, "CLI outputs byte-identical across reruns and thread-count settings")
