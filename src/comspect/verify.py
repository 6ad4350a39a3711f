"""Randomized property-test harness for the inequality lemmas.

Each suite replays one inequality over seeded random trials and records a
violation whenever lhs > rhs + tolerance * (1 + |rhs|).  Trials are derived
from (seed, trialIndex) only, so reports are reproducible bit-for-bit and
the trial stream is prefix-stable when the trial count changes.  Every suite
has a mutated negative control (suffix ``_control``) asserting a false
variant that must record violations — a guard against vacuously-true
implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cutoffs import default_cutoff_pair, eval_g, eval_h, laplacian_grid_check
from .functionals import chi, chi_phi, circle_mean, derived_c2, f_hat, mu, nu
from .ideals import (
    IdealSpec,
    dyadic_series_envelope,
    geometric_mean_seq,
    membership,
)
from .criterion import (
    condition3_witness,
    condition4_check,
    dominating_witness,
    witness_3_to_4,
    witness_4_to_3,
)
from .sequences import DERIVED_SLACK, PowerTail, ScalarSequence, frac_index
from .spectral import (
    EigenSequence,
    eigenvalue_sequence,
    hermitian_split,
    matrix_fingerprint,
    singular_sequence,
)

__all__ = [
    "SuiteConfig",
    "SuiteReport",
    "gen_matrix",
    "run_suite",
    "suite_names",
]

_KINDS = ("general", "hermitian", "normal-diagonal", "nilpotent", "jordan", "scaled")

# deterministic inequality suites get tight slack; quadrature-backed ones a
# looser one absorbing eigenvalue-crossing kinks (only piecewise smooth there)
_DEFAULT_TOL = 1e-8
_SUITE_TOL = {"lemma2_1_3": 1e-6, "lemma2_1_3_control": 1e-6, "lemma2_6": 1e-6, "lemma2_6_control": 1e-6}


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    trials: int = 1000
    max_dim: int = 8
    seed: int = 0
    tolerance: float | None = None  # None: per-suite default
    nodes: int = 512

    def __post_init__(self):
        if self.trials < 1 or self.max_dim < 2:
            raise ValueError("need trials >= 1 and max_dim >= 2")
        if self.tolerance is not None and not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance}")

    @property
    def resolved_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return _SUITE_TOL.get(self.suite, _DEFAULT_TOL)


@dataclass
class SuiteReport:
    suite: str
    trials: int
    tolerance: float
    violations: list = field(default_factory=list)
    worst_slack: float = -math.inf
    empirical_constants: dict = field(default_factory=dict)
    informative_trials: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class _Trial:
    """One inequality evaluation: the worst lhs/rhs pair of the trial."""

    lhs: float
    rhs: float
    informative: bool
    fingerprint: str
    ratio: float | None = None  # lhs/rhs with rhs > 0, for constant tracking


def _rng_for(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def gen_matrix(kind: str, dim: int, seed) -> np.ndarray:
    """Deterministic random matrix of the requested ensemble kind.

    Entries derive from a complex standard normal, then shaped: hermitian
    symmetrizes, normal-diagonal draws a diagonal, nilpotent keeps the
    strict upper triangle, jordan builds a single Jordan block with a
    log-uniform eigenvalue, and scaled multiplies a general draw by a
    log-uniform factor in [e^-3, e^3] to exercise the modulus-1 threshold.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if kind == "normal-diagonal":
        d = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(2)
        return np.diag(d)
    if kind == "jordan":
        u = rng.uniform(-1.5, 1.5)
        theta = rng.uniform(0, 2 * math.pi)
        lam0 = math.exp(u) * np.exp(1j * theta)
        return np.eye(dim, dtype=complex) * lam0 + np.eye(dim, k=1, dtype=complex)
    a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    if kind == "general":
        return a
    if kind == "hermitian":
        return (a + a.conj().T) / 2
    if kind == "nilpotent":
        return np.triu(a, k=1)
    if kind == "scaled":
        return a * math.exp(rng.uniform(-3.0, 3.0))
    raise ValueError(f"unknown matrix kind {kind!r}")


def _mixed_matrix(rng: np.random.Generator, max_dim: int, kinds=_KINDS) -> np.ndarray:
    dim = int(rng.integers(2, max_dim + 1))
    kind = kinds[int(rng.integers(0, len(kinds)))]
    m = gen_matrix(kind, dim, rng)
    # oversample moduli near 1: most functionals kink at that threshold
    if kind != "scaled" and rng.random() < 0.5:
        m = m * math.exp(rng.uniform(-3.0, 3.0))
    return m


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _normal_matrix(rng: np.random.Generator, max_dim: int) -> np.ndarray:
    """Normal input per the lemma hypotheses: a shaped diagonal, conjugated
    by a random unitary half the time."""
    dim = int(rng.integers(2, max_dim + 1))
    d = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(2)
    d = d * np.exp(rng.uniform(-2.0, 2.0, dim))
    m = np.diag(d)
    if rng.random() < 0.5:
        u = _random_unitary(rng, dim)
        m = u @ m @ u.conj().T
    return m


# ---------------------------------------------------------------------------
# suite bodies: one trial each


def _padded_pair(rng, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Two mixed matrices, the smaller zero-padded to the larger's dimension."""
    s_m = _mixed_matrix(rng, cfg.max_dim)
    t_m = _mixed_matrix(rng, cfg.max_dim)
    d = max(s_m.shape[0], t_m.shape[0])
    return tuple(m if m.shape[0] == d else np.pad(m, ((0, d - m.shape[0]),) * 2) for m in (s_m, t_m))


def _trial_weyl(rng, cfg, mutated: bool) -> _Trial:
    s_m, t_m = _padded_pair(rng, cfg)
    d = s_m.shape[0]
    ss = singular_sequence(s_m)
    st = singular_sequence(t_m)
    ssum = singular_sequence(s_m + t_m)
    sprod = singular_sequence(s_m @ t_m)
    worst = (-math.inf, 0.0, 0.0)
    for m in range(1, d + 1):
        for n in range(1, d + 2 - m):
            lhs = float(ssum.value(m + n - 1))
            rhs = float(ss.value(m)) + float(st.value(n))
            if mutated:
                rhs = max(float(ss.value(m)), float(st.value(n)))
            slack = (lhs - rhs) / (1 + abs(rhs))
            if slack > worst[0]:
                worst = (slack, lhs, rhs)
    for n in range(1, d + 1):
        lhs = float(ssum.value(n))
        rhs = frac_index(ss, n / 2) + frac_index(st, n / 2)
        lhs_p = float(sprod.value(n))
        rhs_p = frac_index(ss, n / 2) * frac_index(st, n / 2)
        for lh, rh in ((lhs, rhs), (lhs_p, rhs_p)):
            if mutated:
                continue
            slack = (lh - rh) / (1 + abs(rh))
            if slack > worst[0]:
                worst = (slack, lh, rh)
    _, lhs, rhs = worst
    return _Trial(lhs, rhs, True, matrix_fingerprint(s_m, t_m))


def _trial_horn(rng, cfg, mutated: bool) -> _Trial:
    t_m = _mixed_matrix(rng, cfg.max_dim)
    eig = eigenvalue_sequence(t_m)
    s = singular_sequence(t_m).prefix
    mods = eig.moduli
    with np.errstate(divide="ignore"):
        lp = np.cumsum(np.log(mods))
        ls = np.cumsum(np.log(s))
    worst = (-math.inf, 0.0, 0.0)
    informative = False
    for n in range(len(mods)):
        lhs, rhs = float(lp[n]), float(ls[n])
        if mutated:
            lhs, rhs = rhs, lhs
        if not math.isfinite(rhs):
            continue  # zero singular value: left side is -inf there too
        informative = True
        slack = (lhs - rhs) / (1 + abs(rhs))
        if slack > worst[0]:
            worst = (slack, lhs, rhs)
    _, lhs, rhs = worst
    return _Trial(lhs, rhs, informative, matrix_fingerprint(t_m))


def _trial_lemma2_2(rng, cfg, mutated: bool) -> _Trial:
    t_m = _mixed_matrix(rng, cfg.max_dim)
    lhs = mu(eigenvalue_sequence(t_m))
    rhs = singular_sequence(t_m).sum_plog(1.0)
    if mutated:
        lhs, rhs = rhs, lhs
    ratio = lhs / rhs if rhs > 0 else None
    return _Trial(lhs, rhs, rhs > 0, matrix_fingerprint(t_m), ratio)


def _nu_scaled_singular(m: np.ndarray, factor: float) -> int:
    return int(singular_sequence(m).count_ge(1.0 / factor))


def _trial_lemma2_3(rng, cfg, mutated: bool) -> _Trial:
    s_m, t_m = _padded_pair(rng, cfg)
    factor = 1.0 if mutated else 2.0
    lhs = float(_nu_scaled_singular(s_m + t_m, 1.0))
    rhs = float(_nu_scaled_singular(s_m, factor) + _nu_scaled_singular(t_m, factor))
    h, _ = hermitian_split(t_m)
    lhs_h = float(nu(eigenvalue_sequence(h)))
    rhs_h = (factor) * _nu_scaled_singular(t_m, 1.0)
    if (lhs_h - rhs_h) > (lhs - rhs):
        lhs, rhs = lhs_h, float(rhs_h)
    return _Trial(lhs, rhs, rhs > 0, matrix_fingerprint(s_m, t_m))


def _trial_lemma2_4_1(rng, cfg, mutated: bool) -> _Trial:
    t_m = _normal_matrix(rng, cfg.max_dim)
    h, _ = hermitian_split(t_m)
    eig_t = eigenvalue_sequence(t_m)
    lhs = abs(chi(eigenvalue_sequence(h)).real - chi(eig_t).real)
    n_t = nu(eig_t)
    rhs = max(n_t - 1.0, 0.0) if mutated else float(n_t)
    ratio = lhs / rhs if rhs > 0 else None
    return _Trial(lhs, rhs, rhs > 0, matrix_fingerprint(t_m), ratio)


def _trial_lemma2_4_2(rng, cfg, mutated: bool) -> _Trial:
    t_m = _mixed_matrix(rng, cfg.max_dim)
    eig = eigenvalue_sequence(t_m)
    mods = eig.moduli
    if rng.random() < 0.25 and mods.size and mods[0] > 1.0:
        alpha = complex(1.0 / mods[0])  # the near-equality regime
    else:
        alpha = math.sqrt(rng.random()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        if rng.random() < 0.3:
            alpha = complex(rng.random())
    lhs = abs(alpha * chi(eig) - chi(eig.scaled(alpha)))
    n_t = nu(eig)
    rhs = 0.5 * n_t if mutated else float(n_t)
    ratio = lhs / rhs if rhs > 0 else None
    return _Trial(lhs, rhs, rhs > 0, matrix_fingerprint(t_m), ratio)


def _trial_lemma2_4_3(rng, cfg, mutated: bool) -> _Trial:
    n_ops = 3 if mutated else int(rng.integers(2, 6))
    dim = int(rng.integers(2, cfg.max_dim + 1))
    diags = []
    for _ in range(n_ops - 1):
        if mutated:
            # sub-threshold summands whose balancer crosses the threshold
            d = 0.9 * np.exp(1j * rng.uniform(0, 2 * math.pi, dim))
        else:
            d = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(2)
            d = d * np.exp(rng.uniform(-1.5, 1.5, dim))
        diags.append(d)
    diags.append(-np.sum(diags, axis=0))  # exact zero sum in a common basis
    chis = []
    nus = []
    for d in diags:
        eig = eigenvalue_sequence(np.diag(d))
        chis.append(chi(eig))
        nus.append(nu(eig))
    lhs = abs(sum(chis))
    factor = (n_ops - 2.0) if mutated else (n_ops - 1.0)
    rhs = factor * sum(nus)
    ratio = lhs / rhs if rhs > 0 else None
    return _Trial(lhs, rhs, rhs > 0, matrix_fingerprint(*[np.diag(d) for d in diags]), ratio)


def _trial_lemma2_5(rng, cfg, mutated: bool) -> _Trial:
    t_m = _mixed_matrix(rng, cfg.max_dim)
    eig = eigenvalue_sequence(t_m)
    pair = default_cutoff_pair()
    lhs = abs(chi(eig) - chi_phi(eig, pair))
    factor = 1.0 if mutated else math.e
    rhs = factor * nu(eig)
    ratio = (lhs / (math.e * nu(eig))) if nu(eig) > 0 else None
    return _Trial(lhs, rhs, rhs > 0, matrix_fingerprint(t_m), ratio)


def _huber_log(z: np.ndarray) -> np.ndarray:
    """Smoothed log_+: gamma(log|z|) with gamma(u) = u^2/2 on (0,1), u - 1/2
    beyond; convex nondecreasing in log|z|, hence genuinely subharmonic."""
    r = np.abs(z)
    out = np.zeros(r.shape, dtype=float)
    live = r > 1.0
    u = np.log(r[live])
    out[live] = np.where(u < 1.0, 0.5 * u * u, u - 0.5)
    return out


def _trial_lemma2_1_3(rng, cfg, mutated: bool) -> _Trial:
    pair = default_cutoff_pair()
    funcs = (
        lambda z: eval_h(pair, z),
        lambda z: eval_g(pair, z),
        _huber_log,
    )
    dim = int(rng.integers(2, min(cfg.max_dim, 6) + 1))
    kinds = ("general", "scaled", "hermitian", "normal-diagonal")
    s_m = gen_matrix(kinds[int(rng.integers(0, 4))], dim, rng)
    t_m = gen_matrix(kinds[int(rng.integers(0, 4))], dim, rng)
    if rng.random() < 0.5:
        s_m = s_m * math.exp(rng.uniform(-1.5, 1.5))
    f = funcs[int(rng.integers(0, 3))]
    lhs = f_hat(eigenvalue_sequence(s_m), f, 1.0)
    rhs = circle_mean(s_m, t_m, f, nodes=cfg.nodes, delta=1.0)
    if mutated:
        lhs, rhs = rhs, lhs
    return _Trial(lhs, rhs, abs(rhs) > 0, matrix_fingerprint(s_m, t_m))


def _trial_thm2_7(rng, cfg, mutated: bool) -> _Trial:
    t_m = _mixed_matrix(rng, cfg.max_dim)
    pair = default_cutoff_pair()
    h, k = hermitian_split(t_m)
    eig_t = eigenvalue_sequence(t_m)
    dev_re = abs(chi(eigenvalue_sequence(h)).real - chi(eig_t).real)
    dev_im = abs(chi(eigenvalue_sequence(k)).real - chi(eig_t).imag)
    lhs = max(dev_re, dev_im)
    mu2 = singular_sequence(t_m).sum_plog(2.0)
    c2 = 0.02 if mutated else derived_c2(pair)
    rhs = c2 * mu2
    ratio = lhs / mu2 if mu2 > 0 else None
    return _Trial(lhs, rhs, mu2 > 0, matrix_fingerprint(t_m), ratio)


def _random_finite_eigen(rng, max_len: int = 50) -> EigenSequence:
    n = int(rng.integers(1, max_len + 1))
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals = vals * np.exp(rng.uniform(-1.0, 1.0, n)) * math.exp(rng.uniform(-2.0, 2.0))
    if rng.random() < 0.2:
        vals = vals.real.astype(complex)  # real spectra hit exact ties
    return EigenSequence.from_values(vals)


def _trial_thm3_1_cycle(rng, cfg, mutated: bool) -> _Trial:
    if mutated:
        return _trial_cycle_control(rng)
    lam = _random_finite_eigen(rng)
    env = condition3_witness(lam)
    margin_c_u = float(np.max(lam.cesaro_means - env.prefix))
    t4 = witness_3_to_4(dominating_witness(lam, env))
    c4 = condition4_check(lam, t4)
    stage2 = 0.0 if (c4.holds and c4.worst_ratio <= 1 + DERIVED_SLACK) else 1.0
    try:
        witness_4_to_3(lam, t4)
        stage3 = 0.0
    except ValueError:
        stage3 = 1.0
    lhs = max(margin_c_u, stage2, stage3)
    return _Trial(lhs, 0.0, True, matrix_fingerprint(lam.values), None)


def _trial_cycle_control(rng) -> _Trial:
    """Factor-2 tightness: a witness satisfying condition (4) exactly while
    the means exceed it pointwise — the un-doubled claim must fail."""
    g = float(rng.uniform(2.2, 3.8))
    lam = EigenSequence(np.array([g, 1, 1, 1, 1], dtype=complex))
    total = g + 4.0
    c_t = math.ceil(total) + 2.0
    m0 = int(math.ceil(c_t))
    prefix = [g]
    j = 1
    while g / j > 1.0:
        prefix.append(g / j)
        j += 1
    prefix += [1.0] * (m0 - len(prefix))
    t = ScalarSequence(np.array(sorted(prefix, reverse=True)), PowerTail(c_t, 1.0))
    c4 = condition4_check(lam, t)
    s_vals = t.head(5)
    # asserted (false) claim: condition (4) alone forces c_n <= s_n(T)
    lhs = float(np.max(lam.cesaro_means - s_vals)) if c4.holds else 0.0
    return _Trial(lhs, 0.0, c4.holds, matrix_fingerprint(np.float64(g).tobytes()), None)


def _random_law_sequence(rng, p: float) -> ScalarSequence:
    c = math.exp(rng.uniform(-2.0, 2.0))
    if rng.random() < 0.5:
        a = 1.0 / p + rng.uniform(0.1, 3.0)
        return ScalarSequence.power_law(c, a)
    return ScalarSequence.geometric_law(c, rng.uniform(0.05, 0.95))


def _trial_prop3_2(rng, cfg, mutated: bool) -> _Trial:
    p = (0.5, 1.0, 2.0)[int(rng.integers(0, 3))]
    ideal = IdealSpec.schatten(p)
    s = _random_law_sequence(rng, p)
    theta = 2.0 / ideal.quasi_norm_exponent
    n_scan = 20_000
    t = geometric_mean_seq(s)
    u_vals = dyadic_series_envelope(s, theta, n_scan)
    t_vals = t.head(n_scan)
    ratio = float(np.max(t_vals / u_vals))
    if mutated:
        lhs, rhs = ratio, 1.0  # claim t <= u with constant 1: false in general
    else:
        lhs, rhs = ratio, (2.0 * math.e) ** theta
        if not membership(t, ideal).is_in:
            lhs, rhs = 1.0, 0.0  # stability itself failed
    return _Trial(lhs, rhs, True, matrix_fingerprint(repr((p, s.tail)).encode()), ratio)


_RANDOM_SUITES = {
    "weyl": _trial_weyl,
    "horn": _trial_horn,
    "lemma2_2": _trial_lemma2_2,
    "lemma2_3": _trial_lemma2_3,
    "lemma2_4_1": _trial_lemma2_4_1,
    "lemma2_4_2": _trial_lemma2_4_2,
    "lemma2_4_3": _trial_lemma2_4_3,
    "lemma2_5": _trial_lemma2_5,
    "lemma2_1_3": _trial_lemma2_1_3,
    "thm2_7": _trial_thm2_7,
    "thm3_1_cycle": _trial_thm3_1_cycle,
    "prop3_2": _trial_prop3_2,
}


def suite_names() -> list[str]:
    names = []
    for base in list(_RANDOM_SUITES) + ["lemma2_6"]:
        names.extend([base, base + "_control"])
    return sorted(names)


def _run_grid_suite(cfg: SuiteConfig, mutated: bool) -> SuiteReport:
    """The subharmonicity grid check is deterministic: one evaluation."""
    tol = cfg.resolved_tolerance
    pair = default_cutoff_pair()
    minimum = laplacian_grid_check(pair, 0.5, 10.0, 400, negate=mutated)
    lhs, rhs = -minimum, 0.0
    report = SuiteReport(cfg.suite, 1, tol)
    slack = lhs - rhs
    report.worst_slack = slack
    report.informative_trials = 1
    report.empirical_constants = {"minLaplacian": minimum}
    if slack > tol:
        report.violations.append(
            {"trialIndex": 0, "fingerprint": "grid", "lhs": lhs, "rhs": rhs, "slack": slack}
        )
    return report


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute a named suite and assemble its deterministic report."""
    name = config.suite
    if name in ("lemma2_6", "lemma2_6_control"):
        return _run_grid_suite(config, name.endswith("_control"))
    base = name.removesuffix("_control")
    mutated = name.endswith("_control")
    if base not in _RANDOM_SUITES:
        raise ValueError(f"unknown suite {name!r}")
    body = _RANDOM_SUITES[base]
    tol = config.resolved_tolerance
    report = SuiteReport(name, config.trials, tol)
    ratios = []
    for trial in range(config.trials):
        rng = _rng_for(config.seed, trial)
        outcome = body(rng, config, mutated)
        slack = (outcome.lhs - outcome.rhs) / (1.0 + abs(outcome.rhs))
        report.worst_slack = max(report.worst_slack, slack)
        if outcome.informative:
            report.informative_trials += 1
        if outcome.ratio is not None:
            ratios.append(outcome.ratio)
        if slack > tol:
            report.violations.append(
                {
                    "trialIndex": trial,
                    "fingerprint": outcome.fingerprint,
                    "lhs": outcome.lhs,
                    "rhs": outcome.rhs,
                    "slack": slack,
                }
            )
    if ratios:
        report.empirical_constants["maxRatio"] = max(ratios)
    return report

