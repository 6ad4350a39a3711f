"""Command-line front end.

Subcommands: spectrum, functional, cutoff-report, criterion, stability,
verify.  All outputs are canonical JSON (sorted keys, 17-significant-digit
floats) so a fixed invocation is byte-reproducible.  Exit codes: 0 success,
1 verify found violations, 2 malformed input, 3 numerical failure.

Heavy imports happen inside the handlers, and the package exports resolve
lazily, so ``python -m comspect.cli`` starts without numpy loaded.
``main`` therefore applies the thread cap from the COMSPECT_THREADS
environment variable before numpy's first import.  Every command loads
numpy alone: the package imports nothing outside numpy and the standard
library.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys


def _apply_thread_cap() -> None:
    cap = os.environ.get("COMSPECT_THREADS")
    if not cap:
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _positive_int(text: str) -> int:
    """argparse type of the count options: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Reuse is safe: no action has a mutable default (no ``append`` or
    ``nargs`` lists), ``parse_args`` fills a fresh namespace each call, and
    argparse looks up ``sys.stdout``/``sys.stderr`` when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="comspect",
        description="Spectral functionals and commutator-subspace membership at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_input=True):
        if needs_input:
            p.add_argument("-i", "--input", required=True, help="input JSON path")
        p.add_argument("-o", "--output", help="output path (default: stdout)")

    p = sub.add_parser("spectrum", help="eigenvalue and singular value sequences")
    add_io(p)

    p = sub.add_parser("functional", help="threshold functionals of a matrix")
    add_io(p)

    p = sub.add_parser("cutoff-report", help="cutoff constants and subharmonicity check")
    add_io(p, needs_input=False)
    p.add_argument("--grid-size", type=int, default=400)

    p = sub.add_parser("criterion", help="commutator-subspace membership report")
    add_io(p)
    p.add_argument("--ideal", required=True, help="e.g. schatten:p=1 or weaklp:p=2")
    p.add_argument("--emit-table", help="write an (n, c_n, u_n) CSV here")
    p.add_argument("--table-rows", type=_positive_int, default=200)
    p.add_argument("--prefix-length", type=_positive_int, default=10**6)

    p = sub.add_parser("stability", help="geometric stability report for a sequence")
    add_io(p)
    p.add_argument("--ideal", required=True)
    p.add_argument("--n-max", type=_positive_int, default=100_000)
    p.add_argument("--emit-table", help="write an (n, s_n, t_n, u_n) CSV here")
    p.add_argument("--table-rows", type=_positive_int, default=200)

    p = sub.add_parser("verify", help="run a randomized inequality suite")
    add_io(p, needs_input=False)
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--json", dest="json_out", help="also write the report JSON here")
    p.add_argument("--list", action="store_true", help="list suite names and exit")
    return parser


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, path: str | None) -> str:
    """Write doc with its schemaVersion as canonical JSON; returns the text."""
    from .serialize import SCHEMA_VERSION, canonical_json

    text = canonical_json({"schemaVersion": SCHEMA_VERSION, **doc})
    _write(text, path)
    return text


def _cmd_spectrum(args) -> int:
    from .serialize import complex_pair, load_json_file, matrix_from_json
    from .spectral import eigenvalue_sequence, singular_sequence

    m = matrix_from_json(load_json_file(args.input))
    eig = eigenvalue_sequence(m)
    sing = singular_sequence(m)
    doc = {
        "n": int(m.shape[0]),
        "eigenvalues": [complex_pair(z) for z in eig.values],
        "singularValues": list(sing.prefix),
    }
    _emit(doc, args.output)
    return 0


def _cmd_functional(args) -> int:
    from .cutoffs import default_cutoff_pair
    from .functionals import functional_report
    from .serialize import complex_pair, load_json_file, matrix_from_json

    m = matrix_from_json(load_json_file(args.input))
    rep = functional_report(m, default_cutoff_pair())
    doc = {
        "nu": rep.nu,
        "mu": rep.mu,
        "chi": complex_pair(rep.chi),
        "chiPhi": complex_pair(rep.chi_phi),
    }
    _emit(doc, args.output)
    return 0


def _cmd_cutoff_report(args) -> int:
    from .cutoffs import default_cutoff_pair, laplacian_grid_check

    pair = default_cutoff_pair()
    minimum = laplacian_grid_check(pair, 0.5, 10.0, args.grid_size)
    doc = {
        "c1": pair.c1,
        "psi1": pair.psi.value_at_one,
        "psiSlope": pair.psi.slope_at_one,
        "minLaplacian": minimum,
    }
    _emit(doc, args.output)
    return 0


def _write_table(path: str, rows: int, columns: dict) -> None:
    """CSV of n = 1..rows and one 17-digit column per (name, n -> value)."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", *columns])
        for n in range(1, rows + 1):
            writer.writerow([n, *(f"{float(col(n)):.17g}" for col in columns.values())])


def _emit_cu_table(path: str, report, rows: int) -> None:
    """The Cesàro means c_n beside the condition-(3) witness u_n of the
    report, both over the eigenvalue list the witness was built from."""
    lam = report.witness_sequence
    means = lam.cesaro_means

    def c_n(n):
        return means[n - 1] if n <= means.size else lam.net_total / n

    _write_table(path, rows, {"c_n": c_n, "u_n": report.condition3_witness.value})


def _check_json(check) -> dict:
    return {
        "holds": check.holds,
        "worstRatio": check.worst_ratio,
        "witnessScale": check.witness_scale,
        "failingAlpha": check.failing_alpha,
    }


def _cmd_criterion(args) -> int:
    from .criterion import commutator_membership
    from .ideals import IdealSpec
    from .serialize import eigen_input_from_json, load_json_file, sequence_summary, verdict_to_json

    ideal = IdealSpec.parse(args.ideal)
    source = eigen_input_from_json(load_json_file(args.input))
    report = commutator_membership(source, ideal, prefix_length=args.prefix_length)
    doc = {
        "verdict": report.verdict,
        "condition2": verdict_to_json(report.condition2),
        "condition3Witness": sequence_summary(report.condition3_witness),
        "condition4": _check_json(report.condition4),
        "condition5": _check_json(report.condition5),
        "witnessScale": report.witness_scale,
        "explanation": "",  # a schema field; both ideal families get the commutator label
    }
    if report.hermitian_split is not None:
        hs = report.hermitian_split
        doc["hermitianSplit"] = {
            "condition2H": verdict_to_json(hs["condition2_h"]),
            "condition2K": verdict_to_json(hs["condition2_k"]),
            "chiDevRe": hs["chi_dev_re"],
            "chiDevIm": hs["chi_dev_im"],
            "bound": hs["bound"],
            "nuT": hs["nu_t"],
            "mu2AbsT": hs["mu_2abs_t"],
        }
    else:
        doc["hermitianSplit"] = None
    _emit(doc, args.output)
    if args.emit_table:
        _emit_cu_table(args.emit_table, report, args.table_rows)
    return 0


def _cmd_stability(args) -> int:
    from .ideals import IdealSpec, check_geometric_stability, dyadic_series_envelope, geometric_mean_seq
    from .serialize import load_json_file, scalar_sequence_from_json, verdict_to_json

    ideal = IdealSpec.parse(args.ideal)
    seq = scalar_sequence_from_json(load_json_file(args.input))
    report = check_geometric_stability(seq, ideal, n_max=args.n_max)
    doc = {
        "inputVerdict": verdict_to_json(report.input_verdict),
        "meanVerdict": verdict_to_json(report.mean_verdict),
        "theta": report.theta,
        "empiricalConstant": report.empirical_constant,
        "proofConstant": report.proof_constant,
        "chainHolds": report.chain_holds,
        "worstChainMargin": report.worst_chain_margin,
        "nChecked": report.n_checked,
    }
    _emit(doc, args.output)
    if args.emit_table:
        t = geometric_mean_seq(seq)
        u = dyadic_series_envelope(seq, report.theta, args.table_rows)
        _write_table(args.emit_table, args.table_rows, {"s_n": seq.value, "t_n": t.value, "u_n": lambda n: u[n - 1]})
    return 0


def _cmd_verify(args) -> int:
    from .verify import SuiteConfig, run_suite, suite_names

    if args.list:
        _emit({"suites": suite_names()}, args.output)
        return 0
    cfg = SuiteConfig(
        suite=args.suite,
        trials=args.trials,
        max_dim=args.max_dim,
        seed=args.seed,
        tolerance=args.tolerance,
        nodes=args.nodes,
    )
    report = run_suite(cfg)
    doc = {
        "suite": report.suite,
        "trials": report.trials,
        "tolerance": report.tolerance,
        "violations": report.violations,
        "worstSlack": report.worst_slack,
        "empiricalConstants": report.empirical_constants,
        "informativeTrials": report.informative_trials,
        "passed": report.passed,
    }
    text = _emit(doc, args.output)
    if args.json_out:
        _write(text, args.json_out)
    return 0 if report.passed else 1


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "functional": _cmd_functional,
    "cutoff-report": _cmd_cutoff_report,
    "criterion": _cmd_criterion,
    "stability": _cmd_stability,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    from .errors import NumericalError, SchemaError

    try:
        return _HANDLERS[args.command](args)
    except (SchemaError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
