"""Benchmark of comspect: four closed-loop workloads, one client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload criterion --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30     # every workload, one table
    python3 perfbench/run.py --all --blas-threads 1          # digests at one BLAS thread
    python3 perfbench/run.py --repeat 1-10 --workload suites # spread over seeds
    python3 perfbench/run.py --record                        # rewrite reference digests

Workloads (see workloads.py): ``suites`` (one verify trial per op),
``quadrature`` (circle means and the Laplacian grid), ``criterion``
(in-process ``comspect.cli.main`` calls on a generated corpus) and
``cli_cold`` (one ``python -m comspect.cli`` process per op).  BENCHMARK.json
lists the three whose run-to-run spread fits its bounds; ``quadrature``
spread wider than 0.25 on a noisy 2-core machine, so it runs on request
(``--workload quadrature``, ``--all``) and its layers stay measured through
the lemma2_1_3 form of ``cli_cold``.

A run spawns the workload process (worker.py) SETUP_PROBES + 1 times: the
first ones stop once set-up is done, the last one also runs the timed loop.
``setup_s`` is the median time from spawning a process to its ready line.
The BLAS thread variables are set in the children's environment, before
numpy is imported there.  Every op's output is hashed with SHA-256 and
compared with the reference digest in reference/<workload>.json: an op is
ok, a known defect (an input that should get a verdict but reproduces the
non-zero exit catalogued in catalogue.json), fixed (such an input now exits
0) or failed (anything else).  The result line's ``failed`` counts failed
ops; the table's ``fail_ratio`` is (failed + known defects) / attempted.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see shim.py).  Other lines are the human-readable table and
the failure list.  Outputs of runs go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("suites", "quadrature", "criterion", "cli_cold")
SETUP_PROBES = 4
READY_TIMEOUT = 60.0
RUN_LIMIT = 170.0  # a run stops its worker and fails after this many seconds

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {}
for _name in ("spectral.eigenvalue_sequence", "spectral.singular_sequence", "sequences.value",
              "sequences.count_ge", "sequences.sum_plog", "functionals.f_hat", "functionals.nu",
              "functionals.mu", "functionals.chi", "functionals.chi_phi",
              "criterion.commutator_membership"):
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".self_s"] = "s"
for _name in ("cutoffs.psi", "cutoffs.phi", "cutoffs.eval_h", "cutoffs.eval_g", "sequences.round_sig"):
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".points"] = "count"
    PER_LAYER[_name + ".self_s"] = "s"
for _name in ("cutoffs.laplacian_grid_check", "functionals.circle_mean", "ideals.cesaro_sequence",
              "ideals.cesaro_membership", "ideals.max_envelope", "ideals.check_geometric_stability",
              "criterion.condition4_check", "criterion.condition5_check", "criterion.witness_4_to_3",
              "verify.run_suite", "serialize.parse", "cli.main"):
    PER_LAYER[_name + ".self_s"] = "s"
PER_LAYER.update({
    "spectral.matrices": "count",
    "cutoffs.make_cutoff_pair.s": "s",
    "criterion.grid_points": "count",
    "criterion.grid_points_per_check": "count",
    "verify.informative_ratio": "1",
    "verify.violations": "count",
    "serialize.canonical_json.calls": "count",
    "serialize.canonical_json.self_s": "s",
    "serialize.canonical_json.bytes": "bytes",
    "cli.import_s.comspect": "s",
    "cli.import_s.numpy": "s",
    "cli.import_s.scipy": "s",
    "cli.import_s.mpmath": "s",
    "cli.warnings": "count",
    "trace.overhead_ratio": "1",
})
del _name


class BenchError(Exception):
    """The benchmark could not run (for example, no comspect source tree)."""


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env.pop("COMSPECT_THREADS", None)
    return env


def _spawn(args: list[str], env: dict, importtime: bool, errfile: str) -> tuple[subprocess.Popen, float, dict]:
    """Start a worker and wait for its ready line; returns it with the set-up time.

    The worker's standard error goes to `errfile`, so a chatty child never
    blocks on a full pipe.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [os.path.join(HERE, "worker.py")]
    with open(errfile, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + args, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, text=True)
    ready_to_read, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT)
    line = proc.stdout.readline() if ready_to_read else ""
    setup = time.perf_counter() - t0
    try:
        ready = json.loads(line)
    except json.JSONDecodeError:
        ready = {}
    if not ready.get("ready"):
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process failed during set-up:\n{_read(errfile).strip()}")
    return proc, setup, ready


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, blas_threads: int, record: bool = False) -> dict:
    """One run: set-up probes, then the timed loop; returns the worker's result."""
    from shim import fold_importtime

    env = child_env(blas_threads)
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir = os.path.join(OUT, "work-" + tag)
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(OUT, "runs", tag + ".json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    setups, pairs, imports = [], [], []
    start = time.perf_counter()
    try:
        errfile = os.path.join(workdir, "stderr.txt")
        for _ in range(SETUP_PROBES):
            proc, setup, ready = _spawn(["--workload", workload, "--setup-only"], env, trace, errfile)
            proc.communicate(timeout=READY_TIMEOUT)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe exited {proc.returncode}:\n{_read(errfile).strip()}")
            setups.append(setup)
            pairs.append(ready["pair_s"])
            imports.append(fold_importtime(_read(errfile)))
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), "--workdir", workdir, "--out", out]
        proc, setup, ready = _spawn(args + (["--record"] if record else []), env, False, errfile)
        setups.append(setup)
        pairs.append(ready["pair_s"])
        try:
            proc.communicate(timeout=None if record else max(1.0, RUN_LIMIT - (time.perf_counter() - start)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} did not finish in time")
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}:\n{_read(errfile).strip()}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setups=setups, pair_s=pairs, setup_imports=imports, blas_threads=blas_threads, out=out)
    return result


def summarize(result: dict) -> dict:
    """End-to-end metrics and counts of one untraced run."""
    records = result["records"]
    lat = [r["seconds"] for r in records]
    status = [r["status"] for r in records]
    failed = status.count("failed") + len(result.get("run_checks", []))
    defects = status.count("defect")
    n = len(records)
    return {
        "metrics": {
            "setup_s": statistics.median(result["setups"]),
            "ops_per_s": n / result["wall_s"],
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": (statistics.quantiles(lat, n=10)[8] if n > 1 else lat[0]) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "attempted": n,
        "failed": failed,
        "defects": defects,
        "fixed": status.count("fixed"),
        "fail_ratio": (failed + defects) / n if n else 1.0,
        "warnings": sum(r.get("warnings", 0) for r in records),
        "setup_samples": len(result["setups"]),
    }


def layers(result: dict) -> dict:
    """Per-layer metrics of a traced run."""
    from shim import fold_importtime, layer_metrics

    plain, traced = result["records"], result["traced_records"]
    agg = layer_metrics(result.get("layers", {}))
    out = {name: float(agg.get(name, 0.0)) for name in PER_LAYER}
    out["cutoffs.make_cutoff_pair.s"] = statistics.median(result["pair_s"])
    imports = result["setup_imports"]
    if result.get("child_imports"):
        imports = [fold_importtime(text) for text in result["child_imports"]]
    for pkg in ("comspect", "numpy", "scipy", "mpmath"):
        out[f"cli.import_s.{pkg}"] = statistics.median(i[pkg] for i in imports)
    out["cli.warnings"] = float(sum(r.get("warnings", 0) for r in traced))
    base = sum(r["seconds"] for r in plain)
    out["trace.overhead_ratio"] = sum(r["seconds"] for r in traced) / base if base else 0.0
    return out


def trace_mismatches(result: dict) -> list[str]:
    """Ops whose traced output differs from the untraced one."""
    return [
        a["op"]
        for a, b in zip(result["records"], result["traced_records"])
        if a["digest"] != b["digest"] or a["exit"] != b["exit"]
    ]


def print_table(workload: str, result: dict, summary: dict) -> None:
    m = summary["metrics"]
    n = summary["attempted"]
    print(f"== {workload}  seed {result['seed']}  blas_threads {result['blas_threads']}  "
          f"timed {result['wall_s']:.2f} s")
    print(f"  {'metric':<12} {'value':>12}  {'unit':<4}  samples")
    rows = [
        ("setup_s", m["setup_s"], "s", f"{summary['setup_samples']} set-ups"),
        ("ops_per_s", m["ops_per_s"], "1/s", f"{n} ops"),
        ("op_p50_ms", m["op_p50_ms"], "ms", f"{n} ops"),
        ("op_p90_ms", m["op_p90_ms"], "ms", f"{n} ops" + ("" if n >= 100 else " (fewer than 100)")),
        ("fail_ratio", summary["fail_ratio"], "1",
         f"{summary['failed'] + summary['defects']} failed / {n} attempted "
         f"({summary['defects']} known defects, {summary['failed']} unexpected, {summary['fixed']} fixed; "
         f"{summary['warnings']} RuntimeWarnings leaked)"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "1 process"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<12} {value:>12.4f}  {unit:<4}  {note}")
    for rec in result["records"]:
        if rec["status"] in ("failed", "defect"):
            print(f"  {rec['status']:<7} {rec['op']}: exit {rec['exit']}; "
                  f"{rec.get('reason') or rec.get('error') or ''}; first stderr line: {rec.get('first_stderr', '')!r}")
    for line in result.get("run_checks", []):
        print(f"  failed  {line}")


def one_run(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.blas_threads)
    summary = summarize(result)
    print_table(args.workload, result, summary)
    failed = summary["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers(result).items()}
        mismatched = trace_mismatches(result)
        for op in mismatched:
            print(f"  failed  {op}: traced output differs from the untraced one")
        failed += len(mismatched) + sum(r["status"] == "failed" for r in result["traced_records"])
        attempted = summary["attempted"] + len(result["traced_records"])
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in summary["metrics"].items()}
        attempted = summary["attempted"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def all_runs(args) -> int:
    rows = []
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, False, args.blas_threads)
        summary = summarize(result)
        print_table(workload, result, summary)
        rows.append((workload, summary))
    print()
    print(f"{'workload':<11}" + "".join(f"{k + ' [' + u + ']':>20}" for k, u in END_TO_END.items())
          + f"{'fail_ratio [1]':>20}{'failed/attempted':>18}")
    for workload, s in rows:
        print(f"{workload:<11}" + "".join(f"{s['metrics'][k]:>20.4f}" for k in END_TO_END)
              + f"{s['fail_ratio']:>20.4f}{str(s['failed'] + s['defects']) + '/' + str(s['attempted']):>18}")
    ok = all(s["failed"] == 0 for _, s in rows)
    print(json.dumps({"correct": ok, "workloads": {w: s for w, s in rows}}))
    return 0


def _seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def repeat_runs(args) -> int:
    """Spread of each end-to-end metric over seeds, against BENCHMARK.json's bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    gated = [w["name"] for w in bench["workloads"]]
    workloads = gated if args.workload in (None, "all") else (args.workload,)
    report = {}
    for workload in workloads:
        values: dict[str, list[float]] = {k: [] for k in END_TO_END}
        for seed in _seed_list(args.repeat):
            summary = summarize(run_workload(workload, seed, args.seconds, False, args.blas_threads))
            for k, v in summary["metrics"].items():
                values[k].append(v)
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4f}" for k, v in summary["metrics"].items())
                  + f" failed={summary['failed']} defects={summary['defects']}/{summary['attempted']}", flush=True)
        report[workload] = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            report[workload][k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "ok" if spread < bounds.get(k, 0.0) / 3 else "WIDE"
            print(f"  {workload} {k}: median {med:.4f} spread {spread:.4f} (bound/3 {bounds.get(k, 0) / 3:.4f}) {flag}",
                  flush=True)
    if args.write:
        doc = {"seeds": _seed_list(args.repeat), "seconds": args.seconds, "blas_threads": args.blas_threads,
               "workloads": report}
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def provenance(blas_threads: int, master_seed: int) -> dict:
    code = (
        "import json, os, platform, sys, numpy, scipy, mpmath\n"
        "cfg = numpy.show_config(mode='dicts')\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'mpmath': mpmath.__version__,"
        " 'blas': {k: v for k, v in cfg['Build Dependencies']['blas'].items() if 'director' not in k},"
        " 'platform': platform.platform(),"
        " 'nproc': os.cpu_count(), 'thread_vars': {k: os.environ.get(k) for k in"
        " ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS', 'COMSPECT_THREADS')}}))\n"
    )
    info = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                     env=child_env(blas_threads), check=True).stdout)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    info.update(commit=commit, cpu=cpu, master_seed=master_seed)
    return info


def record(args) -> int:
    """Run every pool op once and write the reference digests and failure catalogue."""
    sys.path.insert(0, HERE)
    from workloads import MASTER_SEED

    catalogue_path = os.path.join(HERE, "catalogue.json")
    with open(catalogue_path, encoding="utf-8") as fh:
        catalogue = json.load(fh)
    failures = []
    workloads = WORKLOADS if args.workload in (None, "all") else (args.workload,)
    for workload in workloads:
        result = run_workload(workload, 0, 0, False, args.blas_threads, record=True)
        records = result["records"]
        width = 16
        ref = {
            "workload": workload,
            "master_seed": MASTER_SEED,
            "digest_hex": width,
            "pool": len(records),
            "digests": "".join(r["digest"][:width] for r in records),
            "exits": {r["op"]: r["exit"] for r in records if r["exit"] != 0},
        }
        os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
        with open(os.path.join(HERE, "reference", workload + ".json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=0)
            fh.write("\n")
        for r in records:
            if r["exit"] != 0:
                failures.append({"workload": workload, "op": r["op"], "exit": r["exit"], "error": r.get("error", ""),
                                 "first_stderr": r.get("first_stderr", ""), "warnings": r.get("warnings", 0),
                                 "seconds": round(r["seconds"], 2)})
        print(f"{workload}: {len(records)} reference digests, {len(ref['exits'])} non-zero exits", flush=True)
    if args.workload in (None, "all"):
        catalogue["failures"] = failures
        with open(catalogue_path, "w", encoding="utf-8") as fh:
            json.dump(catalogue, fh, indent=1)
            fh.write("\n")
        with open(os.path.join(HERE, "provenance.json"), "w", encoding="utf-8") as fh:
            json.dump(provenance(args.blas_threads, MASTER_SEED), fh, indent=1)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="comspect benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--repeat", metavar="SEEDS",
                        help="seeds such as 1-10: spread of each metric on BENCHMARK.json's workloads")
    parser.add_argument("--write", help="with --repeat: write the medians and spreads to this file")
    parser.add_argument("--record", action="store_true", help="rewrite the reference digests")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if not os.path.isdir(os.path.join(ROOT, "src", "comspect")):
        print(f"no comspect source tree under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.record:
            return record(args)
        if args.repeat:
            return repeat_runs(args)
        if args.all:
            return all_runs(args)
        if not args.workload or args.workload == "all":
            parser.error("--workload is required")
        return one_run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
