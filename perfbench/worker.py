"""Workload process of the comspect benchmark (started by run.py).

The process imports what its workload uses, builds the default cutoff pair,
then prints one ``{"ready": ...}`` line: run.py times set-up from spawning
the process to that line.  With ``--setup-only`` it stops there.  Otherwise
it generates the run's inputs, runs ops one at a time for ``--seconds``
(closed loop, one client), and writes every op's record to ``--out``.

``--trace 1`` runs the first ``trace_ops`` ops of the schedule twice, untraced
and then traced (see shim.py); the fixed op list makes per-layer counts
comparable between commits, the two passes give the tracing overhead, and
they must produce identical digests.

``--cli-child -- <args>`` is the traced form of a ``cli_cold`` op: it runs
``comspect.cli.main(args)`` under the shim and writes the per-layer counts
to the path in PERFBENCH_CHILD_TRACE.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _check_source_tree() -> None:
    import comspect

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(comspect.__file__).startswith(src):
        raise SystemExit(f"comspect was imported from {comspect.__file__}, not from the checkout's src/")


def _cli_child(argv: list[str]) -> int:
    import shim

    from comspect import cli

    tracer = shim.install()
    code = cli.main(argv)
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_CHILD_TRACE"], "w", encoding="utf-8") as fh:
        json.dump(tracer.aggregate(), fh)
    return code


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _run_op(wl, op: str):
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        seconds = time.perf_counter() - t0
        line = traceback.format_exception_only(type(exc), exc)[-1].strip()
        out = Outcome(seconds, json.dumps({"exception": type(exc).__name__}), -1, line, line)
    return out


def _record(op: str, out) -> dict:
    rec = {"op": op, "seconds": out.seconds, "digest": out.digest, "exit": out.exit}
    for key in ("error", "first_stderr", "warnings", "check"):
        value = getattr(out, key)
        if value:
            rec[key] = value
    return rec


def load_reference(name: str, pool: list[str]) -> dict:
    """op -> (digest prefix, reference exit code) from reference/<name>.json."""
    path = os.path.join(HERE, "reference", name + ".json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    width = ref["digest_hex"]
    packed = ref["digests"]
    if ref["pool"] != len(pool) or len(packed) != width * len(pool):
        raise SystemExit(f"{path} does not match the {name} pool; rerun run.py --record")
    exits = ref["exits"]
    return {op: (packed[i * width : (i + 1) * width], exits.get(op, 0)) for i, op in enumerate(pool)}


def judge(rec: dict, reference: dict) -> None:
    """Classify an op against its reference outcome.

    ok: the reference digest; defect: the catalogued baseline failure again
    (an input that should succeed but exits non-zero today); fixed: such an
    input now succeeds; failed: anything else.
    """
    expected = reference.get(rec["op"])
    if expected is None:
        rec["status"], rec["reason"] = "failed", "no reference digest"
        return
    digest, code = expected
    if rec.get("check"):
        rec["status"], rec["reason"] = "failed", rec["check"]
    elif rec["digest"].startswith(digest):
        rec["status"] = "ok" if code == 0 else "defect"
    elif code != 0 and rec["exit"] == 0:
        rec["status"] = "fixed"
    else:
        rec["status"] = "failed"
        rec["reason"] = f"exit {rec['exit']} (reference {code})" if rec["exit"] != code else "digest differs from the reference"


def timed_loop(wl, ops, seconds: float, tracer=None) -> tuple[list[dict], float]:
    """Run ops one at a time until `seconds` have passed; returns records and wall time."""
    records = []
    start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op_id = len(records)
        records.append(_record(op, _run_op(wl, op)))
    return records, time.perf_counter() - start


def pass_loop(wl, ops: list[str], seconds: float) -> tuple[list[dict], float]:
    """Repeat a fixed op list while one more whole pass fits in `seconds`.

    At least one pass runs, so every run measures the same mix of ops.
    """
    records = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records += timed_loop(wl, iter(ops), float("inf"))[0]
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return records, now - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true", help="run every pool op once")
    parser.add_argument("--cli-child", action="store_true")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    if args.cli_child:
        rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
        return _cli_child(rest)

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    for module in cls.imports:
        importlib.import_module(module)
    _check_source_tree()
    from comspect.cutoffs import default_cutoff_pair

    t0 = time.perf_counter()
    default_cutoff_pair()
    pair_s = time.perf_counter() - t0
    print(json.dumps({"ready": True, "pair_s": pair_s}), flush=True)
    if args.setup_only:
        return 0

    wl = cls(args.workdir)
    result = {"workload": args.workload, "seed": args.seed}
    if args.record:
        records = [_record(op, _run_op(wl, op)) for op in wl.pool()]
        result["records"] = records
    elif not args.trace:
        if cls.whole_passes:
            records, wall = pass_loop(wl, list(itertools.islice(wl.schedule(args.seed), cls.trace_ops)), args.seconds)
        else:
            records, wall = timed_loop(wl, wl.schedule(args.seed), args.seconds)
        result.update(records=records, wall_s=wall, run_checks=wl.run_checks())
    else:
        ops = list(itertools.islice(wl.schedule(args.seed), cls.trace_ops))
        plain, plain_wall = timed_loop(wl, iter(ops), float("inf"))
        if cls is workloads.CliCold:
            wl.importtime = True
            tracer = None
        else:
            import shim

            tracer = shim.install()
        traced, traced_wall = timed_loop(wl, iter(ops), float("inf"), tracer)
        result.update(records=plain, traced_records=traced, wall_s=plain_wall, traced_wall_s=traced_wall)
        if tracer is not None:
            result["layers"] = tracer.aggregate()
            tracer.save(args.out.removesuffix(".json") + ".spans.npz")
        else:
            merged: dict[str, float] = {}
            for path in wl.child_stats:
                with open(path, encoding="utf-8") as fh:
                    for key, value in json.load(fh).items():
                        merged[key] = merged.get(key, 0.0) + value
            result["layers"] = merged
            result["child_imports"] = wl.import_logs
        result["run_checks"] = wl.run_checks()
    if not args.record:
        reference = load_reference(args.workload, wl.pool())
        for rec in result["records"] + result.get("traced_records", []):
            judge(rec, reference)
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
