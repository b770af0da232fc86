"""One workload in one fresh process: set up, signal READY, time the ops.

Started by ``run.py``; not meant to be run by hand.  With ``--mode setup``
it exits right after the inputs are ready, so the parent can time set-up
alone.  Otherwise it runs whole passes over the workload's ops in a closed
loop (one client, no threads), starting another pass only while the last
one would still end within ``--seconds``, and writes every op's latency
and verdict to ``--result``.  With ``--trace 1`` it makes exactly one pass
with the span tracer installed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--mode", choices=["setup", "run"], required=True)
    p.add_argument("--program-seed", type=int, required=True)
    p.add_argument("--order-seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--probe-missing", action="store_true",
                   help="also trace a function that does not exist")
    p.add_argument("--result")
    p.add_argument("--spans")
    return p.parse_args(argv)


def run_pass(w, units, pass_no, records, tracer, CheckFailed):
    """Time every op, then check its output with tracing suspended."""
    outputs = {}
    start = len(records)
    for unit in units:
        for op in unit:
            if tracer:
                tracer.begin_op(len(records))
            cause = None
            out = None
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op
                cause = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            dt = perf_counter() - t0
            if tracer:
                tracer.end_op()
                tracer.suspend()
            if cause is None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    cause = str(exc)
                except Exception as exc:
                    cause = f"check raised {type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
            if tracer:
                tracer.resume()
            outputs[op.name] = out
            records.append({"op": op.name, "pass": pass_no, "s": dt,
                            "ok": cause is None, "cause": cause})
    for name, cause in w.finish(outputs).items():
        for r in records[start:]:
            if r["op"] == name and r["ok"]:
                r["ok"], r["cause"] = False, cause


def main(argv=None) -> int:
    args = parse_args(argv)
    import symvert

    where = Path(symvert.__file__).resolve().parent
    if where != ROOT / "src" / "symvert":
        print(f"error: symvert imported from {where}, not this checkout",
              file=sys.stderr)
        return 2
    import numpy as np

    import workloads as wl

    w = wl.prepare(args.workload, args.program_seed, args.smoke)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    units = list(w.units)
    random.Random(args.order_seed).shuffle(units)
    tracer = None
    if args.trace:
        import spans

        targets = list(spans.TARGETS)
        if args.probe_missing:
            targets.append(("linalg", "no_such_function"))
        tracer = spans.Tracer(targets=targets)
        tracer.install()

    records: list[dict] = []
    t_start = perf_counter()
    pass_no = 0
    while True:
        t_pass = perf_counter()
        run_pass(w, units, pass_no, records, tracer, wl.CheckFailed)
        pass_no += 1
        last = perf_counter() - t_pass
        if tracer or perf_counter() - t_start + last > args.seconds:
            break

    result = {
        "workload": args.workload,
        "program_seed": args.program_seed,
        "order_seed": args.order_seed,
        "trace": args.trace,
        "passes": pass_no,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
    }
    if tracer:
        tracer.suspend()
        roots = tracer.root_time_by_op()
        summary = tracer.summary()
        summary["wall_s"] = sum(r["s"] for r in records)
        summary["untraced_s"] = sum(
            r["s"] - roots.get(i, 0.0) for i, r in enumerate(records))
        result["trace_summary"] = summary
        if args.spans:
            tracer.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
