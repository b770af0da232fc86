"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload regular-gf2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

``--seed`` is the workload seed: it shuffles the order of the workload's
ops.  The program itself runs at ``--program-seed``, which defaults to the
CLI default seed that users get.  Each run starts fresh single-threaded
worker processes (``worker.py``): with ``--trace 0`` it times set-up
several times and then the ops; with ``--trace 1`` it makes one untraced
pass and one traced pass at seed 0 (their ratio is the tracing overhead)
and one traced pass at the program seed, which gives the per-layer
metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units come from ``BENCHMARK.json``.  Every
result, with its provenance, is also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CLI_DEFAULT_SEED = 20240401  # symvert.cli.DEFAULT_SEED
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "BLIS_NUM_THREADS")
}
WORK_STATS = {"macs", "cells", "elems", "unknowns", "conjugations"}


class WorkerFailed(Exception):
    pass


# -- worker processes --------------------------------------------------------


def spawn(deadline: float, workload: str, mode: str, program_seed: int,
          tag: str, **opts) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until its inputs were ready, result)."""
    result = OUT / f"worker-{workload}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--program-seed", str(program_seed),
           "--result", str(result)]
    for key, val in opts.items():
        if val is True:
            cmd.append(f"--{key.replace('_', '-')}")
        elif val not in (None, False):
            cmd += [f"--{key.replace('_', '-')}", str(val)]
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"{workload} {tag}: worker passed the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise WorkerFailed(f"{workload} {tag}: worker exited {proc.returncode}")
    if mode == "setup":
        return ready, None
    with open(result) as fh:
        return ready, json.load(fh)


# -- metrics -----------------------------------------------------------------


def nearest_rank(values: list[float], p: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def end_to_end(setups: list[float], res: dict) -> dict[str, float]:
    """An op's latency is the mean of its samples in the run, and wall_s the
    mean time of a pass.  Means, not medians: the box alternates between
    fast and slow phases of a few seconds, and a median snaps to one of
    them while a mean moves with the share of time spent in each."""
    per_op: dict[str, list[float]] = {}
    for r in res["ops"]:
        per_op.setdefault(r["op"], []).append(r["s"])
    durs = [statistics.fmean(v) for v in per_op.values()]
    failed = sum(1 for r in res["ops"] if not r["ok"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(r["s"] for r in res["ops"]) / res["passes"],
        "op_max_s": max(durs),
        "op_p50_s": nearest_rank(durs, 0.5),
        "op_p80_s": nearest_rank(durs, 0.8),
        "peak_rss_mb": res["peak_rss_mb"],
        "fail_ratio": failed / len(res["ops"]),
    }


def layer_value(name: str, s: dict) -> float | None:
    """A per-layer metric from a traced pass's summary; None when missing."""
    base, stat = name.rsplit(".", 1)
    fns = s["functions"]
    if base in LAYERS and stat == "self_s":
        present = any(f.split(".")[0] == base for f in fns)
        return s["layer_self_s"][base] if present else None
    if base == "trace" and stat in ("wall_s", "untraced_s"):
        return s[stat]
    f = fns.get(base)
    if f is None:
        return None
    if stat in ("calls", "self_s", "incl_s"):
        return float(f[stat])
    if stat in WORK_STATS:
        return f["work"]
    attempts = s["attempts"].get(base)
    if stat in ("attempts", "split_attempts"):
        return None if "linalg.min_poly" not in fns else float(attempts)
    if stat == "useful_ratio":
        if "linalg.min_poly" not in fns:
            return None
        return f["work"] / attempts if attempts else 0.0
    if stat == "repeat_ratio":
        return s["hom_repeats"] / f["calls"] if f["calls"] else 0.0
    return None


def per_layer(specs, untraced: dict, traced: dict, seed0: dict):
    s = traced["trace_summary"]
    values: dict[str, float | None] = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace.overhead_ratio":
            base = sum(r["s"] for r in untraced["ops"])
            values[name] = seed0["trace_summary"]["wall_s"] / base
        elif name.endswith(".seed_ratio"):
            src = name[: -len(".seed_ratio")]
            a = layer_value(src, s)
            b = layer_value(src, seed0["trace_summary"])
            values[name] = a / b if a is not None and b else None
        else:
            values[name] = layer_value(name, s)
    return values


# -- provenance --------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, numpy_version: str | None) -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "workload_seed": args.seed,
        "program_seed": args.program_seed,
        "thread_env": THREAD_ENV,
        "trace": bool(args.trace),
        "src_lines": src_lines,
    }


# -- one run -----------------------------------------------------------------


def run_workload(args, spec: dict, smoke: bool = False) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    w, ps = args.workload, args.program_seed
    common = {"order_seed": args.seed, "smoke": smoke}
    results = []
    if not args.trace:
        setups = []
        for i in range(1 if smoke else SETUP_SAMPLES - 1):
            setups.append(spawn(deadline, w, "setup", ps, f"setup{i}", **common)[0])
        ready, res = spawn(deadline, w, "run", ps, "run",
                           seconds=0 if smoke else args.seconds, **common)
        setups.append(ready)
        results.append(res)
        values = end_to_end(setups, res)
        wanted = spec["end_to_end"]
        # reported, but not gated in BENCHMARK.json: see perfbench/README.md
        extra = {k: values[k] for k in ("op_p50_s", "op_p80_s", "fail_ratio")}
        extra.update(setup_samples_s=setups, passes=res["passes"])
    else:
        # the overhead is measured at seed 0, the cheapest seed to repeat
        _, untraced = spawn(deadline, w, "run", 0, "untraced-seed0", **common)
        _, traced = spawn(deadline, w, "run", ps, "traced", trace=1,
                          spans=OUT / f"spans-{w}-seed{ps}.npz",
                          probe_missing=smoke, **common)
        seed0 = traced
        if ps != 0:
            _, seed0 = spawn(deadline, w, "run", 0, "traced-seed0", trace=1,
                             spans=OUT / f"spans-{w}-seed0.npz", **common)
        results = [untraced, traced] + ([seed0] if ps != 0 else [])
        values = per_layer(spec["per_layer"], untraced, traced, seed0)
        wanted = spec["per_layer"]
        s = traced["trace_summary"]
        layer_sum = sum(s["layer_self_s"].values())
        extra = {
            "missing_functions": s["missing"],
            "spans": s["spans"],
            "layer_self_sum_s": layer_sum,
            "sum_check_error_s": layer_sum + s["untraced_s"] - s["wall_s"],
        }
    ops = [r for res in results for r in res["ops"]]
    failures = [r for r in ops if not r["ok"]]
    metrics, missing = {}, []
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    sum_ok = abs(extra.get("sum_check_error_s", 0.0)) < 1e-6
    return {
        "provenance": provenance(args, results[0].get("numpy")),
        "correct": not failures and sum_ok,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [{"op": r["op"], "program_seed": res["program_seed"],
                      "cause": r["cause"]}
                     for res in results for r in res["ops"] if not r["ok"]],
        "metrics": metrics,
        "missing_metrics": missing,
        "details": extra,
    }


def report(args, out: dict) -> None:
    prov = out["provenance"]
    print(f"workload {args.workload}  workload seed {args.seed}  "
          f"program seed {args.program_seed}  trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in out["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for name in out["missing_metrics"]:
        print(f"  {name:<44} {'missing':>16}")
    for key, val in out["details"].items():
        print(f"  [{key}] {val}")
    print(f"  attempted {out['attempted']}  failed {out['failed']}")
    for f in out["failures"]:
        print(f"  FAILED {f['op']} (program seed {f['program_seed']}): {f['cause']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)


def smoke(spec: dict) -> int:
    """A fast self-check: every workload's small op subset, untraced and
    traced, with the output checks and a probe for a missing function."""
    ok = True
    total = failed = 0
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w, seed=0, seconds=0, trace=trace,
                                      program_seed=CLI_DEFAULT_SEED)
            out = run_workload(args, spec, smoke=True)
            report(args, out)
            total += out["attempted"]
            failed += out["failed"]
            ok = ok and out["correct"]
            if trace:
                probe = "linalg.no_such_function"
                ok = ok and probe in out["details"]["missing_functions"]
    print(json.dumps({"correct": ok, "attempted": total, "failed": failed,
                      "metrics": {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=CLI_DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--program-seed", type=int, default=CLI_DEFAULT_SEED)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "symvert" / "__init__.py").exists():
        print(f"error: no symvert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke(spec)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            p.error("--workload must be one of the workloads in BENCHMARK.json")
        out = run_workload(args, spec)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, out)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
