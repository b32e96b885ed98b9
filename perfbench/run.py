"""Benchmark entry point.

    python3 perfbench/run.py --workload basis-cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload runs in its own worker
process (perfbench/worker.py), single-threaded.  With --trace 0 the run
reports the end-to-end metrics named in BENCHMARK.json; set-up is also
measured in separate set-up-only processes and reported as the median.
With --trace 1 a separate run times the calls into each layer and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  A record of each run, with the
machine context, goes to perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402

# set-up-only processes started beside the measured one; setup_s is the
# median over all of them
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 150


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("MACHYPER_CACHE_DIR", "PYTHONPATH"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit_hash() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_context() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": commit_hash(),
        "source_sha256": source_digest(),
    }


def print_layer_table(metrics: dict, traced_cpu: float) -> None:
    print(f"layer share of the traced batch ({traced_cpu:.3f} CPU s):")
    print(f"  {'layer':<11} {'busy_s':>10} {'self_s':>10} {'self share':>11}")
    for layer in LAYERS:
        busy = metrics[f"{layer}.busy_s"]
        own = metrics[f"{layer}.self_s"]
        print(f"  {layer:<11} {busy:>10.4f} {own:>10.4f} {own / traced_cpu:>10.1%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "machyper", "__init__.py")):
        return fail(f"no machyper sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(HERE, "_work", "spans", f"{tag}.bin") if args.trace else None
    try:
        setups = [] if args.trace else [run_worker(args, "setup")["setup_s"]
                                       for _ in range(SETUP_PROBES)]
        res = run_worker(args, "run", spans)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        return fail(str(exc), 1)
    measured = dict(res["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups + [res["setup_s"]])
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}", 1)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    context = machine_context()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batches {res['batches']}")
    print("context " + json.dumps(context, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<32} {res['failed'] / res['attempted']:>14.6g} ratio")
    if not args.trace:
        print(f"  {'batch_wall_s':<32} {res['batch_wall_s']:>14.6g} s (wall clock, not gated)")
    else:
        if res["missing_hooks"]:
            print("perfbench: trace hooks with no target, counters left at zero: "
                  + ", ".join(res["missing_hooks"]), file=sys.stderr)
        print(f"  spans recorded: {res['spans']} (written to {os.path.relpath(spans, ROOT)})")
        print_layer_table(measured, res["traced_cpu_s"])

    out_dir = os.path.join(HERE, "_work", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "context": context, "worker": res, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
