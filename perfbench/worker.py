"""One workload in one process: set-up, then the timed batches or the
traced run.  Started by run.py; prints one JSON object as its last line.

    python3 perfbench/worker.py --root . --workload basis-cold --seed 1 \
        --seconds 15 --trace 0 --mode run
"""

from time import thread_time

T_START = thread_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# Every workload's batch has at least this many operations, enough to read
# a 90th percentile.
MIN_OPS = 100
# A run has at least this many batches, so that each operation's latency is
# taken from more than one sample.
MIN_BATCHES = 2

# speed probes run after set-up to scale setup_s to the probe's nominal speed
SETUP_PROBE_COUNT = 40


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--spans", default=None, help="file for the span dump")
    return ap.parse_args(argv)


def import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import machyper
    if os.path.dirname(os.path.dirname(os.path.abspath(machyper.__file__))) != os.path.abspath(src):
        raise RuntimeError(f"machyper imported from {machyper.__file__}, not from {src}")


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def trace_specs():
    """Counters and timers attached to particular entry points."""
    import machyper.qops as qops
    import machyper.verify as verify

    def raw_terms(tr, args, out):
        tr.counts["sympoly.raw_terms_out"] += len(out)

    def disk_load(tr, args, out):
        cache, lam, n = args
        if cache.cache_dir:
            tr.counts["macdonald.disk_loads"] += 1
            tr.counts["macdonald.disk_hits"] += out is not None
            path = cache._path(lam, n)
            if os.path.exists(path):
                tr.counts["macdonald.disk_bytes_read"] += os.path.getsize(path)

    def disk_store(tr, args, out):
        cache, lam, n, _ = args
        if cache.cache_dir:
            tr.counts["macdonald.disk_bytes_written"] += os.path.getsize(cache._path(lam, n))

    def suite_reports(tr, args, out):
        tr.counts["verify.reports"] += len(out)
        tr.counts["verify.reports_failed"] += sum(not r.passed for r in out)

    def ad_call(tr, args, out):
        tr.counts["qops.ad_calls"] += 1

    def exit_code(tr, args, out):
        tr.counts["cli.exit_nonzero"] += out != 0

    def parser_built(tr, args, parser):
        parser.parse_args = tr._wrap(parser.parse_args, "cli", "cli.parse_args",
                                     timer="cli.parse_s")

    specs = {
        "ratfunc.RatFuncQT.__add__": {"count": "ratfunc.add_calls"},
        "ratfunc.RatFuncQT.__mul__": {"count": "ratfunc.mul_calls"},
        "ratfunc.RatFuncQT.inverse": {"count": "ratfunc.div_calls"},
        "partitions.hook_products": {"count": "partitions.hook_products_calls"},
        "partitions.pochhammer_qt": {"count": "partitions.pochhammer_calls"},
        "sympoly.raw_mul": {"count": "sympoly.raw_mul_calls", "post": raw_terms},
        "sympoly.BiSymPoly.apply_x": {"count": "sympoly.apply_x_calls"},
        "macdonald.MacdonaldCache.get_P": {"count": "macdonald.get_P_calls"},
        "macdonald._build_P": {"count": "macdonald.build_count"},
        "macdonald.MacdonaldCache._load_disk": {"post": disk_load},
        "macdonald.MacdonaldCache._store_disk": {"post": disk_store},
        "macdonald.principal_eval": {"timer": "macdonald.audit_s"},
        "macdonald.principal_J_closed": {"timer": "macdonald.audit_s"},
        "macdonald.macdonald_forms": {"count": "macdonald.forms_calls"},
        "qops.divide_vandermonde": {"count": "qops.vandermonde_div_calls"},
        "series.TruncatedSeries.build": {"count": "series.build_calls"},
        "series.TruncatedSeries.render_one": {"count": "series.render_calls"},
        "series.TruncatedSeries.render_two": {"count": "series.render_calls"},
        "series.eigen_ops_raise": {"count": "series.eigen_ops_calls"},
        "series.eigen_ops_lower": {"count": "series.eigen_ops_calls"},
        "verify.run_suite": {"post": suite_reports},
        "cli.main": {"count": "cli.commands", "post": exit_code},
        "cli.build_parser": {"timer": "cli.parse_s", "post": parser_built},
        "cli.parse_param_expr": {"timer": "cli.parse_s"},
    }
    for name in vars(qops):
        if name.startswith("apply_") and callable(getattr(qops, name)):
            spec = {"count": "qops.apply_calls"}
            if name.startswith("apply_ad_"):
                spec["post"] = ad_call
            specs[f"qops.{name}"] = spec
    for name, fn in vars(verify).items():
        if name.startswith("check_") and fn.__module__ == verify.__name__:
            specs[f"verify.{name}"] = {"timer": lambda rep: f"verify.check_s.{rep.theorem}"}
    return specs


# counters that stay at zero on a workload that never reaches them
COUNTERS = (
    "ratfunc.add_calls", "ratfunc.mul_calls", "ratfunc.div_calls",
    "partitions.hook_products_calls", "partitions.pochhammer_calls",
    "sympoly.raw_mul_calls", "sympoly.raw_terms_out", "sympoly.apply_x_calls",
    "macdonald.get_P_calls", "macdonald.build_count", "macdonald.audit_s",
    "macdonald.disk_bytes_written", "macdonald.disk_bytes_read",
    "macdonald.forms_calls", "qops.apply_calls", "qops.ad_calls",
    "qops.vandermonde_div_calls", "series.build_calls", "series.render_calls",
    "series.eigen_ops_calls", "verify.reports", "verify.reports_failed",
    "cli.commands", "cli.parse_s", "cli.output_bytes", "cli.exit_nonzero",
)


def layer_metrics(tracer, cpu_traced: float, cpu_plain: float) -> dict:
    from machyper.verify import SUITE_ORDER
    from tracer import LAYERS
    c = tracer.counts
    out = {name: 0.0 for name in COUNTERS}
    out.update((f"verify.check_s.{name}", 0.0) for name in SUITE_ORDER)
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = tracer.busy[layer]
        out[f"{layer}.self_s"] = tracer.self_time[layer]
    for key, value in c.items():
        if key not in ("macdonald.disk_loads", "macdonald.disk_hits"):
            out[key] = value
    loads = c["macdonald.disk_loads"]
    out["macdonald.disk_hit_ratio"] = c["macdonald.disk_hits"] / loads if loads else 0.0
    out["trace.overhead_ratio"] = cpu_traced / cpu_plain
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    import_library(args.root)
    from inputs import make_inputs
    from workloads import PROBE_NOMINAL_S, WORKLOAD_CLASSES, speed_probe

    inputs = make_inputs(args.workload, args.seed)
    work_root = os.path.join(here, "_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = WORKLOAD_CLASSES[args.workload](inputs, work_dir)
        wl.setup()
        setup_s = thread_time() - T_START
        probe_s = sum(speed_probe() for _ in range(SETUP_PROBE_COUNT))
        setup_s *= PROBE_NOMINAL_S * SETUP_PROBE_COUNT / probe_s
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            result = traced_run(wl, args)
        else:
            result = timed_run(wl, args.seconds)
        result["setup_s"] = setup_s
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_run(wl, seconds: float) -> dict:
    """Batches until `seconds` of wall time are used, and at least
    MIN_BATCHES of them.  Each batch is gated
    and dropped before the next starts, so memory does not grow with the
    number of batches; gate time is not counted.  CPU times are scaled to
    the speed probe's nominal speed (see workloads.Batch).  Every batch
    repeats the same operations, so an operation's latency is its median
    over the batches, which keeps a brief slowdown of the host out of the
    percentiles."""
    cpus, walls, per_batch, flags = [], [], [], []
    while True:
        b = wl.batch()
        cpus.append(b.cpu * b.scale)
        walls.append(b.wall)
        per_batch.append(b.latencies)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        flags.extend(wl.gate(b))
        del b
        if len(per_batch[0]) < MIN_OPS:
            raise RuntimeError(f"a batch has {len(per_batch[0])} operations, fewer than {MIN_OPS}")
        if len(walls) >= MIN_BATCHES and sum(walls) + statistics.median(walls) > seconds:
            break
    latencies = [statistics.median(op) for op in zip(*per_batch)]
    return {
        "attempted": len(flags),
        "failed": flags.count(False),
        "batches": len(walls),
        "batch_wall_s": statistics.median(walls),
        "metrics": {
            "batch_cpu_s": statistics.median(cpus),
            "op_cpu_p50_ms": 1e3 * statistics.median(latencies),
            "op_cpu_p90_ms": 1e3 * percentile(latencies, 90),
            "peak_rss_mb": rss_mb,
        },
    }


def traced_run(wl, args) -> dict:
    from tracer import Tracer
    plain = wl.batch()
    tr = Tracer()
    missing = tr.install(trace_specs())
    wl.tracer = tr
    try:
        traced = wl.batch()
    finally:
        wl.tracer = None
        tr.uninstall()
    flags = wl.gate(plain) + wl.gate(traced)
    if args.spans:
        tr.write(args.spans)
    metrics = layer_metrics(tr, traced.cpu, plain.cpu)
    return {
        "attempted": len(flags),
        "failed": flags.count(False),
        "batches": 2,
        "traced_cpu_s": traced.cpu,
        "spans": tr.span_count(),
        "missing_hooks": missing,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
