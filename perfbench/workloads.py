"""The fixed work each workload times, and its correctness gate.

Each workload object is built from generated inputs and a private scratch
directory.  `setup()` does the warm-up; `batch()` runs the workload's fixed
work once and returns the latency of every operation plus the outputs;
`gate()` checks those outputs after timing has stopped and returns one
pass/fail flag per operation.  Library entry points are looked up on their
modules at call time, so a tracer installed after import still sees every
call.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter, thread_time

from inputs import dominates, partitions_upto, upper_covers


def _lib():
    import machyper.cli as cli
    import machyper.macdonald as macdonald
    import machyper.ratfunc as ratfunc
    import machyper.series as series
    import machyper.sympoly as sympoly
    import machyper.verify as verify
    return cli, macdonald, ratfunc, series, sympoly, verify


# Typical thread CPU time of one speed_probe() on a 2-core Xeon VM; sets
# the scale of the reference-speed times below.
PROBE_NOMINAL_S = 0.0005
# One probe per this much operation time (at least one per operation).
PROBE_EVERY_S = 0.02


def speed_probe() -> float:
    """Fixed stdlib-only work shaped like the field layer's inner loop
    (tuple-keyed dicts of Fractions, multiply and accumulate); returns its
    thread CPU time.  It touches no machyper code, so no change to the
    program can change its cost."""
    t0 = thread_time()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}
    out: dict = {}
    for (i, j), x in a.items():
        for (k, m), y in a.items():
            e = (i + k, j + m)
            out[e] = out.get(e, 0) + x * y
    return thread_time() - t0


class Batch:
    """One pass over a workload's fixed work.

    Times are read on the worker thread's CPU clock.  The host's speed
    swings by up to 2x within seconds, so speed probes run right after every
    operation, outside its timing, and each latency is scaled to the probe's
    nominal speed by the probes just before and just after it.  `scale` does
    the same for the whole batch.  `wall` (probes included) is kept for
    reference.  A traced batch runs no probes, which would land inside the
    spans of whatever layer called the operation."""

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.latencies: list[float] = []
        self.outputs: list = []
        self.cpu = 0.0
        self.wall = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._probe_mean: list[float] = []

    def start(self) -> None:
        self._t0 = (thread_time(), perf_counter())

    def record(self, latency: float, output) -> None:
        self.latencies.append(latency)
        self.outputs.append(output)
        if self.probe:
            k = max(1, round(latency / PROBE_EVERY_S))
            probe_s = sum(speed_probe() for _ in range(k))
            self.probe_s += probe_s
            self.probes += k
            self._probe_mean.append(probe_s / k)

    def stop(self) -> None:
        self.cpu = thread_time() - self._t0[0] - self.probe_s
        self.wall = perf_counter() - self._t0[1]
        if self.probe and self.latencies:
            after = self._probe_mean
            before = after[:1] + after[:-1]
            self.latencies = [x * 2 * PROBE_NOMINAL_S / (b + a)
                              for x, b, a in zip(self.latencies, before, after)]

    @property
    def scale(self) -> float:
        return PROBE_NOMINAL_S * self.probes / self.probe_s


class BasisCold:
    """Build every basis element into an empty disk cache, then reload each
    one through a second fresh cache on the same directory."""

    def __init__(self, inputs: dict, work_dir: str, tracer=None):
        self.build = [(n, tuple(lam)) for n, lam in inputs["build"]]
        self.reload = [(n, tuple(lam)) for n, lam in inputs["reload"]]
        self.work_dir = work_dir
        self.tracer = tracer

    def setup(self) -> None:
        self._run([e for e in self.build if sum(e[1]) <= 3],
                  [e for e in self.reload if sum(e[1]) <= 3])

    def _run(self, build, reload) -> Batch:
        _, macdonald, *_ = _lib()
        out = Batch(probe=self.tracer is None)
        cache_dir = tempfile.mkdtemp(prefix="basis-", dir=self.work_dir)
        try:
            out.start()
            for phase, entries in (("build", build), ("reload", reload)):
                cache = macdonald.MacdonaldCache(cache_dir)
                for n, lam in entries:
                    if self.tracer is not None:
                        self.tracer.op = len(out.latencies)
                    t0 = thread_time()
                    poly = cache.get_P(lam, n)
                    out.record(thread_time() - t0, (phase, n, lam, poly))
            out.stop()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return out

    def batch(self) -> Batch:
        return self._run(self.build, self.reload)

    def gate(self, b: Batch) -> list[bool]:
        built = {}
        flags = []
        for phase, n, lam, poly in b.outputs:
            ok = (poly.n_vars == n and poly.coeffs.get(lam) == 1
                  and all(dominates(lam, mu) for mu in poly.coeffs))
            if phase == "build":
                built[(n, lam)] = poly
            else:
                ok = ok and poly == built.get((n, lam))
            flags.append(ok)
        return flags


class VerifySuite:
    """run_suite("all") over the panel of suite seeds, on a basis cache
    warmed during set-up.  One operation is one TheoremReport."""

    def __init__(self, inputs: dict, work_dir: str, tracer=None, mutate=None):
        self.n, self.D, self.draws = inputs["n"], inputs["D"], inputs["draws"]
        self.suite_seeds = inputs["suite_seeds"]
        self.tracer = tracer
        self.mutate = mutate
        self.cache = None

    def setup(self) -> None:
        _, macdonald, *_, verify = _lib()
        self.cache = macdonald.MacdonaldCache()
        for n in (1, self.n):
            for lam in partitions_upto(self.D + 2, n):
                self.cache.get_P(lam, n)
        verify.run_suite("all", n=self.n, D=1, draws=1, seed=0, cache=self.cache)

    def batch(self) -> Batch:
        *_, verify = _lib()
        out = Batch(probe=self.tracer is None)
        # every check_* defined in verify yields exactly one report
        originals = {name: fn for name, fn in vars(verify).items()
                     if name.startswith("check_") and getattr(
                         fn, "__wrapped__", fn).__module__ == verify.__name__}
        tracer = self.tracer

        def timed(fn):
            def call(*args, **kwargs):
                if tracer is not None:
                    tracer.op = len(out.latencies)
                t0 = thread_time()
                report = fn(*args, **kwargs)
                out.record(thread_time() - t0, report)
                return report
            return call

        # time each report by wrapping the check functions run_suite calls
        for name, fn in originals.items():
            setattr(verify, name, timed(fn))
        try:
            out.start()
            reports = []
            for seed in self.suite_seeds:
                reports.extend(verify.run_suite(
                    "all", n=self.n, D=self.D, draws=self.draws, seed=seed,
                    cache=self.cache, mutate=self.mutate))
            out.stop()
        finally:
            for name, fn in originals.items():
                setattr(verify, name, fn)
        if [id(r) for r in reports] != [id(r) for r in out.outputs]:
            raise RuntimeError("reports do not match the timed check calls")
        return out

    def gate(self, b: Batch) -> list[bool]:
        return [bool(report.passed) for report in b.outputs]


class RequestsMixed:
    """A closed loop with one client: the deck of short commands, issued
    in-process through machyper.cli.main with stdout captured and a shared
    --dir cache that set-up has filled."""

    def __init__(self, inputs: dict, work_dir: str, tracer=None):
        self.deck = inputs["deck"]
        self.work_dir = work_dir
        self.tracer = tracer
        self.cache_dir = os.path.join(work_dir, "requests-cache")
        # the gate's answers, memoized per (command, output), and its own
        # in-memory basis cache, apart from the one under test
        self._checked: dict[tuple, bool] = {}
        self._gate_cache = _lib()[1].MacdonaldCache()

    def _argv(self, cmd) -> list[str]:
        return cmd["argv"] + ["--dir", self.cache_dir]

    def setup(self) -> None:
        cli, macdonald, *_ = _lib()
        need = set()
        for cmd in self.deck:
            if cmd["kind"] == "poly":
                need.add((cmd["n"], tuple(cmd["partition"])))
            elif cmd["kind"] == "table" and cmd["object"] != "binomial":
                need.update((cmd["n"], lam)
                            for lam in partitions_upto(cmd["max_size"], cmd["n"]))
        cache = macdonald.MacdonaldCache(self.cache_dir)
        for n, lam in sorted(need):
            cache.get_P(lam, n)
        seen = set()
        for cmd in self.deck:
            if cmd["kind"] not in seen:
                seen.add(cmd["kind"])
                self._issue(cli, cmd)

    def _issue(self, cli, cmd):
        buf, err = io.StringIO(), io.StringIO()
        t0 = thread_time()
        with redirect_stdout(buf), redirect_stderr(err):
            code = cli.main(self._argv(cmd))
        return thread_time() - t0, code, buf.getvalue()

    def batch(self) -> Batch:
        cli, *_ = _lib()
        out = Batch(probe=self.tracer is None)
        out.start()
        for i, cmd in enumerate(self.deck):
            if self.tracer is not None:
                self.tracer.op = i
            dt, code, text = self._issue(cli, cmd)
            out.record(dt, (code, text))
            if self.tracer is not None:
                self.tracer.counts["cli.output_bytes"] += len(text.encode())
        out.stop()
        return out

    def gate(self, b: Batch) -> list[bool]:
        flags = []
        for cmd, (code, text) in zip(self.deck, b.outputs):
            ok = code == 0
            if ok:
                try:
                    payload = json.loads(text)
                except ValueError:
                    ok = False
            if ok:
                key = (tuple(cmd["argv"]), text)
                if key not in self._checked:
                    try:
                        self._checked[key] = check_answer(cmd, payload, self._gate_cache)
                    except (KeyError, TypeError, ValueError):
                        self._checked[key] = False  # malformed payload
                ok = self._checked[key]
            flags.append(ok)
        return flags


# ---------------------------------------------------------------------------
# independent routes for requests-mixed answers

def _param_value(p):
    _, _, ratfunc, *_ = _lib()
    num, den, dq, dt = p
    return ratfunc.rf(Fraction(num, den)) * ratfunc.qt_monomial(dq, dt)


def series_by_covers(cmd) -> dict[tuple, str]:
    """Series coefficients from the cover recursion: C of the empty
    partition is 1, and adding the box (i, j) multiplies by
    prod_a (1 - a q^(j-1) t^(1-i)) / prod_b (1 - b q^(j-1) t^(1-i));
    the kaneko flavor then multiplies each coefficient by its partition's
    factor ((-1)^|lam| q^n(lam') t^-n(lam))^(s+1-r)."""
    _, _, ratfunc, *_ = _lib()
    ONE, qt = ratfunc.ONE, ratfunc.qt_monomial
    ups = [_param_value(p) for p in cmd["a"]]
    lows = [_param_value(p) for p in cmd["b"]]
    expo = len(lows) + 1 - len(ups) if cmd["flavor"] == "kaneko" else 0
    coeffs = {(): ONE}
    for lam in partitions_upto(cmd["D"], cmd["n"]):
        if not lam:
            continue
        i, j = len(lam), lam[-1]
        mu = lam[:-1] + ((j - 1,) if j > 1 else ())
        cell = qt(j - 1, 1 - i)
        f = ONE
        for a in ups:
            f = f * (ONE - a * cell)
        for b in lows:
            f = f / (ONE - b * cell)
        coeffs[lam] = coeffs[mu] * f
    out = {}
    for lam, c in coeffs.items():
        if expo:
            nl = sum(k * p for k, p in enumerate(lam))
            nconj = sum(p * (p - 1) // 2 for p in lam)
            k = qt(expo * nconj, -expo * nl)
            c = c * (-k if (sum(lam) * expo) % 2 else k)
        out[lam] = c.render()
    return out


def _poly_from_json(data):
    _, _, ratfunc, _, sympoly, _ = _lib()
    coeffs = {tuple(e["partition"]): ratfunc.RatFuncQT.from_json(e["value"])
              for e in data["coeffs"]}
    return sympoly.SymPoly.from_coeffs(data["n"], coeffs)


def check_poly(obj: str, lam: tuple, n: int, poly) -> bool:
    """Triangularity plus the closed-form principal specialization."""
    _, macdonald, *_ = _lib()
    import machyper.partitions as partitions
    if poly.n_vars != n or not all(dominates(lam, mu) for mu in poly.coeffs):
        return False
    c, cp, _ = partitions.hook_products(lam)
    lead = poly.coeffs.get(lam)
    at_stair = macdonald.principal_eval(poly)
    closed = macdonald.principal_J_closed(lam, n)
    if obj == "P":
        return lead == 1 and at_stair * c == closed
    if obj == "J":
        return lead == c and at_stair == closed
    return lead == cp.inverse() and at_stair * cp * c == closed


def check_answer(cmd, payload, cache) -> bool:
    _, macdonald, _, series, *_ = _lib()
    kind, n = cmd["kind"], cmd["n"]
    if kind == "series":
        want = series_by_covers(cmd)
        got = {tuple(e["partition"]): e["value"] for e in payload["coeffs"]}
        return (got == want and payload["n"] == n and payload["D"] == cmd["D"]
                and payload["flavor"] == cmd["flavor"])
    if kind == "binomial":
        want = macdonald.binomial_lowering_closed(tuple(cmd["upper"]), tuple(cmd["lower"]), n)
        return payload["value"] == want.render()
    if kind == "eigen":
        lam = tuple(cmd["partition"])
        brute = (series.eigen_value_raise_brute if cmd["direction"] == "raise"
                 else series.eigen_value_lower_brute)
        return payload["value"] == brute(cmd["level"], lam, n, cache).render()
    if kind == "poly":
        lam = tuple(cmd["partition"])
        return (payload["partition"] == list(lam) and payload["n"] == n
                and check_poly(cmd["object"], lam, n, _poly_from_json(payload["value"])))
    # tables
    if cmd["object"] == "binomial":
        pairs = [(up, mu) for mu in partitions_upto(cmd["max_size"] - 1, n)
                 for up in upper_covers(mu, n)]
        if sorted(pairs) != sorted((tuple(r["upper"]), tuple(r["lower"])) for r in payload):
            return False
        return all(r["value"] == macdonald.binomial_lowering_closed(
            tuple(r["upper"]), tuple(r["lower"]), n).render() for r in payload)
    lams = partitions_upto(cmd["max_size"], n)
    if sorted(lams) != sorted(tuple(r["partition"]) for r in payload):
        return False
    return all(check_poly(cmd["object"], tuple(r["partition"]), n,
                          _poly_from_json(r["value"])) for r in payload)


WORKLOAD_CLASSES = {"basis-cold": BasisCold, "verify-suite": VerifySuite,
                    "requests-mixed": RequestsMixed}
