"""Self-tests for the benchmark.

    python3 -m pytest perfbench/tests -q

The metric tests run every workload once, traced and untraced (a few
minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from inputs import WORKLOADS, input_bytes, make_inputs  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def scratch_dir() -> str:
    base = os.path.join(BENCH, "_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="test-", dir=base)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert input_bytes(make_inputs(workload, 5)) == input_bytes(make_inputs(workload, 5))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seeds_give_other_inputs(workload):
    # verify-suite's seed only orders a panel of four, so seeds can collide
    distinct = {input_bytes(make_inputs(workload, seed)) for seed in range(10)}
    assert len(distinct) >= (5 if workload == "verify-suite" else 10)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_verify_gate_trips_on_injected_fault():
    inputs = {"n": 2, "D": 2, "draws": 1, "suite_seeds": [1]}
    wl = workloads.VerifySuite(inputs, work_dir=None, mutate=(1,))
    wl.setup()
    flags = wl.gate(wl.batch())
    assert flags and flags.count(False) / len(flags) == 1


def test_basis_gate_trips_on_wrong_reload():
    import machyper.ratfunc as ratfunc
    work = scratch_dir()
    try:
        entries = [[2, [2]], [2, [1, 1]]]
        wl = workloads.BasisCold({"build": entries, "reload": entries}, work)
        b = wl.batch()
        assert wl.gate(b) == [True] * 4
        phase, n, lam, poly = b.outputs[2]
        poly.coeffs[(1, 1)] = poly.coeffs[(1, 1)] + ratfunc.ONE
        assert wl.gate(b) == [True, True, False, True]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_requests_gate_trips_on_wrong_answer():
    work = scratch_dir()
    try:
        deck = [c for c in make_inputs("requests-mixed", 2)["deck"]
                if c["kind"] in ("series", "binomial")][:4]
        wl = workloads.RequestsMixed({"deck": deck}, work)
        b = wl.batch()
        assert wl.gate(b) == [True] * len(deck)
        code, text = b.outputs[0]
        bad = json.loads(text)
        if deck[0]["kind"] == "series":
            bad["coeffs"][-1]["value"] += "+1"
        else:
            bad["value"] += "+1"
        b.outputs[0] = (code, json.dumps(bad))
        assert wl.gate(b) == [False] + [True] * (len(deck) - 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_tracer_restores_the_program():
    import machyper.macdonald as macdonald
    import machyper.ratfunc as ratfunc
    from tracer import Tracer
    before = (ratfunc.RatFuncQT.__mul__, macdonald.hook_products, macdonald.MacdonaldCache.get_P)
    tr = Tracer()
    assert tr.install({"ratfunc.RatFuncQT.__mul__": {"count": "mul"},
                       "macdonald.no_such_function": {"count": "never"}}) == [
        "macdonald.no_such_function"]
    assert ratfunc.RatFuncQT.__mul__ is not before[0]
    x = ratfunc.Q * ratfunc.T
    macdonald.macdonald_P((2, 1), 2, macdonald.MacdonaldCache())
    tr.uninstall()
    after = (ratfunc.RatFuncQT.__mul__, macdonald.hook_products, macdonald.MacdonaldCache.get_P)
    assert after == before
    assert tr.counts["mul"] >= 1 and x == ratfunc.Q * ratfunc.T
    assert tr.busy["macdonald"] >= tr.self_time["macdonald"] >= 0
    assert tr.span_count() > 0


def test_run_without_sources_fails_without_result():
    work = scratch_dir()
    try:
        shutil.copytree(BENCH, os.path.join(work, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "basis-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=work, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
