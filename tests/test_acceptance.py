"""Acceptance harness: one test per acceptance criterion.

Every check is exact (zero tolerance) over the rational-function field.
Each test prints a single PASS/FAIL line with its runtime (visible under
``pytest -s``) and asserts the criterion's time budget.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from machyper.macdonald import (MacdonaldCache, binomial_by_expansion,
                                binomial_lowering_closed,
                                binomial_raising_closed, cauchy_truncated,
                                macdonald_P, macdonald_forms, principal_eval,
                                principal_J_closed)
from machyper.partitions import dominates, lower_covers, partitions_of
from machyper.qops import apply_kind, eigen_shift, on_values, to_scaled, unscale
from machyper.ratfunc import ONE, rf, t_monomial
from machyper.series import (HyperParams, TruncatedSeries,
                             eigen_ops_lower, eigen_ops_lower_from_shifts,
                             eigen_ops_raise, eigen_ops_raise_from_shifts,
                             eigen_value_lower, eigen_value_lower_brute,
                             eigen_value_raise, eigen_value_raise_brute,
                             product_series_one)
from machyper.sympoly import basis_poly
from machyper.verify import (SUITE_ORDER, check_classical_limit, run_suite,
                             suite_passed)


# every report of criteria 12 and 13, plain and mutated, in JSON and in
# text, exactly as recorded in the data file
FROZEN = json.loads((Path(__file__).resolve().parent / "data"
                     / "verify_reports_n3_n4_D3.json").read_text())


def assert_frozen(n: int, key: str, reports) -> None:
    want = FROZEN[f"n{n}"][key]
    assert json.loads(json.dumps([r.to_json() for r in reports])) \
        == want["json"], (n, key)
    assert [r.render_text() for r in reports] == want["text"], (n, key)


@contextmanager
def criterion(num: int, name: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {name} ({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    ok = dt <= budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} "
          f"({dt:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} exceeded its budget: {dt:.1f}s > {budget:.0f}s"


def test_criterion_01_basis_construction():
    # cold cache: nothing precomputed, memory only
    cold = MacdonaldCache(cache_dir=None)
    with criterion(1, "orthogonal basis construction", 120):
        for n in range(1, 5):
            for d in range(0, 7):
                for lam in partitions_of(d, n):
                    P = macdonald_P(lam, n, cold)
                    assert P.coeffs[lam] == ONE          # unit leading entry
                    for mu in P.coeffs:
                        assert dominates(lam, mu)        # triangularity
                    # eigen identity on the integral form: same statement
                    # (a field-scalar multiple), far less denominator churn
                    J = macdonald_forms(lam, n, cold).J
                    for l in range(n + 1):               # full family
                        D_l = on_values(partial(apply_kind, l))
                        assert D_l(J) == J.scale_rf(eigen_shift(l, lam, n))
                    assert principal_eval(J) == principal_J_closed(lam, n)


def test_criterion_02_binomial_three_way(cache):
    with criterion(2, "binomial three-way agreement", 60):
        for n in range(1, 4):
            for d in range(1, 7):
                for lam in partitions_of(d, n):
                    for cv in lower_covers(lam):
                        b1 = binomial_by_expansion(lam, cv.lower, n, cache)
                        b2 = binomial_raising_closed(lam, cv.lower, n)
                        b3 = binomial_lowering_closed(lam, cv.lower, n)
                        assert b1 == b2 == b3


def test_criterion_03_eigen_operator_agreement(cache):
    with criterion(3, "eigen-operator agreement", 180):
        for n in range(1, 4):
            for d in range(0, 6):
                for mu in partitions_of(d, n):
                    J = macdonald_forms(mu, n, cache).J
                    gs = eigen_ops_raise(3, to_scaled(J))
                    hs = eigen_ops_lower(3, to_scaled(J))
                    for l in range(4):
                        ev = eigen_value_raise(l, mu, n)
                        assert unscale(gs[l]) == J.scale_rf(ev)
                        assert ev == eigen_value_raise_brute(l, mu, n, cache)
                        el = eigen_value_lower(l, mu, n)
                        assert unscale(hs[l]) == J.scale_rf(el)
                        assert el == eigen_value_lower_brute(l, mu, n, cache)
        # the fixed shift-word displays act identically on degree <= 4 inputs
        for n in (2, 3):
            for d in range(0, 5):
                for lam in partitions_of(d, n):
                    f = basis_poly("m", lam, n)
                    gs = eigen_ops_raise(3, to_scaled(f))
                    for l in range(4):
                        assert unscale(gs[l]) == eigen_ops_raise_from_shifts(l, f)
                    hs = eigen_ops_lower(2, to_scaled(f))
                    for l in range(3):
                        assert unscale(hs[l]) == eigen_ops_lower_from_shifts(l, f)


def test_criterion_04_two_alphabet_theorems(cache):
    with criterion(4, "two-alphabet and kernel identities", 300):
        reports = run_suite(("A", "Aprime", "kernel"), n=2, D=4, draws=3,
                            cache=cache)
        assert len(reports) == 36
        assert suite_passed(reports)


def test_criterion_05_stability_and_recursions(cache):
    with criterion(5, "stability loop and coefficient recursions", 300):
        reports = run_suite(("B", "C"), n=2, D=4, draws=3, cache=cache)
        assert len(reports) == 24
        assert suite_passed(reports)
        # the C suite re-derives every coefficient from the cover recursion
        for r in reports:
            if r.theorem == "C":
                assert any("re-derived" in note for note in r.notes)


def test_criterion_06_factored_second_order(cache):
    with criterion(6, "factored second-order operator", 60):
        reports = run_suite("kaneko", n=2, D=4, draws=3, cache=cache)
        assert len(reports) == 3   # only the (2,1) parameter shapes
        assert suite_passed(reports)
        for r in reports:
            assert any("operator identity verified" in note for note in r.notes)


def test_criterion_07_inverted_theorems(cache):
    with criterion(7, "inverted-parameter identities", 300):
        reports = run_suite("tilde", n=2, D=4, draws=3, cache=cache)
        assert len(reports) == 12
        assert suite_passed(reports)
        closing = [r for r in reports if r.params == {"a": [], "b": []}]
        assert closing and all(
            any("falling q-product" in note for note in r.notes)
            for r in closing)


def test_criterion_08_univariate_collapse(cache):
    with criterion(8, "univariate collapse", 30):
        reports = run_suite("univariate", n=2, D=6, draws=3, cache=cache)
        assert len(reports) == 3
        assert suite_passed(reports)
        for r in reports:
            assert any("k <= 6" in note for note in r.notes)


def test_criterion_09_product_truncations(cache):
    with criterion(9, "product and Cauchy truncations", 60):
        for n in (1, 2):
            bare = TruncatedSeries.build(n, 4, HyperParams.make())
            assert bare.render_one(cache) == product_series_one("inv", n, 4)
            a = rf(Fraction(3, 8))
            one_up = TruncatedSeries.build(n, 4, HyperParams.make(upper=[a]))
            assert one_up.render_one(cache) == \
                product_series_one("ratio", n, 4, a)
            # the Cauchy case is the ratio product at a = t^n
            cau = TruncatedSeries.build(n, 4,
                                        HyperParams.make(upper=[t_monomial(n)]))
            assert cau.render_one(cache) == \
                product_series_one("ratio", n, 4, t_monomial(n))
            sum_side, prod_side = cauchy_truncated(n, 4, cache)
            assert sum_side == prod_side


def test_criterion_10_classical_limit(cache):
    with criterion(10, "classical limit against the deformed oracle", 60):
        for k in (1, 2, 3):
            assert check_classical_limit(k, max_size=3, cache=cache).passed


def test_criterion_11_mutation_sensitivity(cache):
    with criterion(11, "mutation sensitivity", 60):
        reports = run_suite("all", n=2, D=3, draws=1, cache=cache,
                            mutate=(1,))
        assert reports
        for r in reports:
            assert not r.passed, f"mutated {r.theorem} check still passed"


def test_criterion_12_theorems_at_three_variables(cache):
    with criterion(12, "all suites at three variables", 120):
        reports = run_suite("all", n=3, D=3, draws=1, cache=cache)
        assert {r.theorem for r in reports} == set(SUITE_ORDER)
        assert suite_passed(reports)
        assert_frozen(3, "plain", reports)
        # a partition with three parts; the n = 1 series of the univariate
        # check cannot hold it, so that check alone still passes
        mutated = run_suite("all", n=3, D=3, draws=1, cache=cache,
                            mutate=(1, 1, 1))
        assert len(mutated) == len(reports)
        for r in mutated:
            assert r.passed == (r.theorem == "univariate"), r.theorem
        assert_frozen(3, "mutate_1_1_1", mutated)


def test_criterion_13_theorems_at_four_variables(cache):
    with criterion(13, "all suites at four variables", 120):
        reports = run_suite("all", n=4, D=3, draws=1, cache=cache)
        assert {r.theorem for r in reports} == set(SUITE_ORDER)
        assert suite_passed(reports)
        assert_frozen(4, "plain", reports)
        mutated = run_suite("all", n=4, D=3, draws=1, cache=cache,
                            mutate=(1, 1, 1))
        assert len(mutated) == len(reports)
        for r in mutated:
            assert r.passed == (r.theorem == "univariate"), r.theorem
        assert_frozen(4, "mutate_1_1_1", mutated)
