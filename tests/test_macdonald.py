"""Monic (q,t)-basis: independent Gram-Schmidt oracle, specializations,
cover coefficients via three routes, principal values, disk cache."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

import pytest

import machyper.macdonald as macdonald
import machyper.qops as qops
from machyper import stats
from machyper.errors import InexactDivisionError, MacHyperError
from machyper.macdonald import (MacdonaldCache, binomial_by_expansion,
                                binomial_lowering_closed,
                                binomial_raising_closed, cauchy_truncated,
                                expand_in_Jstar, expand_in_P,
                                jstar_principal, macdonald_P, macdonald_forms,
                                principal_J_closed, principal_eval)
from machyper.partitions import (conjugate, dominates, enumerate_partitions,
                                 hook_products, length, lower_covers, n_stat,
                                 partitions_of, pochhammer_qt, upper_covers)
from machyper.qops import apply_kind, eigen_shift, on_values
from machyper.ratfunc import (ONE, Q, T, rf, substitute, t_monomial,
                              times_multiple)
from machyper.sympoly import SymPoly, basis_poly, hall_inner

F = Fraction


# -- independent construction oracle -----------------------------------------
#
# Orthogonalize the monomial basis, least dominant partition first, under the
# deformed power-sum pairing.  This route never touches the shift operator
# used by the library construction.

def gram_schmidt_basis(d: int, N: int) -> dict:
    ps = list(reversed(partitions_of(d, N)))
    # the iteration order must refine dominance upward
    for i, mu in enumerate(ps):
        for lam in ps[i + 1:]:
            assert not dominates(mu, lam) or mu == lam
    built: dict = {}
    for idx, lam in enumerate(ps):
        f = basis_poly("m", lam, N)
        for mu in ps[:idx]:
            if dominates(lam, mu):
                pmu = built[mu]
                coef = hall_inner(f, pmu) / hall_inner(pmu, pmu)
                f = f - pmu.scale_rf(coef)
        built[lam] = f
    return built


def test_matches_gram_schmidt_oracle(cache):
    for d in range(0, 4):
        oracle = gram_schmidt_basis(d, max(d, 1))
        for lam, want in oracle.items():
            for n in range(max(length(lam), 1), max(d, 1) + 1):
                assert macdonald_P(lam, n, cache) == want.restrict(n), (lam, n)


def test_pairwise_orthogonal(cache):
    n = 3
    for d in range(1, 4):
        ps = partitions_of(d, n)
        for i, lam in enumerate(ps):
            for mu in ps[i + 1:]:
                got = hall_inner(macdonald_P(lam, n, cache),
                                 macdonald_P(mu, n, cache))
                assert got.is_zero(), (lam, mu)


def test_triangular_and_monic(cache):
    n = 3
    for lam in enumerate_partitions(4, n):
        P = macdonald_P(lam, n, cache)
        assert P.coeffs[lam] == ONE
        for mu in P.coeffs:
            assert dominates(lam, mu)


def test_shift_operator_eigenvector(cache):
    D_1 = on_values(partial(apply_kind, 1))
    for n in (1, 2, 3):
        for lam in enumerate_partitions(3, n):
            P = macdonald_P(lam, n, cache)
            assert D_1(P) == P.scale_rf(eigen_shift(1, lam, n))


def test_too_long_partition_rejected(cache):
    with pytest.raises(ValueError):
        macdonald_P((1, 1, 1), 2, cache)


# -- classical specializations -------------------------------------------------

SCHUR_IN_M = {
    (2,): {(2,): 1, (1, 1): 1},
    (1, 1): {(1, 1): 1},
    (3,): {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
    (2, 1): {(2, 1): 1, (1, 1, 1): 2},
    (1, 1, 1): {(1, 1, 1): 1},
}


def test_equal_parameters_give_schur(cache):
    n = 3
    for lam, kostka in SCHUR_IN_M.items():
        P = macdonald_P(lam, n, cache)
        got = {mu: substitute(c, tval=Q) for mu, c in P.coeffs.items()}
        want = {mu: rf(k) for mu, k in kostka.items() if len(mu) <= n}
        assert got == want


def test_t_one_collapses_to_monomial(cache):
    n = 3
    for lam in enumerate_partitions(4, n):
        P = macdonald_P(lam, n, cache)
        got = {mu: substitute(c, tval=ONE) for mu, c in P.coeffs.items()}
        got = {mu: c for mu, c in got.items() if not c.is_zero()}
        assert got == {lam: ONE}


def test_q_one_gives_elementary_of_conjugate(cache):
    n = 3
    for lam in enumerate_partitions(4, n):
        P = macdonald_P(lam, n, cache)
        coeffs = {mu: substitute(c, qval=ONE) for mu, c in P.coeffs.items()}
        got = SymPoly.from_coeffs(n, coeffs)
        assert got == basis_poly("e", conjugate(lam), n)


# -- forms and principal values -------------------------------------------------

def test_forms_normalizations(cache):
    for n in (1, 2, 3):
        for lam in enumerate_partitions(4, n):
            f = macdonald_forms(lam, n, cache)
            # made once per cache
            assert macdonald_forms(lam, n, cache) is f
            # the field-arithmetic formulas are the independent route
            c = hook_products(lam)[0]
            assert f.J == f.P.scale_rf(c)
            assert f.Jstar == f.P.scale_rf(f.hook_upper.inverse())
            assert f.hook_pair == c * f.hook_upper
            assert f.Jnorm == f.J.scale_rf(f.principal_J.inverse())
            assert principal_eval(f.J) == f.principal_J
            assert principal_eval(f.Jstar) == jstar_principal(lam, n)
            # the integral form has polynomial coefficients
            assert all(c.den == ONE.den for c in f.J.coeffs.values()), (lam, n)
    # the forms fetch P at once, so a bad request raises at the call
    with pytest.raises(ValueError):
        macdonald_forms((2, 1), 1, MacdonaldCache())


def _principal_by_field(P, lam, n):
    # the audit in field arithmetic: P at the staircase times the hook
    # product, against the closed form as a field product of its cells
    closed = t_monomial(n_stat(lam)) * pochhammer_qt(t_monomial(n), lam)
    return principal_eval(P) * hook_products(lam)[0] == closed


def test_principal_audit_matches_field_route(cache):
    # the audit on integer polynomials gives the field route's verdict on
    # every element of |lam| <= 6, n in {2, 3, 4}, and on tampered copies
    # of them
    elements = [(lam, n) for n in (2, 3, 4) for lam in enumerate_partitions(6, n)]
    assert len(elements) == 66
    not_dividing = (ONE + Q + T).inverse()    # divides no hook product
    tampered = 0
    for lam, n in elements:
        P = macdonald_P(lam, n, cache)
        assert macdonald._principal_matches(P, lam, n)
        assert _principal_by_field(P, lam, n)
        lower = [mu for mu in P.coeffs if mu != lam]
        if not lower:
            continue
        mu = min(lower)
        changed = P.coeffs[mu] + ONE
        foreign = P.coeffs[mu] * not_dividing
        # a change of the integer content only: the denominator's primitive
        # part still divides the hook product
        halved = P.coeffs[mu] * rf(F(1, 2))
        with pytest.raises(InexactDivisionError):
            times_multiple(foreign, hook_products(lam)[0].num)
        for value in (changed, foreign, halved):
            bad = SymPoly(n, {**P.coeffs, mu: value})
            assert not macdonald._principal_matches(bad, lam, n), (lam, n)
            assert not _principal_by_field(bad, lam, n), (lam, n)
            tampered += 1
    assert tampered == 3 * 45    # the elements with terms below lam


def test_principal_closed_form(cache):
    for n in (1, 2, 3):
        for lam in enumerate_partitions(4, n):
            J = macdonald_forms(lam, n, cache).J
            assert principal_eval(J) == principal_J_closed(lam, n)
    # too many parts evaluates to zero
    assert principal_J_closed((1, 1, 1), 2) == rf(0)


# -- cover coefficients ----------------------------------------------------------

def test_binomial_three_routes_agree(cache):
    for n in (1, 2, 3):
        for mu in enumerate_partitions(3, n):
            for cv in upper_covers(mu, max_length=n):
                b1 = binomial_by_expansion(cv.upper, mu, n, cache)
                b2 = binomial_raising_closed(cv.upper, mu, n)
                b3 = binomial_lowering_closed(cv.upper, mu, n)
                assert b1 == b2 == b3, (cv.upper, mu, n)


def test_binomial_frozen_values(cache):
    assert binomial_by_expansion((1,), (), 2, cache) == ONE
    got = binomial_raising_closed((2, 1), (1, 1), 3)
    assert got == (ONE - Q ** 2 * T) / (ONE - Q * T)
    # adding the first box is independent of where the series truncates
    assert binomial_raising_closed((1,), (), 1) == ONE


def test_binomial_rejects_non_cover(cache):
    with pytest.raises(ValueError):
        binomial_raising_closed((3,), (1, 1), 3)
    # a lower partition with more parts than variables has no principal
    # value to divide by
    with pytest.raises(ValueError):
        binomial_raising_closed((2, 1, 1), (1, 1, 1), 2)
    # an upper partition with more parts than variables is refused for that
    # reason, though it covers the lower one
    for route in (binomial_raising_closed, binomial_lowering_closed,
                  partial(binomial_by_expansion, cache=cache)):
        with pytest.raises(ValueError, match=r"^partition \[1,1,1\] has more "
                           r"parts than variables \(n=2\)$"):
            route((1, 1, 1), (1, 1), 2)


def test_cover_principal_ratio_from_changed_cells():
    # the ratio read off the cells the added box changes equals the
    # quotient of the two full closed-form principal values
    for n in (1, 2, 3, 4):
        for mu in enumerate_partitions(5, n):
            for cv in upper_covers(mu, max_length=n):
                full = jstar_principal(cv.upper, n) / jstar_principal(mu, n)
                assert macdonald._principal_ratio(cv, n) == full, (cv.upper, n)


# -- basis expansions -------------------------------------------------------------

def test_expansions_round_trip(cache):
    n = 2
    f = basis_poly("m", (2, 1), n).scale_rf(Q) + basis_poly("m", (1,), n) \
        + SymPoly.one(n).scale_rf(T)
    for expand, form in ((expand_in_P, "P"), (expand_in_Jstar, "Jstar")):
        coords = expand(f, cache)
        back = SymPoly.zero(n)
        for kappa, c in coords.items():
            forms = macdonald_forms(kappa, n, cache)
            back = back + getattr(forms, form).scale_rf(c)
        assert back == f


def test_cauchy_kernel_product(cache):
    # the builder verifies that the expanded product is bisymmetric
    sum_side, prod_side = cauchy_truncated(2, 3, cache)
    for side in (sum_side, prod_side):
        assert side.swap() == side
        assert (0, 0) in side.bidegrees() and (3, 3) in side.bidegrees()
    # the two routes agree on every bidegree that both truncations cover
    def window(side):
        return {k: c for k, c in side.coeffs.items()
                if sum(k[0]) <= 3 and sum(k[1]) <= 3}
    assert window(sum_side) == window(prod_side)


# -- disk cache ---------------------------------------------------------------------

def test_cache_disk_round_trip(tmp_path):
    d = str(tmp_path)
    stats.reset()
    c1 = MacdonaldCache(d)
    p1 = c1.get_P((2,), 2)
    files = c1.list_disk()
    assert "P_n2_2.json" in files
    c2 = MacdonaldCache(d)
    assert c2.get_P((2,), 2) == p1
    # neither the missing file nor the undamaged one counts as rejected
    assert stats.snapshot()["cache_files_rejected"] == 0

    # corrupted entries are ignored and rebuilt
    path = os.path.join(d, "P_n2_2.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    c3 = MacdonaldCache(d)
    assert c3.get_P((2,), 2) == p1
    with open(path, "r", encoding="utf-8") as fh:
        json.load(fh)  # rebuilt file is valid again
    # valid JSON that is not an object is corrupt as well
    for text in ("[]", "null"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert MacdonaldCache(d).get_P((2,), 2) == p1

    # tampered coefficients fail the principal-value audit and are rebuilt
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["coeffs"][0]["value"]["num"] = [[0, 0, "7"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    stats.reset()
    c4 = MacdonaldCache(d)
    assert c4.get_P((2,), 2) == p1
    assert stats.snapshot()["cache_files_rejected"] == 1

    # a zero denominator cannot be parsed into a field element; rebuilt too
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["coeffs"][0]["value"]["den"] = []
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    c5 = MacdonaldCache(d)
    assert c5.get_P((2,), 2) == p1

    # damaged terms are refused before any field arithmetic reads them: a
    # float or bool exponent, a coefficient that is not a rational string,
    # an exponent past |lam|^2 (10^7 would exhaust memory in the value
    # screen), or a float partition part too large for an int
    with open(path, encoding="utf-8") as fh:
        rebuilt = fh.read()
    for damage in ([1e400, 0, "-2"], [0.0, 0, "1"], [True, 0, "1"],
                   [0, 0, 1.0], [0, 0, 1], [0, 0, "1e99999999"],
                   [0, 10 ** 7, "1"], [5, 0, "1"], [-1, 0, "1"]):
        data = json.loads(rebuilt)
        data["coeffs"][0]["value"]["den"].append(damage)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        t0 = time.process_time()
        assert MacdonaldCache(d)._load_disk((2,), 2) is None, damage
        assert MacdonaldCache(d).get_P((2,), 2) == p1
        assert time.process_time() - t0 < 2, damage
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == rebuilt, damage
    data = json.loads(rebuilt)
    data["coeffs"][0]["partition"] = [1e400]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert MacdonaldCache(d).get_P((2,), 2) == p1

    # changes that keep the principal value but break triangularity or the
    # leading 1 are rebuilt too
    lam, n = (2, 1), 3
    p2 = c1.get_P(lam, n)
    top_term = dict(p2.coeffs)
    top_term[(3,)] = T ** 3
    top_term[(1, 1, 1)] = top_term[(1, 1, 1)] - (ONE + T ** 3 + T ** 6)
    not_monic = dict(p2.coeffs)
    not_monic[lam] = ONE + T ** 2
    not_monic[(1, 1, 1)] = not_monic[(1, 1, 1)] - (
        ONE + T.scale(2) + (T ** 3).scale(2) + T ** 4)
    for coeffs in (top_term, not_monic):
        bad = SymPoly(n, coeffs)
        assert principal_eval(bad) == principal_eval(p2)
        c1._store_disk(lam, n, bad)
        assert MacdonaldCache(d)._load_disk(lam, n) is None
        assert MacdonaldCache(d).get_P(lam, n) == p2
        assert MacdonaldCache(d)._load_disk(lam, n) == p2

    assert c1.clear_disk() >= 1
    assert c1.list_disk() == []


def test_damaged_terms_are_rejected_and_rebuilt(tmp_path):
    # a zero coefficient or a term written twice is not what to_json
    # writes: the file is rejected, counted and rebuilt byte for byte,
    # instead of loading an element out of normal form
    d = str(tmp_path)
    lam, n = (3, 1), 2
    p1 = MacdonaldCache(d).get_P(lam, n)
    path = os.path.join(d, "P_n2_3-1.json")
    with open(path, encoding="utf-8") as fh:
        written = fh.read()
    entry = next(i for i, e in enumerate(json.loads(written)["coeffs"])
                 if e["partition"] == [2, 2])
    for side, damage in (("num", [3, 0, "0"]), ("den", [0, 0, "-0"]),
                         ("num", None), ("den", None)):
        data = json.loads(written)
        terms = data["coeffs"][entry]["value"][side]
        terms.append(damage if damage is not None else list(terms[0]))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        stats.reset()
        assert MacdonaldCache(d).get_P(lam, n) == p1, (side, damage)
        snap = stats.snapshot()
        assert (snap["cache_files_rejected"], snap["basis_built"],
                snap["cache_files_written"]) == (1, 1, 1), (side, damage)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == written, (side, damage)
    # a partition listed twice is refused as well
    data = json.loads(written)
    data["coeffs"].append(data["coeffs"][entry])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert MacdonaldCache(d)._load_disk(lam, n) is None


def test_cache_counts_builds_reads_and_writes(tmp_path):
    # one cold get_P builds and writes its element; a second cache on the
    # same directory reads it back and builds nothing
    d = str(tmp_path)
    stats.reset()
    p1 = MacdonaldCache(d).get_P((2, 1), 3)
    cold = stats.snapshot()
    assert (cold["basis_built"], cold["cache_files_written"],
            cold["cache_files_read"], cold["cache_files_rejected"]) == (1, 1, 0, 0)
    stats.reset()
    assert MacdonaldCache(d).get_P((2, 1), 3) == p1
    warm = stats.snapshot()
    assert (warm["basis_built"], warm["cache_files_written"],
            warm["cache_files_read"], warm["cache_files_rejected"]) == (0, 0, 1, 0)


FROZEN_CACHE = os.path.join(os.path.dirname(__file__), "data", "cache")
FROZEN_ENTRIES = (((2, 1), 3), ((3, 2, 1), 4), ((2, 2, 1, 1), 4))


def test_stable_route_matches_full_build(tmp_path):
    # for n > |lam|, get_P re-wraps the entry at |lam| variables; the build
    # at the full n is the oracle.  Only the requested entry is kept, and
    # its file loads back to the same element
    t0 = time.process_time()
    cache = MacdonaldCache(str(tmp_path))
    asked = set()
    for d in range(1, 5):
        for lam in partitions_of(d):
            for n in range(d + 1, 7):
                got = cache.get_P(lam, n)
                asked.add((n, lam))
                assert got == macdonald._build_P(lam, n), (lam, n)
                assert MacdonaldCache(str(tmp_path))._load_disk(lam, n) == got
    assert set(cache._P) == asked and len(cache.list_disk()) == len(asked)
    assert time.process_time() - t0 < 30


def test_cache_bytes_frozen(tmp_path):
    # get_P writes the recorded files byte for byte, and the recorded files
    # load back, audits included, equal to a fresh build
    fresh = MacdonaldCache(str(tmp_path))
    for lam, n in FROZEN_ENTRIES:
        fresh.get_P(lam, n)
    names = sorted(os.listdir(FROZEN_CACHE))
    assert fresh.list_disk() == names
    for name in names:
        with open(os.path.join(FROZEN_CACHE, name), "rb") as fh:
            recorded = fh.read()
        with open(os.path.join(str(tmp_path), name), "rb") as fh:
            assert fh.read() == recorded, name
    recorded = MacdonaldCache(FROZEN_CACHE)
    for lam, n in FROZEN_ENTRIES:
        loaded = recorded._load_disk(lam, n)
        assert loaded is not None and loaded == fresh.get_P(lam, n), (lam, n)


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    # a write that fails midway leaves the previous file loadable and
    # removes its temporary file
    d = str(tmp_path)
    p1 = MacdonaldCache(d).get_P((2,), 2)
    partial = []

    class HalfWriter:
        # writes the first half of the text to the temporary file, then
        # fails as a full device would
        def __init__(self, path, *args, **kwargs):
            self.path = path
            self.fh = open(path, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            partial.append((self.path, os.path.getsize(self.path)))
            raise OSError("device full")

    # macdonald's own name open shadows the builtin for the one write
    monkeypatch.setattr(macdonald, "open", HalfWriter, raising=False)
    with pytest.raises(OSError, match="device full"):
        MacdonaldCache(d)._store_disk((2,), 2, p1)
    monkeypatch.undo()
    [(tmp, written)] = partial
    assert tmp.endswith(".tmp") and written > 0
    assert os.listdir(d) == ["P_n2_2.json"]
    assert MacdonaldCache(d)._load_disk((2,), 2) == p1


def test_broken_invariant_raises(monkeypatch, empty_store):
    # a wrong shift eigenvalue is a raised error, not an assert: the shift
    # column that the basis construction reads is checked when it is built
    real = qops.eigen_shift
    monkeypatch.setattr(qops, "eigen_shift",
                        lambda l, lam, n: real(l, lam, n) + ONE)
    with pytest.raises(MacHyperError):
        MacdonaldCache().get_P((2,), 2)


def test_cache_env_var(tmp_path, monkeypatch):
    # MacdonaldCache() stays memory-only while MACHYPER_CACHE_DIR is set:
    # only the command line reads the variable
    monkeypatch.setenv("MACHYPER_CACHE_DIR", str(tmp_path))
    c = MacdonaldCache()
    assert c.cache_dir is None
    c.get_P((1,), 2)
    assert c.list_disk() == []
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(sys.flags.optimize, reason="already running under -O")
def test_module_passes_under_optimize():
    # invariant checks are raised errors, so python -O must not weaken them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "tests/test_macdonald.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
