"""Tests for the verification suites: selection handling, seeded draws,
mutation sensitivity, and the classical-limit oracle."""

import json
import random
from functools import lru_cache, partial
from pathlib import Path

import pytest

import machyper.series as series
import machyper.verify as verify
from machyper import stats
from machyper.errors import (LimitError, MacHyperError, PoleError,
                             ResourceGuardError)
from machyper.partitions import enumerate_partitions
from machyper.qops import (alphabet_difference, apply_ad_lower_upto,
                           apply_ad_raise_upto, apply_compiled, apply_kind,
                           on_values, to_scaled, unscale)
from machyper.ratfunc import ONE, Q, T, elementary_symmetric, rf
from machyper.series import (HyperParams, TruncatedSeries, check_lower_poles,
                             transfer_diag_lower, transfer_diag_raise,
                             transfer_lower, transfer_raise)
from machyper.sympoly import BiSymPoly, SymPoly, basis_poly
from machyper.verify import (DEFAULT_SEED, MAX_SUITE_VARS, PARAM_GRID,
                             SUITE_ORDER, _resid_A, _resid_B, _resid_C,
                             check_classical_limit, draw_hyper_params,
                             jack_oracle, limit_at_q_power, run_suite,
                             suite_passed)


DATA = Path(__file__).resolve().parent / "data"


def _json_list(reports):
    return [r.to_json() for r in reports]


# ---------------------------------------------------------------------------
# selection and guards

def test_empty_selection_is_empty(cache):
    assert run_suite((), n=2, D=2, draws=1, cache=cache) == []


def test_unknown_selection(cache):
    with pytest.raises(ValueError):
        run_suite(("A", "nope"), n=2, D=2, draws=1, cache=cache)


def test_variable_guard(cache):
    with pytest.raises(ResourceGuardError):
        run_suite("B", n=MAX_SUITE_VARS + 1, D=2, draws=1, cache=cache)


def test_bad_sizes(cache):
    with pytest.raises(ValueError):
        run_suite("B", n=0, D=2, draws=1, cache=cache)
    with pytest.raises(ValueError):
        run_suite("B", n=2, D=2, draws=0, cache=cache)


def test_constants():
    assert SUITE_ORDER == ("A", "Aprime", "kernel", "B", "C", "kaneko",
                           "tilde", "univariate", "jack")
    assert PARAM_GRID == ((0, 0), (1, 0), (1, 1), (2, 1))


# ---------------------------------------------------------------------------
# seeded parameter draws

def test_draw_shapes_and_determinism():
    p1 = draw_hyper_params(random.Random(5), 2, 1, 2, 3)
    p2 = draw_hyper_params(random.Random(5), 2, 1, 2, 3)
    assert (p1.r, p1.s) == (2, 1)
    assert p1.upper == p2.upper and p1.lower == p2.lower
    for v in p1.upper + p1.lower:
        assert not v.is_zero() and v != ONE
    # lower draws stay clear of the truncation pole set plus headroom
    check_lower_poles(HyperParams((), p1.lower), 2, 5)


def test_draw_streams_vary_with_seed():
    p1 = draw_hyper_params(random.Random(1), 1, 0, 2, 3)
    p2 = draw_hyper_params(random.Random(2), 1, 0, 2, 3)
    assert p1.upper != p2.upper


# ---------------------------------------------------------------------------
# suite runs

def test_full_suite_small_grid(cache):
    reports = run_suite("all", n=2, D=3, draws=1, cache=cache)
    assert reports and suite_passed(reports)
    # every suite contributes at least one report
    assert {r.theorem for r in reports} == set(SUITE_ORDER)
    for r in reports:
        j = r.to_json()
        assert set(j) == {"theorem", "n", "D", "params",
                          "residual_degrees", "pass"}
        assert j["pass"] is True
        assert "pass" in r.render_text()


def test_selection_independent_draws(cache):
    both = run_suite(("B", "C"), n=2, D=3, draws=1, cache=cache)
    only = run_suite(("B",), n=2, D=3, draws=1, cache=cache)
    b_from_both = [r.to_json() for r in both if r.theorem == "B"]
    assert _json_list(only) == b_from_both


def test_seed_determinism(cache):
    r1 = run_suite(("B",), n=2, D=3, draws=2, cache=cache)
    r2 = run_suite(("B",), n=2, D=3, draws=2, cache=cache)
    assert _json_list(r1) == _json_list(r2)
    r3 = run_suite(("B",), n=2, D=3, seed=7, draws=2, cache=cache)
    assert _json_list(r3) != _json_list(r1)   # different parameter draws
    assert suite_passed(r3)                   # but the theorems still hold


def test_mutation_flips_fast_suites(cache):
    sel = ("kernel", "B", "C", "kaneko", "tilde", "univariate", "jack")
    good = run_suite(sel, n=2, D=3, draws=1, cache=cache)
    bad = run_suite(sel, n=2, D=3, draws=1, cache=cache, mutate=(1,))
    assert suite_passed(good)
    assert len(bad) == len(good)
    for r in bad:
        assert not r.passed


def _fresh_factored_store(monkeypatch):
    store = lru_cache(maxsize=verify.MAX_FACTORED_INPUTS)(
        verify._factored_monomial.__wrapped__)
    monkeypatch.setattr(verify, "_factored_monomial", store)
    return store


def test_kaneko_identity_fails_on_a_wrong_factored_side(cache, monkeypatch):
    # only the factored side changes: its second shift level reads the
    # first, while B still runs through the transfers.  The images of the
    # monomials are built afresh, or the store would hold undamaged ones
    _fresh_factored_store(monkeypatch)
    real = verify.apply_kind
    monkeypatch.setattr(verify, "apply_kind",
                        lambda kind, gs: real(1 if kind == 2 else kind, gs))
    reports = run_suite(("kaneko",), n=2, D=2, draws=1, cache=cache)
    assert reports
    for r in reports:
        assert not r.passed
        assert any(note.startswith("operator identity failed")
                   for note in r.notes)


def test_kaneko_images_are_built_once_per_monomial(cache, monkeypatch):
    # the parameter-free images of the nine monomials of degree <= 4 in two
    # variables are built by the first seed's check and read by the
    # second's, whose report is the one an empty store gives
    assert verify._factored_monomial.cache_info().maxsize == \
        verify.MAX_FACTORED_INPUTS
    store = _fresh_factored_store(monkeypatch)
    built = []
    for seed in (1, 2):
        stats.reset()
        warm = run_suite(("kaneko",), n=2, D=2, seed=seed, draws=1,
                         cache=cache)
        built.append(stats.snapshot()["factored_images_built"])
    assert built == [9, 0] and store.cache_info().currsize == 9
    _fresh_factored_store(monkeypatch)
    cold = run_suite(("kaneko",), n=2, D=2, seed=2, draws=1, cache=cache)
    assert suite_passed(warm)
    assert _json_list(warm) == _json_list(cold)
    assert [r.render_text() for r in warm] == [r.render_text() for r in cold]


def test_reports_frozen(cache):
    # every report of a small full run, plain and mutated, in JSON and in
    # text, exactly as recorded in the data file
    want = json.loads((DATA / "verify_reports_n2_D2_seed5.json").read_text())
    for key, mutate in (("plain", None), ("mutate_1", (1,))):
        reports = run_suite("all", n=2, D=2, draws=1, seed=5, cache=cache,
                            mutate=mutate)
        got = json.loads(json.dumps(_json_list(reports)))
        assert got == want[key]["json"], key
        assert [r.render_text() for r in reports] == want[key]["text"], key


@pytest.mark.parametrize("n, mutate", [(2, (1,)), (3, (1, 1, 1))])
def test_residual_support_from_numerators(cache, n, mutate):
    # the residuals never divide: their support, read from the numerators,
    # is the support of the normalized residual built from the transfers'
    # values, on a mutated series where it is nonempty.  A in the exchanged
    # orientation reads the same cleared image as A, in F's orientation
    D = 3
    p = draw_hyper_params(random.Random(11), 2, 1, n, D)
    ser = TruncatedSeries.build(n, D, p).mutate(mutate)
    F, f = ser.render_two(cache), ser.render_one(cache)
    Fs, fs = ser.cleared("two", cache), ser.cleared("one", cache)
    assert (Fs, fs) == (to_scaled(F), to_scaled(f))
    lower = on_values(transfer_lower(p.lower))
    raised = on_values(transfer_raise(p.upper))
    ref_A = F.apply_x(lower) - F.swap().apply_x(raised).swap()
    ref_Aprime = F.swap().apply_x(lower).swap() - F.apply_x(raised)
    for swapped, ref in ((False, ref_A), (True, ref_Aprime)):
        got_A = _resid_A(Fs, p, swapped)
        assert got_A.coeffs and set(got_A.coeffs) == set(ref.coeffs), swapped
        assert got_A.bidegrees() == ref.bidegrees(), swapped
    ref_B = on_values(transfer_diag_raise(p.upper))(f) - lower(f)
    ref_C = on_values(transfer_diag_lower(p.lower))(f) - raised(f)
    for got, ref in ((_resid_B(fs, p), ref_B), (_resid_C(fs, p), ref_C)):
        assert got[0].coeffs and set(got[0].coeffs) == set(ref.coeffs)
        assert unscale(got) == ref


@pytest.mark.parametrize("n", (2, 3))
def test_B_and_C_apply_one_compiled_sum(n):
    # B and C are one stored matrix each: the compiled sum at m_mu, for
    # every |mu| <= D+1, is the value of its diagonal transfer minus that
    # of its other transfer, and a warm residual reads that one sum
    D = 2
    p = draw_hyper_params(random.Random(1), 2, 1, n, D)
    cases = ((_resid_B, ((1, "diag_raise", p.upper), (-1, "lower", p.lower)),
              transfer_diag_raise(p.upper), transfer_lower(p.lower)),
             (_resid_C, ((1, "diag_lower", p.lower), (-1, "raise", p.upper)),
              transfer_diag_lower(p.lower), transfer_raise(p.upper)))
    for resid, parts, diag, other in cases:
        compiled = series._compiled(parts, n)
        for mu in enumerate_partitions(D + 1, n):
            m = basis_poly("m", mu, n)
            assert unscale(apply_compiled(compiled, (m, ONE))) == \
                on_values(diag)(m) - on_values(other)(m), (resid.__name__, mu)
        fs = to_scaled(basis_poly("m", (1,), n))
        resid(fs, p)
        stats.reset()
        resid(fs, p)
        snap = stats.snapshot()
        assert (snap["transfers_compiled"], snap["transfers_reused"]) == (0, 1)


@pytest.mark.parametrize("n", (2, 3))
def test_A_applies_two_stored_transfers(n):
    # A's two sides are the one-part compiled sums of the lowering and the
    # raising transfer: at m_mu, for every |mu| <= D+1, each is that
    # transfer's value, which is also sum_l (-1)^l e_l(values) times the
    # l-fold commutator read from the uncompiled level list; a warm
    # residual of one term, one slice per alphabet, reads the two sums
    D = 2
    p = draw_hyper_params(random.Random(1), 2, 1, n, D)
    cases = ((("lower", p.lower), transfer_lower(p.lower), apply_ad_lower_upto),
             (("raise", p.upper), transfer_raise(p.upper), apply_ad_raise_upto))
    for (kind, values), transfer, levels in cases:
        compiled = series._compiled(((1, kind, values),), n)
        coeffs = elementary_symmetric(list(values))
        for mu in enumerate_partitions(D + 1, n):
            m = basis_poly("m", mu, n)
            got = unscale(apply_compiled(compiled, (m, ONE)))
            assert got == on_values(transfer)(m), (kind, mu)
            want = SymPoly.zero(n)
            for l, gs in enumerate(levels(len(values), (m, ONE))):
                want = want + unscale(gs).scale_rf(coeffs[l] if l % 2 == 0
                                                   else -coeffs[l])
            assert got == want, (kind, mu)
    Fs = (BiSymPoly(n, {((1,), ()): ONE}), ONE)
    for swapped in (False, True):
        _resid_A(Fs, p, swapped)
        stats.reset()
        _resid_A(Fs, p, swapped)
        snap = stats.snapshot()
        assert (snap["transfers_compiled"], snap["transfers_reused"]) == (0, 2)


@pytest.mark.parametrize("n", (2, 3))
def test_kernel_residual_support_from_cleared_image(cache, n):
    # the kernel check clears the rendering once and compares integer
    # images; each level difference has the support of the literal value
    # difference, and the report lists exactly its bidegrees.  A plain or
    # mutated series lies in the kernel; an injected off-diagonal term
    # leaves it.
    D = 2
    p = draw_hyper_params(random.Random(5), 1, 1, n, D)
    for mutate in (None, (1,)):
        ser = TruncatedSeries.build(n, D, p)
        if mutate is not None:
            ser = ser.mutate(mutate)
        for cross in (None, (1,), (2,)):
            F = ser.render_two(cache)
            if cross is not None:
                F = F + BiSymPoly(n, {(cross, ()): ONE})
            want = set()
            for l in range(1, n + 1):
                D_l = partial(apply_kind, l)
                ref = (F.apply_x(on_values(D_l))
                       - F.swap().apply_x(on_values(D_l)).swap())
                got = alphabet_difference(to_scaled(F), D_l, D_l)
                assert set(got.coeffs) == set(ref.coeffs), (mutate, cross, l)
                want.update(ref.bidegrees())
            assert bool(want) == (cross is not None)
            report = verify.check_diagonal_match(ser, cache, cross=cross)
            assert report.residual_degrees == [list(k) for k in sorted(want)]
            assert report.passed == (cross is None)


def test_each_two_alphabet_rendering_is_cleared_once(cache, monkeypatch):
    # A, Aprime and the kernel check read one cleared image of each
    # series, and tilde's A one of each mirror; the kernel check's negative
    # control is a monomial product, its own integer image.  Four draws at
    # n = 2 give 4 series and 4 mirrors
    real = verify.to_scaled
    cleared = []

    def counting(f):
        cleared.append(type(f))
        return real(f)
    monkeypatch.setattr(series, "to_scaled", counting)
    monkeypatch.setattr(verify, "to_scaled", counting)
    reports = run_suite("all", n=2, D=2, draws=1, seed=1, cache=cache)
    assert suite_passed(reports)
    assert cleared.count(BiSymPoly) == 8


# ---------------------------------------------------------------------------
# classical-limit oracle

def test_jack_oracle_frozen():
    for k in (1, 2, 3):
        m1 = basis_poly("m", (1,), 2)
        assert jack_oracle((1,), k, 2) == m1.scale_rf(rf(k))
        m2 = basis_poly("m", (2,), 2)
        m11 = basis_poly("m", (1, 1), 2)
        want = m2.scale_rf(rf(k * (k + 1))) + m11.scale_rf(rf(2 * k * k))
        assert jack_oracle((2,), k, 2) == want


def test_limit_q1_exact():
    assert limit_at_q_power(ONE + Q + Q ** 2, 1, 0) == 3
    # t = q^2 first: (1 - t) / (1 - q) = 1 + q at q = 1
    assert limit_at_q_power(ONE - T, 2, 1) == 2
    # dividing by (1-q)^2
    assert limit_at_q_power((ONE - Q) * (ONE - Q ** 2), 1, 2) == 2
    assert limit_at_q_power(ONE - Q, 1, 0) == 0   # a zero limit is returned
    with pytest.raises(LimitError):
        limit_at_q_power(ONE + Q, 1, 1)           # pole survives
    with pytest.raises(MacHyperError) as err:
        limit_at_q_power(ONE / (ONE - Q), 1, 0)   # not a polynomial
    assert not isinstance(err.value, LimitError)


def test_classical_limit_reports(cache):
    for k in (1, 2):
        rep = check_classical_limit(k, max_size=2, cache=cache)
        assert rep.passed
    assert not check_classical_limit(1, max_size=2, cache=cache,
                                     mutate=True).passed
