"""Tests for the truncated hypergeometric series: frozen coefficients,
product oracles, transfer-operator actions, flavor transforms, and the
univariate collapse."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache, partial

import pytest

import machyper.series as series
from machyper import stats
from machyper.errors import MacHyperError, PoleError
from machyper.macdonald import (binomial_by_expansion, jstar_principal,
                                macdonald_forms, principal_m)
from machyper.partitions import (enumerate_partitions, lower_covers,
                                 make_partition, n_stat, partitions_of,
                                 rho_stat, upper_covers)
from machyper.qops import (apply_kind, apply_literal, on_values, to_scaled,
                           unscale)
from machyper.ratfunc import ONE, Q, T, qt_monomial, rf, t_monomial
from machyper.series import (HyperParams, TruncatedSeries, check_lower_poles,
                             eigen_ops_lower, eigen_ops_lower_from_shifts,
                             eigen_ops_raise, eigen_ops_raise_from_shifts,
                             eigen_value_lower, eigen_value_lower_brute,
                             eigen_value_raise, eigen_value_raise_brute,
                             kaneko_transform, product_series_one,
                             scale_alphabet,
                             transfer_diag_lower, transfer_diag_lower_uv,
                             transfer_diag_raise, transfer_diag_raise_uv,
                             transfer_lower, transfer_lower_uv,
                             transfer_raise, transfer_raise_uv, uv_shift)
from machyper.sympoly import SymPoly, basis_poly


# ---------------------------------------------------------------------------
# the bare series against frozen values and product oracles

def test_series_frozen_univariate(cache):
    s = TruncatedSeries.build(1, 2, HyperParams.make())
    want = SymPoly.from_coeffs(1, {
        (): ONE,
        (1,): (ONE - Q).inverse(),
        (2,): ((ONE - Q) * (ONE - Q * Q)).inverse(),
    })
    assert s.render_one(cache) == want


@pytest.mark.parametrize("n,D", [(1, 2), (2, 3)])
def test_series_no_params_vs_product(n, D, cache):
    s = TruncatedSeries.build(n, D, HyperParams.make())
    assert s.render_one(cache) == product_series_one("inv", n, D)


def test_series_one_upper_vs_ratio_product(cache):
    a = rf(Fraction(2, 7))
    s = TruncatedSeries.build(2, 3, HyperParams.make(upper=[a]))
    assert s.render_one(cache) == product_series_one("ratio", 2, 3, a)


def test_series_cauchy_parameter(cache):
    # upper parameter t^n specializes the ratio product to the Cauchy case
    a = t_monomial(2)
    s = TruncatedSeries.build(2, 3, HyperParams.make(upper=[a]))
    assert s.render_one(cache) == product_series_one("ratio", 2, 3, a)


def test_lower_pole_detection():
    with pytest.raises(PoleError):
        check_lower_poles(HyperParams.make(lower=[qt_monomial(-1, 1)]), 3, 4)
    check_lower_poles(HyperParams.make(lower=[rf(Fraction(1, 3))]), 3, 4)


def test_inverted_build_pole_condition():
    # at reciprocal q, t the cell factor 1 - b q^(1-j) t^(i-1) vanishes for
    # b = q^(j-1) t^(1-i); the error names the parameter, cell and partition
    hits = (([rf(Fraction(1, 3)), Q], r"#2 = .* cell \(1,2\), first hit by partition \[2\]"),
            ([qt_monomial(0, -1)], r"#1 = .* cell \(2,1\), first hit by partition \[1,1\]"))
    for lower, where in hits:
        with pytest.raises(PoleError, match=where):
            TruncatedSeries.build(2, 2, HyperParams.make(lower=lower).inverted())
        TruncatedSeries.build(2, 2, HyperParams.make(lower=lower))


# ---------------------------------------------------------------------------
# diagonal transfer operators

def test_diag_raise_on_constant():
    a = rf(Fraction(1, 5))
    f0 = SymPoly.one(1)
    got = on_values(transfer_diag_raise([a]))(f0)
    assert got == f0.scale_rf((ONE - a) / (ONE - Q))


@pytest.mark.parametrize("n", [1, 2])
def test_diag_lower_on_integral_basis(n, cache):
    b = rf(Fraction(3, 5))
    J1 = macdonald_forms(make_partition((1,)), n, cache).J
    got = on_values(transfer_diag_lower([b]))(J1)
    assert got == J1.scale_rf(ONE - b)


@pytest.mark.parametrize("n", [2, 3])
def test_level_zero_lower_is_weight(n, cache):
    for d in range(4):
        for lam in partitions_of(d, n):
            J = macdonald_forms(lam, n, cache).J
            h0 = unscale(eigen_ops_lower(0, to_scaled(J))[0])
            assert h0 == on_values(partial(apply_kind, "weight"))(J)
            assert h0 == J.scale_rf(rho_stat(lam))


# ---------------------------------------------------------------------------
# the eigen-operator families: closed eigenvalues, display routes, brute sums

@pytest.mark.parametrize("n", [1, 2])
def test_closed_eigenvalues_on_integral_basis(n, cache):
    for d in range(3):
        for mu in partitions_of(d, n):
            J = macdonald_forms(mu, n, cache).J
            gs = eigen_ops_raise(3, to_scaled(J))
            for l in range(4):
                assert unscale(gs[l]) == J.scale_rf(eigen_value_raise(l, mu, n))
            hs = eigen_ops_lower(2, to_scaled(J))
            for l in range(3):
                assert unscale(hs[l]) == J.scale_rf(eigen_value_lower(l, mu, n))


@pytest.mark.parametrize("n", [1, 2])
def test_display_routes_match_recursion(n):
    # generic non-eigenvector input
    f = SymPoly.from_coeffs(n, {(): rf(1), (1,): rf(Fraction(2, 3)), (2,): Q})
    gs = eigen_ops_raise(3, to_scaled(f))
    for l in range(4):
        assert unscale(gs[l]) == eigen_ops_raise_from_shifts(l, f)
    hs = eigen_ops_lower(2, to_scaled(f))
    for l in range(3):
        assert unscale(hs[l]) == eigen_ops_lower_from_shifts(l, f)


@pytest.mark.parametrize("n", [2, 3])
def test_brute_cover_sums_match_closed(n, cache):
    for d in range(3):
        for mu in partitions_of(d, n):
            for l in range(3):
                assert eigen_value_raise(l, mu, n) == \
                    eigen_value_raise_brute(l, mu, n, cache)
                assert eigen_value_lower(l, mu, n) == \
                    eigen_value_lower_brute(l, mu, n, cache)


# ---------------------------------------------------------------------------
# raising/lowering transfer actions expand over covers

def test_raise_action_is_cover_sum(cache):
    alist = [rf(Fraction(1, 2)), rf(Fraction(5, 3))]
    n, mu = 2, make_partition((1,))
    got = on_values(transfer_raise(alist))(macdonald_forms(mu, n, cache).Jstar)
    want = SymPoly.zero(n)
    for cv in upper_covers(mu, max_length=n):
        w = ONE
        for ak in alist:
            w = w * (ONE - ak * cv.rho_skew)
        want = want + macdonald_forms(cv.upper, n, cache).Jstar.scale_rf(
            w * t_monomial(cv.n_skew)
            * binomial_by_expansion(cv.upper, mu, n, cache))
    assert got == want


def test_lower_action_is_cover_sum(cache):
    blist = [rf(Fraction(2, 9))]
    n, lam = 2, make_partition((2, 1))
    got = on_values(transfer_lower(blist))(macdonald_forms(lam, n, cache).Jnorm)
    want = SymPoly.zero(n)
    for cv in lower_covers(lam):
        w = ONE
        for bk in blist:
            w = w * (ONE - bk * cv.rho_skew)
        want = want + macdonald_forms(cv.lower, n, cache).Jnorm.scale_rf(
            w * binomial_by_expansion(lam, cv.lower, n, cache))
    assert got == want


# ---------------------------------------------------------------------------
# flavor transforms

def test_kaneko_transform_round_trip(cache):
    params = HyperParams.make(upper=[rf(Fraction(1, 2))],
                              lower=[rf(Fraction(3, 7))])
    s = TruncatedSeries.build(2, 2, params)
    k = kaneko_transform(s, cache)   # raises if the defining relation fails
    assert k.flavor == "kaneko"
    back = kaneko_transform(k, cache)
    assert back.flavor == "macdonald"
    assert back.coeffs == s.coeffs


def test_kaneko_transform_broken_relation_raises(cache, monkeypatch):
    # a failed relation raises a MacHyperError, which python -O keeps
    scale = series.flavor_scale_one
    monkeypatch.setattr(series, "flavor_scale_one", lambda p: scale(p) * rf(2))
    params = HyperParams.make(upper=[rf(Fraction(1, 2))],
                              lower=[rf(Fraction(3, 7))])
    with pytest.raises(MacHyperError, match="flavor transform relation"):
        kaneko_transform(TruncatedSeries.build(1, 2, params), cache)


@pytest.mark.parametrize("c", [rf(3) * Q / rf(2), (ONE - Q) / T])
def test_transfers_are_homogeneous(c, cache):
    # x -> c x: the lowering transfer has degree -1 in its alphabet, the
    # raising one degree +1 and the diagonal ones degree 0, so a constant
    # scaling the alphabet never changes where a residual is nonzero
    a, b = [rf(Fraction(1, 2)), rf(2) * Q], [rf(Fraction(3, 7)) / T]
    f = TruncatedSeries.build(2, 3, HyperParams.make(upper=a, lower=b)
                              ).render_one(cache)
    fc = scale_alphabet(f, c)
    for op, factor in ((transfer_lower(b), c), (transfer_raise(a), ONE / c),
                       (transfer_diag_raise(a), ONE),
                       (transfer_diag_lower(b), ONE)):
        value = on_values(op)
        assert value(fc) == scale_alphabet(value(f), c).scale_rf(factor)


# ---------------------------------------------------------------------------
# compiled transfers against level-by-level sums, and the transfer store

def _nested_ad(l, base, f, negate):
    """l-fold commutator [W, .] of the weight operator W around the kind
    base, nested through literal assemblies; negate uses -W."""
    if l == 0:
        return apply_literal(base, f)
    outer = apply_literal("weight", _nested_ad(l - 1, base, f, negate))
    inner = _nested_ad(l - 1, base, apply_literal("weight", f), negate)
    return inner - outer if negate else outer - inner


def _level_sum(levels, values):
    """sum over l of (-1)^l e_l(values) levels[l], for at most two values."""
    es = [ONE, sum(values, ONE - ONE), values[0] * values[1]
          if len(values) == 2 else ONE - ONE]
    out = SymPoly.zero(levels[0].n_vars)
    for l in range(len(values) + 1):
        out = out + levels[l].scale_rf(-es[l] if l % 2 else es[l])
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiled_transfers_match_level_routes(n):
    # each transfer against the sum, level by level, of routes that share
    # no word with it: the commutators nested through literal assemblies,
    # and the eigen families assembled from shift-operator words
    lists = ([], [rf(Fraction(2, 3)) * Q], [rf(Fraction(2, 3)) * Q, T.inverse()])
    for d in range(4):
        for mu in partitions_of(d, n):
            f = basis_poly("m", mu, n)
            routes = (
                (transfer_lower, [_nested_ad(l, "lower", f, True) for l in range(3)]),
                (transfer_raise, [_nested_ad(l, "raise", f, False) for l in range(3)]),
                (transfer_diag_raise, [eigen_ops_raise_from_shifts(l, f)
                                       for l in range(3)]),
                (transfer_diag_lower, [eigen_ops_lower_from_shifts(l, f)
                                       for l in range(3)]))
            for transfer, levels in routes:
                for values in lists:
                    assert on_values(transfer(values))(f) == \
                        _level_sum(levels, values), (transfer.__name__, mu, values)


def _fresh_store(monkeypatch, size=series.MAX_TRANSFERS):
    store = lru_cache(maxsize=size)(series._compiled.__wrapped__)
    monkeypatch.setattr(series, "_compiled", store)
    return store


def test_transfer_store_is_bounded(monkeypatch, cache):
    assert series._compiled.cache_info().maxsize == series.MAX_TRANSFERS
    # an evicted transfer is compiled again on use and applies unchanged
    a, b = [rf(Fraction(1, 2)), rf(2) * Q], [rf(Fraction(3, 7)) / T]
    f = TruncatedSeries.build(2, 2, HyperParams.make(upper=a, lower=b)
                              ).render_one(cache)
    ops = ((transfer_lower, b), (transfer_raise, a),
           (transfer_diag_raise, a), (transfer_diag_lower, b))
    want = [on_values(transfer(values))(f) for transfer, values in ops]
    small = _fresh_store(monkeypatch, 2)
    for _ in range(2):
        assert [on_values(transfer(values))(f) for transfer, values in ops] == want
        assert small.cache_info().currsize == 2
    # four transfers cycled through two entries: every lookup compiled
    assert small.cache_info().misses == 8


def test_transfer_columns_are_made_once(monkeypatch):
    # a transfer keeps its image of each m_mu it meets: applied again to
    # another input over the same partitions, it builds no column, runs no
    # gcd and gives what a transfer compiled afresh gives
    n, scal = 3, (ONE - Q * T).inverse()
    first = SymPoly(n, {(2, 1): ONE, (3,): Q, (1, 1, 1): rf(2)})
    second = SymPoly(n, {(2, 1): T - ONE, (3,): rf(-3), (1, 1, 1): Q * Q})
    a, b = [rf(Fraction(2, 3)) * Q, T.inverse()], [rf(Fraction(5, 7)) / T]
    ops = ((transfer_lower, b), (transfer_raise, a),
           (transfer_diag_raise, a), (transfer_diag_lower, b))
    _fresh_store(monkeypatch)
    want = [transfer(values)((second, scal)) for transfer, values in ops]
    _fresh_store(monkeypatch)
    for (transfer, values), w in zip(ops, want):
        op = transfer(values)
        op((first, scal))
        stats.reset()
        assert op((second, scal)) == w, transfer.__name__
        snap = stats.snapshot()
        assert (snap["transfer_columns_built"], snap["transfer_columns_reused"],
                snap["gcd_calls"]) == (0, len(second.coeffs), 0)


def test_transfer_columns_leave_with_the_transfer(monkeypatch, cache):
    # the columns live on the compiled transfer: under a 2-entry store each
    # lookup of three transfers compiles afresh and builds its columns
    # anew, and the values stay those of the full store
    a, b = [rf(Fraction(1, 2)), rf(2) * Q], [rf(Fraction(3, 7)) / T]
    gs = to_scaled(TruncatedSeries.build(2, 2, HyperParams.make(upper=a, lower=b)
                                         ).render_one(cache))
    ops = (transfer_lower(b), transfer_lower([Q * Q]), transfer_raise(a))
    want = [op(gs) for op in ops]
    small = _fresh_store(monkeypatch, 2)
    stats.reset()
    for _ in range(2):
        assert [op(gs) for op in ops] == want
    snap = stats.snapshot()
    assert small.cache_info().misses == 6
    assert snap["transfer_columns_built"] == 6 * len(gs[0].coeffs)
    assert snap["transfer_columns_reused"] == 0


def test_transfer_store_keys_on_field_values(monkeypatch):
    fresh = _fresh_store(monkeypatch)
    gs = to_scaled(basis_poly("m", (2, 1), 3))
    stats.reset()
    # one value given three ways: one entry, compiled once
    for half in (rf(Fraction(1, 2)), Fraction(2, 4), (ONE + ONE).inverse()):
        transfer_lower([half, Q])(gs)
    assert fresh.cache_info().currsize == 1
    snap = stats.snapshot()
    assert (snap["transfers_compiled"], snap["transfers_reused"]) == (1, 2)
    # another value, another kind, another n, another list: new entries
    transfer_lower([rf(Fraction(1, 3)), Q])(gs)
    transfer_raise([rf(Fraction(1, 2)), Q])(gs)
    transfer_lower([rf(Fraction(1, 2)), Q])(to_scaled(basis_poly("m", (2, 1), 2)))
    transfer_lower([rf(Fraction(1, 2))])(gs)
    assert fresh.cache_info().currsize == 5
    assert stats.snapshot()["transfers_compiled"] == 5


def test_balanced_flavors_coincide(cache):
    # one more upper than lower parameter makes the two flavors equal
    params = HyperParams.make(upper=[rf(Fraction(1, 2)), rf(2)],
                              lower=[rf(Fraction(3, 7))])
    sm = TruncatedSeries.build(1, 2, params, flavor="macdonald")
    sk = TruncatedSeries.build(1, 2, params, flavor="kaneko")
    assert sm.coeffs == sk.coeffs


# ---------------------------------------------------------------------------
# univariate collapse

def test_univariate_collapse_frozen():
    zk = SymPoly.from_coeffs(1, {(3,): ONE})
    a1 = rf(Fraction(1, 4))
    b1 = rf(Fraction(2, 3))
    assert transfer_raise_uv([a1], zk) == SymPoly.from_coeffs(
        1, {(4,): rf(-1) / (ONE - Q) * (a1 * Q ** 3 - ONE)})
    assert transfer_diag_raise_uv([a1], zk) == SymPoly.from_coeffs(
        1, {(3,): rf(-1) / (ONE - Q) * (a1 * Q ** 3 - ONE)})
    assert transfer_lower_uv([b1], zk) == SymPoly.from_coeffs(
        1, {(2,): ONE / (ONE - Q) * (Q ** 3 - ONE) * (b1 * Q ** 2 - ONE)})
    assert transfer_diag_lower_uv([b1], zk) == SymPoly.from_coeffs(
        1, {(3,): ONE / (ONE - Q) * (Q ** 3 - ONE) * (b1 * Q ** 2 - ONE)})


def test_univariate_matches_full_operators():
    a1 = rf(Fraction(1, 4))
    b1 = rf(Fraction(2, 3))
    f = SymPoly.from_coeffs(1, {(2,): rf(Fraction(1, 3)), (1,): T})
    for uv, full, ps in ((transfer_raise_uv, transfer_raise, [a1]),
                         (transfer_lower_uv, transfer_lower, [b1]),
                         (transfer_diag_raise_uv, transfer_diag_raise, [a1]),
                         (transfer_diag_lower_uv, transfer_diag_lower, [b1])):
        assert uv(ps, f) == on_values(full(ps))(f)


def test_univariate_rejects_several_variables():
    f = SymPoly.from_coeffs(2, {(1,): ONE})
    with pytest.raises(ValueError):
        uv_shift(f, Q)


# ---------------------------------------------------------------------------
# two-alphabet rendering and serialization

def test_render_two_principal_collapse(cache):
    params = HyperParams.make(upper=[rf(Fraction(1, 2))],
                              lower=[rf(Fraction(3, 7))])
    s = TruncatedSeries.build(2, 2, params)
    F = s.render_two(cache)
    # collapse the y alphabet at the staircase point
    collapsed = SymPoly.zero(2)
    for (lx, ly), c in F.coeffs.items():
        collapsed = collapsed + SymPoly(2, {lx: c * principal_m(ly, 2)})
    want = SymPoly.zero(2)
    for lam, c in s.coeffs.items():
        want = want + macdonald_forms(lam, 2, cache).Jnorm.scale_rf(
            c * t_monomial(n_stat(lam)) * jstar_principal(lam, 2))
    assert collapsed == want


def test_series_json_shape(cache):
    params = HyperParams.make(upper=[rf(Fraction(1, 2))],
                              lower=[rf(Fraction(3, 7))])
    s = TruncatedSeries.build(2, 2, params)
    j = s.to_json()
    assert set(j) == {"n", "D", "flavor", "params", "coeffs"}
    assert [tuple(e["partition"]) for e in j["coeffs"]] == \
        list(enumerate_partitions(2, 2))


# ---------------------------------------------------------------------------
# interpreter flags

@pytest.mark.skipif(sys.flags.optimize, reason="already running under -O")
def test_module_passes_under_optimize():
    # invariant checks are raised errors, so python -O must not weaken them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "tests/test_series.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
