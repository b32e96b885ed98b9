"""Tests for the q-difference operators: spectra, alternative assemblies,
the symmetrized shift family, and resource guards."""

from fractions import Fraction
from functools import lru_cache, partial

import pytest

import machyper.qops as qops
import machyper.ratfunc as ratfunc
import machyper.series as series
from machyper import stats
from machyper.errors import ResourceGuardError
from machyper.macdonald import macdonald_P, macdonald_forms
from machyper.partitions import partitions_of, rho_stat
from machyper.qops import (
    MAX_COLUMNS,
    MAX_FULL_SYMMETRIZE,
    apply_ad_lower_upto,
    apply_ad_raise_upto,
    apply_kind,
    apply_literal,
    apply_lower_alt,
    apply_shift_genfun,
    column,
    eigen_shift,
    on_values,
    spectral_values,
    to_scaled,
    unscale,
    weight_from_shift1,
)
from machyper.ratfunc import ONE, Q, T, ZERO, invert_qt, qt_monomial, rf
from machyper.sympoly import BiSymPoly, SymPoly, basis_poly, invert_coeffs


def apply_stored(kind, f):
    """The operator kind at the value f, through the column store."""
    return on_values(partial(apply_kind, kind))(f)


def _all_partitions(max_size, max_len):
    out = []
    for d in range(max_size + 1):
        out.extend(lam for lam in partitions_of(d) if len(lam) <= max_len)
    return out


# ---------------------------------------------------------------------------
# spectra

def test_spectral_values_frozen():
    assert spectral_values((1,), 2) == [Q * T, ONE]
    assert spectral_values((2, 1), 3) == [Q ** 2 * T ** 2, Q * T, ONE]
    # inversion flips every exponent sign
    inv = [invert_qt(v) for v in spectral_values((1,), 2)]
    assert inv == [qt_monomial(-1, -1), ONE]


def test_eigen_shift_frozen():
    assert eigen_shift(0, (2, 1), 3) == ONE
    assert eigen_shift(1, (1,), 2) == Q * T + ONE
    assert eigen_shift(2, (1,), 2) == Q * T
    # level n is the product of all spectral points
    assert eigen_shift(3, (2, 1), 3) == qt_monomial(3, 3)


# ---------------------------------------------------------------------------
# diagonal actions on the orthogonal basis

@pytest.mark.parametrize("n", [2, 3])
def test_weight_diagonal_on_basis(n, cache):
    for lam in _all_partitions(3, n):
        P = macdonald_P(lam, n, cache)
        assert apply_stored("weight", P) == P.scale_rf(rho_stat(lam))


@pytest.mark.parametrize("n", [2, 3])
def test_shift_family_diagonal_on_basis(n, cache):
    for lam in _all_partitions(3, n):
        P = macdonald_P(lam, n, cache)
        for l in range(n + 1):
            assert apply_stored(l, P) == P.scale_rf(eigen_shift(l, lam, n))


def test_shift_genfun_on_basis(cache):
    lam, n, u = (2,), 2, rf(3)
    P = macdonald_P(lam, n, cache)
    out = on_values(lambda gs: apply_shift_genfun(gs, u))(P)
    total = ZERO
    for l in range(n + 1):
        total = total + u ** l * eigen_shift(l, lam, n)
    assert out == P.scale_rf(total)


def test_weight_diagonal_inverted(cache):
    # the weight operator conjugated by inversion diagonalizes the
    # inverted-coefficient basis
    from machyper.macdonald import macdonald_forms
    n = 2
    for lam in _all_partitions(3, n):
        P = invert_coeffs(macdonald_forms(lam, n, cache).P)
        assert invert_coeffs(apply_stored("weight", invert_coeffs(P))) == P.scale_rf(
            invert_qt(rho_stat(lam)))


# ---------------------------------------------------------------------------
# structural identities between assemblies

@pytest.mark.parametrize("n", [2, 3])
def test_lower_alt_matches(n):
    for lam in _all_partitions(3, n):
        f = basis_poly("m", lam, n)
        assert apply_lower_alt(f) == apply_stored("lower", f)


@pytest.mark.parametrize("n", [2, 3])
def test_weight_from_shift1_matches(n):
    for lam in _all_partitions(3, n):
        f = basis_poly("m", lam, n)
        assert weight_from_shift1(f) == apply_stored("weight", f)


def test_shift_family_level_zero_and_slices():
    f = basis_poly("m", (2, 1), 3)
    assert apply_stored(0, f) == f
    # every level shares the input's scalar, and out-of-range levels vanish
    gs = to_scaled(f.scale_rf((ONE - T).inverse()))
    assert apply_kind(1, gs)[1] == gs[1] != ONE
    assert apply_stored(5, f) == SymPoly.zero(3)


def test_shift1_matches_family_level_one():
    for n in (2, 3, 4):
        f = basis_poly("p", (2,), n)
        assert apply_stored(1, f) == apply_literal(1, f)


def _ad_levels(ad, r, f):
    return [unscale(img) for img in ad(r, to_scaled(f))]


def test_ad_level_zero():
    f = basis_poly("m", (1, 1), 2)
    assert _ad_levels(apply_ad_raise_upto, 0, f)[0] == apply_stored("raise", f)
    assert _ad_levels(apply_ad_lower_upto, 0, f)[0] == apply_stored("lower", f)


def test_ad_one_is_commutator():
    f = basis_poly("m", (2,), 2)
    S = apply_stored
    rhs = S("weight", S("raise", f)) - S("raise", S("weight", f))
    assert _ad_levels(apply_ad_raise_upto, 1, f)[1] == rhs
    rhs = S("lower", S("weight", f)) - S("weight", S("lower", f))
    assert _ad_levels(apply_ad_lower_upto, 1, f)[1] == rhs


def _ad_nested(l, base, f, negate):
    """l-fold commutator [W, .] of the weight operator W around the
    operator of kind base, by literal nesting of literal assemblies (never
    the column store); negate swaps each subtraction, i.e. uses -W.  The
    oracle for the binomial expansion in qops."""
    def rec(j, h):
        if j == 0:
            return apply_literal(base, h)
        outer = apply_literal("weight", rec(j - 1, h))
        inner = rec(j - 1, apply_literal("weight", h))
        return inner - outer if negate else outer - inner
    return rec(l, f)


@pytest.mark.parametrize("n,lam", [(2, (2,)), (3, (2, 1))])
def test_ad_expansion_matches_nesting(n, lam, cache):
    # P has coefficients with non-trivial denominators, so the input is
    # cleared before the shared images are built
    f = macdonald_forms(lam, n, cache).P
    assert any(c.den != ONE.den for c in f.coeffs.values())
    raise_levels = _ad_levels(apply_ad_raise_upto, 3, f)
    lower_levels = _ad_levels(apply_ad_lower_upto, 3, f)
    for l in range(4):
        assert raise_levels[l] == _ad_nested(l, "raise", f, False)
        assert lower_levels[l] == _ad_nested(l, "lower", f, True)


def test_assembly_is_gcd_free(monkeypatch, cache, empty_store):
    # every operator clears its input first, so the column application
    # only ever sees polynomial coefficients, and the literal assembly
    # only monomials; neither runs a polynomial gcd
    f = macdonald_forms((2, 1), 3, cache).P
    assert any(c.den != ONE.den for c in f.coeffs.values())
    calls = {"assemble": 0, "image": 0, "gcd": 0}
    inside = [False]
    pgcd, assemble, image = ratfunc._pgcd, qops._assemble, qops._image

    def counting_pgcd(a, b):
        calls["gcd"] += inside[0]
        return pgcd(a, b)

    def watched(name, fn):
        def call(*args):
            calls[name] += 1
            outer, inside[0] = inside[0], True
            try:
                return fn(*args)
            finally:
                inside[0] = outer
        return call

    monkeypatch.setattr(ratfunc, "_pgcd", counting_pgcd)
    monkeypatch.setattr(qops, "_assemble", watched("assemble", assemble))
    monkeypatch.setattr(qops, "_image", watched("image", image))

    def run_all():
        for kind in ("lower", "weight", 1):
            apply_stored(kind, f)
        gs = to_scaled(f)
        for l in range(4):
            apply_kind(l, gs)
        apply_shift_genfun(gs, rf(3))
        apply_ad_raise_upto(2, gs)
        apply_ad_lower_upto(2, gs)

    # the emptied store builds each column once, by the literal assembly
    run_all()
    built = calls["assemble"]
    assert built > 0 and calls["image"] > 0
    assert calls["gcd"] == 0
    # on a warm store the application reads columns only, still gcd-free
    run_all()
    assert calls["assemble"] == built
    assert calls["gcd"] == 0

    # on a cleared input, a transfer runs its field work on the level
    # scalars only: a scaled image with many coefficients costs no more
    # cancellation work than one with a single coefficient and the same
    # scalar and degree.  The cancellation work is what stats counts: the
    # trial divisions by base factors and the gcds.  Each transfer runs
    # once on both inputs first, so any new denominator factor has entered
    # the base before the counts are taken
    n = 3
    total = SymPoly.zero(n)
    for d in range(1, 5):
        for lam in partitions_of(d, n):
            total = total + macdonald_forms(lam, n, cache).P
    big, _ = qops.to_scaled(total)
    small = basis_poly("m", (3, 1), n)
    assert len(big.coeffs) >= 10 * len(small.coeffs)
    scal = (ONE - Q * T).inverse()
    a, b = [rf(Fraction(2, 3)) * Q, T.inverse()], [rf(Fraction(5, 7)) / T]
    work = ("gcd_calls", "divisions_screened", "divisions_certified",
            "divisions_refused")
    for op in (series.transfer_lower(b),
               series.transfer_raise(a),
               series.transfer_diag_raise(a),
               series.transfer_diag_lower(b)):
        counts = []
        for g in (small, big):
            op((g, scal))
            stats.reset()
            op((g, scal))
            counts.append(sum(stats.snapshot()[name] for name in work))
        assert 0 < counts[1] <= counts[0]


def _rational_input(n, cache):
    lam = (2, 1) if n > 1 else (2,)
    return (macdonald_forms(lam, n, cache).P
            + basis_poly("m", (1,), n).scale_rf((ONE - Q * T).inverse()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_columns_match_literal_assembly(n, cache):
    # every column kind, applied through the store, against the literal
    # assembly on the same rational input (P_(2,1) plus a degree-1 term)
    f = _rational_input(n, cache)
    assert any(c.den != ONE.den for c in f.coeffs.values())
    for kind in ["lower", "weight", "raise"] + list(range(n + 1)):
        assert apply_stored(kind, f) == apply_literal(kind, f), kind


def test_column_store_is_bounded(monkeypatch, cache):
    assert column.cache_info().maxsize == MAX_COLUMNS
    # an evicted column is rebuilt on use and the application is unchanged
    small = lru_cache(maxsize=2)(column.__wrapped__)
    monkeypatch.setattr(qops, "column", small)
    f = _rational_input(3, cache)
    assert len(f.coeffs) > 2
    assert apply_stored("lower", f) == apply_literal("lower", f)
    assert small.cache_info().currsize == 2


def test_lower_alt_matches_rational_input(cache):
    # the oracle runs on the rational coefficients as given
    for n, lam in ((2, (2,)), (3, (2, 1))):
        f = macdonald_forms(lam, n, cache).P
        assert any(c.den != ONE.den for c in f.coeffs.values())
        assert apply_lower_alt(f) == apply_stored("lower", f)


# ---------------------------------------------------------------------------
# degrees and guards

def test_operator_degrees():
    f = basis_poly("m", (2, 1), 3)
    for kind, d in (("lower", 2), ("weight", 3), ("raise", 4)):
        assert set(apply_stored(kind, f).degrees()) <= {d}


def test_lower_kills_constants():
    one = SymPoly.one(3)
    assert apply_stored("lower", one) == SymPoly.zero(3)
    assert apply_stored("weight", one) == SymPoly.zero(3)


def test_symmetrize_guard(empty_store):
    # a shift level l >= 2 symmetrizes over n! terms; every route, stored
    # or literal, single level or family, refuses it past the bound
    f = basis_poly("m", (1,), MAX_FULL_SYMMETRIZE + 1)
    for route in (lambda: apply_stored(2, f), lambda: apply_literal(2, f),
                  lambda: apply_kind(2, to_scaled(f))):
        with pytest.raises(ResourceGuardError):
            route()
    # the guard runs before any column is built
    assert empty_store.cache_info().currsize == 0
    # first-order assemblies avoid the n! symmetrization and stay legal
    apply_stored(1, f)


def test_clear_denominators():
    # a scaled image (g, s) of f: s * g = f, and g has integer-polynomial
    # coefficients, the integer denominators cleared too
    f = basis_poly("m", (2,), 2).scale_rf((rf(3) - rf(3) * Q).inverse()) \
        + basis_poly("m", (1, 1), 2).scale_rf((ONE - T).inverse())
    g, s = qops.to_scaled(f)
    assert g.scale_rf(s) == f
    for c in g.coeffs.values():
        assert c.parts()[1] == ONE
    assert s.parts()[0] == ONE
    h, s2 = qops.to_scaled(g)
    assert s2 == ONE and h == g


def test_two_alphabet_clearing(cache):
    # one clearing for two alphabets: the image of a BiSymPoly is a
    # BiSymPoly with integer-polynomial coefficients, and its value is F
    lam_x, lam_y = (2, 1), (1,)
    forms_x = macdonald_forms(lam_x, 2, cache)
    forms_y = macdonald_forms(lam_y, 2, cache)
    F = BiSymPoly.outer(forms_x.Jnorm.scale_rf((ONE - Q * T).inverse()),
                        forms_y.Jstar)
    F = F + BiSymPoly(2, {((1,), ()): rf(Fraction(1, 3))})
    G, s = qops.to_scaled(F)
    assert type(G) is BiSymPoly and G.coeffs.keys() == F.coeffs.keys()
    assert all(c.parts()[1] == ONE for c in G.coeffs.values())
    assert unscale((G, s)) == F


# ---------------------------------------------------------------------------
# operators on two-alphabet images

def _two_alphabet_inputs(n, cache):
    """Two-alphabet values: one with rational coefficients whose
    slice at y-partition (2,) is a constant, which the lowering operator
    annihilates; one made of constant slices only; and zero."""
    P = macdonald_forms((2, 1) if n > 1 else (2,), n, cache).P
    one = SymPoly.one(n)
    F = (BiSymPoly.outer(P.scale_rf((ONE - Q * T).inverse()),
                         basis_poly("m", (1,), n))
         + BiSymPoly.outer(one, basis_poly("m", (2,), n)))
    consts = BiSymPoly.outer(one, basis_poly("m", (1,), n))
    return F, consts, BiSymPoly.zero(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operators_act_on_the_x_alphabet_of_a_bisympoly(n, cache):
    # every operator takes a two-alphabet scaled image whole and acts on
    # its x alphabet: its value is that of the operator applied slice by
    # slice, and an image that vanishes is still a BiSymPoly.  So do the
    # shift generating function, at a monomial and a non-monomial u, and
    # a combine of two two-alphabet images
    a, b = [rf(Fraction(2, 3)) * Q, T.inverse()], [rf(Fraction(5, 7)) / T]
    ops = [series.transfer_lower(b), series.transfer_raise(a)]
    ops += [partial(apply_kind, kind)
            for kind in ("lower", "weight", "raise", *range(n + 2))]
    ops += [lambda gs: apply_shift_genfun(gs, T),
            lambda gs: apply_shift_genfun(gs, (ONE - Q) / (ONE + T)),
            lambda gs: qops.combine(n, ((rf(Fraction(3, 2)),
                                         apply_kind("weight", gs)),
                                        (ONE - T, apply_kind(1, gs))))]
    for F in _two_alphabet_inputs(n, cache):
        for op in ops:
            img = op(to_scaled(F))
            assert type(img[0]) is BiSymPoly
            assert unscale(img) == F.apply_x(on_values(op))
    F, consts, zero = _two_alphabet_inputs(n, cache)
    lower = partial(apply_kind, "lower")
    assert not unscale(lower(to_scaled(F))).coeffs.keys() & {
        (lx, (2,)) for lx, _ in F.coeffs}
    for op in (lower, partial(apply_kind, n + 1), ops[0]):
        assert op(to_scaled(consts))[0] == BiSymPoly.zero(n)
    for op in ops:
        assert op(to_scaled(zero))[0] == BiSymPoly.zero(n)


def test_alphabet_difference_applies_each_operator_once(cache):
    # one call per alphabet, on the whole image, whatever its slices
    n = 2
    F = _two_alphabet_inputs(n, cache)[0]
    Gs = to_scaled(F)
    assert len({ly for _, ly in Gs[0].coeffs}) > 1
    assert len({lx for lx, _ in Gs[0].coeffs}) > 1
    calls = {"x": 0, "y": 0}

    def counted(side, op):
        def run(gs):
            calls[side] += 1
            return op(gs)
        return run
    lower = series.transfer_lower([rf(Fraction(5, 7)) / T])
    raised = series.transfer_raise([rf(Fraction(2, 3)) * Q])
    got = qops.alphabet_difference(Gs, counted("x", lower),
                                   counted("y", raised))
    assert calls == {"x": 1, "y": 1}
    ref = (F.apply_x(on_values(lower))
           - F.swap().apply_x(on_values(raised)).swap())
    assert type(got) is BiSymPoly and set(got.coeffs) == set(ref.coeffs)
    zero = qops.alphabet_difference((BiSymPoly.zero(n), ONE), lower, raised)
    assert zero == BiSymPoly.zero(n)
