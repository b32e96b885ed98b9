"""Field arithmetic: normal forms, axioms against a Fraction oracle."""

import random
import sys
import threading
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from machyper.ratfunc import (ONE, Q, T, ZERO, RatFuncQT, elementary_symmetric,
                              invert_qt, over_common_denominator, q_integer, qt_monomial,
                              rf, substitute, t_integer, t_monomial,
                              times_multiple)
import machyper.ratfunc as ratfunc
from machyper import stats
from machyper.errors import InexactDivisionError
from machyper.ratfunc import (_content, _normalize_primitive, _padd, _pdiv_exact,
                              _pgcd, _pmul, _pneg, _term_key)

F = Fraction


# -- construction and normal form -------------------------------------------

def test_constants():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert rf(3) == rf(F(6, 2))
    assert rf(F(1, 2)) + rf(F(1, 2)) == ONE


def test_cancellation_to_polynomial():
    # (1 - q^2)/(1 - q) reduces to 1 + q, including the stored denominator
    x = (ONE - Q * Q) / (ONE - Q)
    assert x == ONE + Q
    assert x.den == ONE.den
    assert x.render() == "1 + q"


def test_denominator_sign_normalization():
    # leading coefficient of the denominator is positive in graded-lex order
    x = ONE / (rf(-2) * (ONE - T))
    assert x * (rf(-2) * (ONE - T)) == ONE
    lead = max(x.den, key=lambda e: (e[0] + e[1], e))
    assert x.den[lead] > 0


def test_render_canonical_examples():
    assert (Q ** 2 / (ONE - T)).render() == "-q^2/(-1 + t)"
    assert rf(F(2, 3)).render() == "2/3"
    assert (T * Q).render() == "q*t"
    assert ZERO.render() == "0"


def test_pow_and_inverse():
    x = (ONE - Q * T) / (ONE - T)
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == ONE / (x * x)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_json_round_trip():
    x = (ONE + Q - T ** 2) / (rf(3) - Q * T)
    assert RatFuncQT.from_json(x.to_json()) == x


def test_json_reader_accepts_only_what_to_json_writes():
    # rational coefficients with unlike denominators are cleared by one lcm
    x = (rf(F(2, 3)) + Q.scale(F(-5, 4)) * T) / (rf(2) + Q)
    assert [c for _, _, c in x.to_json()["num"]] == ["2/3", "-5/4"]
    assert RatFuncQT.from_json(x.to_json()) == x
    good = x.to_json()
    # each damage to a valid value raises ValueError, before any arithmetic
    for side, term in (("num", [3, 0, "0"]), ("num", [3, 0, "-0"]),
                       ("num", [3, 0, "0/5"]), ("num", [3, 0, "1/0"]),
                       ("den", list(good["den"][0])),
                       ("num", [3, 0, "1.5"]), ("num", [3, 0, "1e3"]),
                       ("num", [3, 0, "+1"]), ("num", [3, 0, " 1"]),
                       ("num", [3, 0, "1_0"]), ("num", [3, 0, "\u0661"]),
                       ("num", [3, 0, 1]), ("num", [3.0, 0, "1"]),
                       ("num", [True, 0, "1"]), ("num", [-1, 0, "1"]),
                       ("num", ["3", 0, "1"])):
        bad = {"num": list(good["num"]), "den": list(good["den"])}
        bad[side] = bad[side] + [term]
        with pytest.raises(ValueError):
            RatFuncQT.from_json(bad)
    for terms in ((("0", 0, "1"),), "001", {"a": 1}, [[0, 0]]):
        with pytest.raises(ValueError):
            RatFuncQT.from_json({"num": terms, "den": [[0, 0, "1"]]})
    with pytest.raises(ZeroDivisionError):
        RatFuncQT.from_json({"num": [[0, 0, "1"]], "den": []})


def test_multiple_sum_equals_clears_by_the_lcm():
    # f * w * m summed over terms whose denominators carry integer contents
    # 2 and 3 and primitive parts that divide m
    m = _pmul({(0, 0): 1, (1, 1): -1}, {(0, 0): 1, (0, 1): -1})
    f1 = (ONE - Q * T).inverse().scale(F(1, 2))
    f2 = (ONE - T).inverse().scale(F(2, 3))
    w1, w2 = {(0, 0): 4}, {(0, 1): 3}
    # 4/2 (1 - t) + 3t * 2/3 (1 - qt) = 2 (1 - q t^2)
    target = [{(0, 0): 2}, {(0, 0): 1, (1, 2): -1}]
    assert ratfunc.multiple_sum_equals([(f1, w1), (f2, w2)], m, target)
    assert not ratfunc.multiple_sum_equals([(f1, w1), (f2, w2)], m, target[1:])
    assert not ratfunc.multiple_sum_equals([(f1, w2), (f2, w1)], m, target)
    with pytest.raises(InexactDivisionError):
        ratfunc.multiple_sum_equals([(f1, w1), ((ONE + Q).inverse(), w2)],
                                    m, target)


def _dict_sum(products):
    out = {}
    for k, fs in products:
        term = {(0, 0): k}
        for f in fs:
            term = _pmul(term, f)
        out = _padd(out, term)
    return out


def test_kronecker_vanishes_matches_dict_equality():
    rng = random.Random(27)

    def poly():
        # negative and multi-limb coefficients, and exponents up to 7
        return {(rng.randrange(8), rng.randrange(8)):
                rng.choice((-1, 1)) * rng.randrange(1, 2 ** rng.choice((3, 70, 200)))
                for _ in range(rng.randrange(1, 6))}

    for _ in range(300):
        products = [(rng.choice((-1, 1)) * rng.randrange(1, 2 ** 90),
                     tuple(poly() for _ in range(rng.randrange(1, 4))))
                    for _ in range(rng.randrange(1, 4))]
        total = _dict_sum(products)
        assert ratfunc.kronecker_vanishes(products + [(-1, (total,))])
        # against a perturbed value, one coefficient off by one or one term
        # moved up in t, the sum does not vanish
        e, c = rng.choice(sorted(total.items()))
        moved = _padd(total, {e: -c, (e[0] + rng.randrange(2), e[1] + 1): c})
        for target in (_padd(total, {e: 1}), moved):
            assert not ratfunc.kronecker_vanishes(products + [(-1, (target,))])


def test_kronecker_vanishes_has_room_for_every_slot():
    # pairs that one slot too narrow or one t-stride too short would map
    # to the same integer: 2^B t^j against t^(j+1) (a carry into the next
    # slot) and q^i against t^(W i) (a t-power reaching the q stride)
    vanishes = ratfunc.kronecker_vanishes
    for B in range(1, 130):
        for j in range(4):
            for sign in (1, -1):
                assert not vanishes([(1, ({(0, j): sign * 2 ** B},)),
                                     (-1, ({(0, j + 1): sign},))]), (B, j)
                assert not vanishes([(1, ({(0, j): sign * 2 ** B,
                                          (0, j + 1): -sign},))]), (B, j)
        # a negative coefficient as wide as a slot borrows from the slot above
        assert not vanishes([(1, ({(0, 0): -2 ** (B - 1), (0, 1): 1},)),
                             (-1, ({(0, 0): 2 ** (B - 1)},))]), B
    for W in range(1, 12):
        for i in range(1, 5):
            assert not vanishes([(1, ({(i, 0): 1},)), (-1, ({(0, W * i): 1},))])
    # the t-degree of a product is the sum over its factors: (t^a)^r against
    # the q^i t^j that a stride of a + 1 would put in the same slot
    for a in range(1, 6):
        for r in range(2, 5):
            i, j = divmod(r * a, a + 1)
            assert not vanishes([(1, ({(i, j): 1},)),
                                 (-1, tuple({(0, a): 1} for _ in range(r)))]), (a, r)
    # the bound grows as the product of the factors' norms and as the sum
    # over the products: 2^(a+b), as one product or as 2^b products of 2^a,
    # against the t that a slot sized by a or b alone would equal
    for x in range(1, 30):
        for y in range(1, 8):
            one = {(0, 0): 1}
            assert not vanishes([(2 ** x, ({(0, 0): 2 ** y}, one)),
                                 (-1, ({(0, 1): 1},))]), (x, y)
            assert not vanishes([(2 ** x, (one,))] * 2 ** y
                                + [(-1, ({(0, 1): 1},))]), (x, y)
    # equal values still compare equal, and an empty sum vanishes
    assert vanishes([(3, ({(0, 1): 2, (1, 0): -1},)), (-1, ({(0, 1): 6, (1, 0): -3},))])
    assert vanishes([])


# -- random value strategies --------------------------------------------------

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def poly_values(draw):
    terms = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), fracs),
        min_size=0, max_size=3))
    out = ZERO
    for dq, dt, c in terms:
        out = out + qt_monomial(dq, dt, c)
    return out


@st.composite
def field_values(draw):
    num = draw(poly_values())
    den = draw(poly_values().filter(lambda v: not v.is_zero()))
    return num / den


@settings(max_examples=60, deadline=None)
@given(field_values(), field_values(), field_values())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    assert -(-a) == a
    if not b.is_zero():
        assert (a / b) * b == a


def _value_at(x, q0, t0):
    """x at (q0, t0) through substitute, or None where the denominator
    (evaluated here with plain Fractions) vanishes; there substitute must
    raise."""
    if sum(c * q0 ** dq * t0 ** dt for (dq, dt), c in x.den.items()) == 0:
        with pytest.raises(ZeroDivisionError):
            substitute(x, rf(q0), rf(t0))
        return None
    return substitute(x, rf(q0), rf(t0)).as_fraction()


# b has a pole at the point: -3qt^2 + 7q^2t^2 = qt^2(7q - 3) vanishes at q = 3/7
@example(ZERO, rf(3) / (rf(-3) * Q * T ** 2 + rf(7) * Q ** 2 * T ** 2))
@settings(max_examples=60, deadline=None)
@given(field_values(), field_values())
def test_evaluation_oracle(a, b):
    # compare arithmetic against plain Fractions at a generic rational
    # point, wherever a and b are defined there (then so are a + b, a - b,
    # a * b, and a / b when b is nonzero there)
    q0, t0 = F(3, 7), F(5, 2)
    va, vb = _value_at(a, q0, t0), _value_at(b, q0, t0)
    if va is None or vb is None:
        return
    assert _value_at(a + b, q0, t0) == va + vb
    assert _value_at(a - b, q0, t0) == va - vb
    assert _value_at(a * b, q0, t0) == va * vb
    if vb != 0:
        assert _value_at(a / b, q0, t0) == va / vb


@settings(max_examples=40, deadline=None)
@given(poly_values(), poly_values(), poly_values())
def test_gcd_divides_and_contains(u, v, w):
    # gcd(u*w, v*w) is divisible by w and divides both products; the
    # inputs are stored integer numerators, the only ones the field passes
    if u.is_zero() or v.is_zero() or w.is_zero():
        return
    uw = _pmul(u._a, w._a)
    vw = _pmul(v._a, w._a)
    g = _pgcd(uw, vw)
    _pdiv_exact(g, _normalize_primitive(w._a))  # raises if not divisible
    _pdiv_exact(uw, g)
    _pdiv_exact(vw, g)


def test_gcd_skips_unlucky_points():
    # gcd((2tq+1)(q-1), (2tq+1)(q-t^2)) = 2tq+1: at t = 1 and t = -1 the
    # cofactors share a root, so those images have too high a degree, and
    # the leading q-coefficient 2t of the gcd carries integer content
    g = {(1, 1): 2, (0, 0): 1}
    a = _pmul(g, {(1, 0): 1, (0, 0): -1})
    b = _pmul(g, {(1, 0): 1, (0, 2): -1})
    assert _pgcd(a, b) == g


def test_gcd_dense_inputs_fast():
    # ratios of dense products used to stall the reduction; keep them quick
    a2, b1 = rf(2), qt_monomial(-1, 1, F(2))  # 2 and 2t/q
    num, den = ONE, ONE
    for i in range(4):
        for j in range(3):
            num = num * (ONE - a2 * qt_monomial(i, j))
            den = den * (ONE - b1 * qt_monomial(i, j + 1))
    x = num / den
    y = invert_qt(x)
    t0 = time.time()
    s = x + y
    p = x * y
    assert (s - y) == x
    assert p / y == x
    assert time.time() - t0 < 10.0


# -- integer storage ---------------------------------------------------------

def assert_integer_normal_form(x):
    # stored pair: int coefficients, coprime in Z[q,t], b leads positive
    a, b = x._a, x._b
    assert all(type(v) is int for p in (a, b) for v in p.values())
    assert b[max(b, key=_term_key)] > 0
    if a:
        assert _pgcd(a, b) == {(0, 0): 1}
        assert gcd(_content(a), _content(b)) == 1
    else:
        assert b == {(0, 0): 1}
    # views: den integer-primitive and leading positive, num/den the value
    num, den = x.num, x.den
    assert all(type(v) is int for v in den.values())
    assert _content(den) == 1 and den[max(den, key=_term_key)] > 0
    assert RatFuncQT.from_poly(num) / RatFuncQT.from_poly(den) == x


STEPS = ("add", "sub", "mul", "div", "pow", "inverse", "scale", "constant",
         "invert_qt", "times_multiple", "json")


@settings(max_examples=60, deadline=None)
@given(field_values(), st.lists(st.tuples(st.sampled_from(STEPS), field_values(),
                                          st.integers(-2, 2), fracs),
                                max_size=6))
def test_storage_is_integer_normal_form(x, steps):
    assert_integer_normal_form(x)
    for step, y, k, c in steps:
        if step == "add":
            x = x + y
        elif step == "sub":
            x = x - y
        elif step == "mul":
            x = x * y
        elif step == "div" and y:
            x = x / y
        elif step == "pow" and (x or k >= 0):
            x = x ** k
        elif step == "inverse" and x:
            x = x.inverse()
        elif step == "scale":
            x = x.scale(c)
        elif step == "constant":
            x = x + rf(c)
        elif step == "invert_qt":
            x = invert_qt(x)
        elif step == "times_multiple":
            m = _pmul(x.den, y.den)
            z = times_multiple(x, m)
            assert z == x * RatFuncQT.from_poly(m)
            x = z
        elif step == "json":
            z = RatFuncQT.from_json(x.to_json())
            assert z == x
            x = z
        assert_integer_normal_form(x)


@settings(max_examples=60, deadline=None)
@given(st.lists(field_values(), min_size=1, max_size=5))
# nested denominators: the second is a multiple of the running lcm, the
# third divides it, the fourth shares a factor but has integer content 3
@example([(ONE - Q).inverse(), ((ONE - Q) * (ONE - T)).inverse(),
          rf(2) / (ONE - T), (rf(3) - rf(3) * Q).inverse()])
def test_over_common_denominator(values):
    # (v * L, 1/L) with L the lcm over Z[q, t] of the denominators: the
    # multiples are integer polynomials, and no smaller L would do (the
    # cofactors L / den(v) have no common factor, integers included)
    mults, s = over_common_denominator(values)
    one, L = s.parts()
    assert one == ONE
    common, content = {}, 0
    for v, m in zip(values, mults):
        assert m.parts()[1] == ONE and m * s == v
        # raises unless the denominator of v divides L
        cof = _pdiv_exact(L._a, v.parts()[1]._a)
        common, content = _pgcd(common, cof), gcd(content, _content(cof))
    assert common == {(0, 0): 1} and content == 1


# -- factored denominators against the gcd reduction ----------------------------

def _gcd_reduced(num, den):
    """The normal-form pair of num/den through one bivariate gcd: the
    oracle for the cancellation over the base of denominator factors."""
    if not num:
        return {}, {(0, 0): 1}
    g = _pgcd(num, den)
    a, b = _pdiv_exact(num, g), _pdiv_exact(den, g)
    k = gcd(_content(a), _content(b))
    a, b = ({e: v // k for e, v in p.items()} for p in (a, b))
    if b[max(b, key=_term_key)] < 0:
        a, b = _pneg(a), _pneg(b)
    return a, b


def _gcd_lcm(b, d):
    """lcm in Z[q, t] of two integer polynomials with positive leading
    coefficients, contents included, through one gcd."""
    L = _pdiv_exact(_pmul(b, d), _pgcd(b, d))
    k = gcd(_content(b), _content(d))
    return {e: v // k for e, v in L.items()}


def assert_ops_match_gcd_reduction(x, y):
    # products, sums, quotients and over_common_denominator equal the raw
    # pairs reduced by a gcd
    a, b, c, d = x._a, x._b, y._a, y._b
    z = x * y
    assert (z._a, z._b) == _gcd_reduced(_pmul(a, c), _pmul(b, d))
    z = x + y
    assert (z._a, z._b) == _gcd_reduced(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))
    if y:
        z = x / y
        assert (z._a, z._b) == _gcd_reduced(_pmul(a, d), _pmul(b, c))
    mults, s = over_common_denominator([x, y])
    L = _gcd_lcm(b, d)
    assert (s._a, s._b) == _gcd_reduced({(0, 0): 1}, L)
    for v, m in zip((x, y), mults):
        assert (m._a, m._b) == _gcd_reduced(_pmul(v._a, L), v._b)


def _poly(text_terms):
    return RatFuncQT.from_poly({(dq, dt): c for dq, dt, c in text_terms})


# denominator factors: 1 - q^2 t^2 is composite (1 - q t)(1 + q t), no proof
# covers it; 1 + q t + q^2 t^2 has degree 2 in both variables; q^2 t^3 - 1
# is irreducible but of degree above 1 in both
FACTORS = {
    "1-q2t2": [(0, 0, 1), (2, 2, -1)],
    "1-qt": [(0, 0, 1), (1, 1, -1)],
    "1+qt": [(0, 0, 1), (1, 1, 1)],
    "1+qt+q2t2": [(0, 0, 1), (1, 1, 1), (2, 2, 1)],
    "q2t3-1": [(2, 3, 1), (0, 0, -1)],
    "2-3q": [(0, 0, 2), (1, 0, -3)],
    "q-t": [(1, 0, 1), (0, 1, -1)],
}


@st.composite
def factored_values(draw):
    # a numerator over a product of listed factors, built by field
    # arithmetic or read from JSON, so that the denominator enters whole
    num = draw(poly_values())
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3))
    den = ONE
    for name in names:
        den = den * _poly(FACTORS[name])
    if draw(st.booleans()):
        num = num * draw(st.sampled_from([_poly(f) for f in FACTORS.values()]))
    if draw(st.booleans()):
        return RatFuncQT.from_json({"num": ratfunc.poly_to_json(num.num),
                                    "den": ratfunc.poly_to_json(den.num)})
    return num / den


@settings(max_examples=80, deadline=None)
@given(st.one_of(field_values(), factored_values()),
       st.one_of(field_values(), factored_values()))
def test_factored_cancellation_matches_gcd(x, y):
    assert_ops_match_gcd_reduction(x, y)


def test_composite_enters_before_its_factors(monkeypatch):
    # on a fresh base, 1 - q^2 t^2 enters as one element that no proof
    # covers; a numerator 1 - q t splits it through the refinement, and an
    # element made before the split is read over the split elements
    base = ratfunc._CoprimeBase()
    monkeypatch.setattr(ratfunc, "_BASE", base)
    comp, f1 = _poly(FACTORS["1-q2t2"]), _poly(FACTORS["1-qt"])
    x = (Q + rf(2)) / comp
    (i,) = [i for i in ratfunc._fac(x)[1]]
    assert base.active == [0, 1, i] and not base.proven[i]
    # the product's cancellation meets the unproven element: one gcd
    # splits it
    gcds = stats.snapshot()["gcd_calls"]
    z = x * f1
    assert stats.snapshot()["gcd_calls"] > gcds
    assert z == (Q + rf(2)) / _poly(FACTORS["1+qt"])
    assert i in base.split and i not in base.active
    assert all(base.proven[j] for j in base.active)
    parts = {frozenset(base.polys[j].items()) for j in ratfunc._fac(x)[1]}
    assert parts == {frozenset(_normalize_primitive(p._a).items())
                     for p in (f1, _poly(FACTORS["1+qt"]))}
    # the memo still holds the factorization made before the split; read
    # again, it comes over the split elements, with no screening
    before = stats.snapshot()
    exps = base.factor(_normalize_primitive(comp._a))
    after = stats.snapshot()
    assert after["factorizations_reused"] == before["factorizations_reused"] + 1
    assert after["factorizations"] == before["factorizations"]
    assert after["divisions_screened"] == before["divisions_screened"]
    assert set(exps.values()) == {1} and set(exps) <= set(base.active)
    assert {frozenset(base.polys[j].items()) for j in exps} == parts
    # on the refined base the field operations run no gcd
    y = f1 / (ONE - Q)
    gcds = stats.snapshot()["gcd_calls"]
    for u, v in ((x, y), (x * y, x + y), (x / y, x - y)):
        u * v, u + v, u / v, over_common_denominator([u, v])
    assert stats.snapshot()["gcd_calls"] == gcds
    assert_ops_match_gcd_reduction(x, y)
    assert_ops_match_gcd_reduction(x * y, x + y)


def test_factorization_memo_is_bounded(monkeypatch):
    base = ratfunc._CoprimeBase()
    monkeypatch.setattr(ratfunc, "_BASE", base)
    pool = [_poly(f) for f in FACTORS.values()]
    # each denominator enters unfactored, through the inverse, so it meets
    # the memo; under a 2-entry memo an evicted one is factored again, and
    # the results are unchanged
    monkeypatch.setattr(ratfunc, "MAX_FACTORIZATIONS", 2)
    before = stats.snapshot()
    for f in pool:
        for g in pool:
            assert_ops_match_gcd_reduction((Q + rf(2)) / f, (T - rf(3)) / g)
            assert len(base.memo) <= 2
    after = stats.snapshot()
    assert len(base.memo) == 2
    assert after["factorizations"] - before["factorizations"] > len(pool)
    # with room for all of them, a second round reads every one back
    monkeypatch.setattr(ratfunc, "MAX_FACTORIZATIONS", len(pool) + 2)
    for f in pool:
        ratfunc._fac(ONE / f)
    before = stats.snapshot()
    for f in pool:
        ratfunc._fac(ONE / f)
    after = stats.snapshot()
    assert after["factorizations"] == before["factorizations"]
    assert after["factorizations_reused"] - before["factorizations_reused"] == len(pool)
    # the memo is keyed by the value at the screening point: a polynomial
    # with the value of one it holds is no hit
    p = {(0, 0): 1, (1, 1): 1}
    twin = _padd(p, {(1, 1): 1, (0, 1): -ratfunc._Q0})
    assert ratfunc._peval(twin) == ratfunc._peval(p)
    for f in (p, twin, p):
        assert base.expand(base.factor(f)) == f


def test_times_one_is_the_other_operand():
    # a product with 1 returns the other operand itself, its factored
    # denominator kept
    x = (Q + rf(2)) / (_poly(FACTORS["1-qt"]) * _poly(FACTORS["q2t3-1"]))
    u, k = ratfunc._fac(x)
    assert k
    for one in (ONE, rf(1), RatFuncQT.from_json(ONE.to_json())):
        assert x * one is x and one * x is x
    assert (x._u, x._k) == (u, k)


def test_threads_share_one_base(monkeypatch):
    # four threads refine one fresh base at once, each in its own order:
    # every result equals the gcd reduction of its pair, and the base
    # stays pairwise coprime
    base = ratfunc._CoprimeBase()
    monkeypatch.setattr(ratfunc, "_BASE", base)
    pool = [_poly(f) for f in FACTORS.values()]
    pool.append(pool[0] * _poly(FACTORS["q-t"]))
    failures = []

    def work(k):
        order = pool[k:] + pool[:k]
        try:
            for i, f in enumerate(order):
                for g in order[i:]:
                    assert_ops_match_gcd_reduction((Q + rf(k + 1)) / f, (T - rf(2)) / g)
        except Exception as exc:  # re-raised below, in the test's thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    if failures:
        raise failures[0]
    active = [base.polys[i] for i in base.active]
    for i, f in enumerate(active):
        for g in active[i + 1:]:
            assert _pgcd(f, g) == {(0, 0): 1}


def test_equal_values_equal_hashes():
    # one value reached by different routes: arithmetic, from_json, from_poly
    # over an inverse, and cancellation against a composite
    c1, c2 = _poly(FACTORS["1-qt"]), _poly(FACTORS["1+qt"])
    comp = _poly(FACTORS["1-q2t2"])
    routes = [
        (Q + ONE) / (c1 * (ONE - T)),
        (Q + ONE) * c2 / (comp * (ONE - T)),
        RatFuncQT.from_json({"num": [[0, 0, "2"], [1, 0, "2"]],
                             "den": [[0, 0, "2"], [0, 1, "-2"], [1, 1, "-2"], [1, 2, "2"]]}),
        RatFuncQT.from_poly({(0, 0): 1, (1, 0): 1}) * ((ONE - T) * c1).inverse(),
        (Q + ONE) / (ONE - T) - (Q + ONE) / (ONE - T) + (Q + ONE) / (c1 - c1 * T),
    ]
    for r in routes:
        assert r == routes[0] and hash(r) == hash(routes[0])
        assert (r._a, r._b) == (routes[0]._a, routes[0]._b)


# -- helpers -------------------------------------------------------------------

def test_monomials_and_one_minus():
    assert qt_monomial(2, 1, F(3, 2)) == rf(F(3, 2)) * Q * Q * T
    assert t_monomial(-1) * T == ONE


def test_q_t_integers():
    assert q_integer(3) == ONE + Q + Q ** 2
    assert t_integer(2) == ONE + T
    assert q_integer(0) == ZERO
    assert t_integer(4) == ONE + T + T ** 2 + T ** 3


def test_substitute_partial():
    x = (ONE - Q * T) / (ONE - T)
    y = substitute(x, qval=rf(2))
    assert y == (ONE - rf(2) * T) / (ONE - T)
    z = substitute(x, qval=rf(2), tval=rf(F(1, 3)))
    assert z.as_fraction() == F(1, 2)


@settings(max_examples=60, deadline=None)
@given(field_values(), st.integers(-2, 2), st.integers(-2, 2))
def test_invert_qt_matches_substitution(x, dq, dt):
    # exponent reflection agrees with the literal substitution q -> 1/q, t -> 1/t
    x = x * qt_monomial(dq, dt)
    assert invert_qt(x) == substitute(x, qt_monomial(-1, 0), qt_monomial(0, -1))


def test_invert_qt_involution():
    x = (ONE - Q ** 2 * T) / (rf(3) - T ** 2)
    assert invert_qt(invert_qt(x)) == x
    assert invert_qt(Q) * Q == ONE


def test_elementary_symmetric_frozen():
    vals = [rf(1), rf(2), rf(3)]
    e = elementary_symmetric(vals)
    assert [x.as_fraction() for x in e] == [1, 6, 11, 6]
    assert elementary_symmetric([]) == [ONE]
