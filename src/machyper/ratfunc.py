"""Exact arithmetic over the field Q(q, t).

A polynomial in q and t is stored sparsely as a dict mapping (deg_q, deg_t)
to a nonzero coefficient.  The canonical term order is graded lexicographic
on (deg_q, deg_t): first by total degree, then by deg_q, then by deg_t.

RatFuncQT stores a/b, two such dicts with int coefficients, so the field
arithmetic creates no Fraction.  Normal form: a and b are coprime in Z[q, t],
integer content included, and the leading coefficient of b (canonical order)
is positive.  The pair is then unique, so structural equality is field
equality.  The read-only views num = a / content(b) (Fraction coefficients
where needed) and den = b / content(b) (integer-primitive) are the rational
normal form that render, to_json and the cache files are written from.

The gcd views polynomials in Z[t][q].  It splits off the common monomial
factor and the content in Z[t]; the gcd of the primitive parts comes from
evaluation (_bv_gcd_prim): at integer values of t it takes univariate gcds
in q (primitive pseudo-remainder sequences over Z), interpolates the images
over Z, certifies the candidate by trial division, and retries with fresh
points when an evaluation point was unlucky.
All polynomial arithmetic runs on int.  Fraction appears only where values
enter or leave: constants and JSON coming in, the num view, as_fraction,
substitution and rendering.  No external algebra package
is involved.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, lcm as int_lcm
from operator import itemgetter

from .errors import GcdInterpolationError, InexactDivisionError

Term = tuple[int, int]
PolyDict = dict[Term, int]
# a polynomial over Q, as the num view and JSON input hold it
QPolyDict = dict[Term, int | Fraction]

_F0 = Fraction(0)


def _term_key(e: Term) -> tuple[int, int, int]:
    return (e[0] + e[1], e[0], e[1])


# ---------------------------------------------------------------------------
# dict-level polynomial arithmetic


def _padd(a: PolyDict, b: PolyDict) -> PolyDict:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out

def _pneg(a: PolyDict) -> PolyDict:
    return {e: -c for e, c in a.items()}

def _pscale(a: PolyDict, c: int) -> PolyDict:
    if c == 1:
        return a
    return {e: c * x for e, x in a.items()}

def _pmul(a: PolyDict, b: PolyDict) -> PolyDict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # monomial factor: exponent shift; unit coefficients need no arithmetic
        ((ea, eta), ca), = a.items()
        if ca == 1:
            return {(eb + ea, etb + eta): cb for (eb, etb), cb in b.items()}
        if ca == -1:
            return {(eb + ea, etb + eta): -cb for (eb, etb), cb in b.items()}
        return {(eb + ea, etb + eta): ca * cb for (eb, etb), cb in b.items()}
    out: PolyDict = {}
    for (ea, eta), ca in a.items():
        for (eb, etb), cb in b.items():
            e = (ea + eb, eta + etb)
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out

def _plead(a: PolyDict) -> Term:
    return max(a, key=_term_key)

_deg_t = itemgetter(1)

def _mono_gcd(a: PolyDict, b: PolyDict) -> Term:
    """Exponents of the largest monomial dividing both (nonzero) a and b."""
    return (min(min(a)[0], min(b)[0]),
            min(min(a, key=_deg_t)[1], min(b, key=_deg_t)[1]))

def _cdiv(x: int, y: int) -> int:
    """x / y for integer coefficients; raises unless y divides x."""
    v, r = divmod(x, y)
    if r:
        raise InexactDivisionError("coefficient does not divide")
    return v

def _pdiv_exact(a: PolyDict, b: PolyDict) -> PolyDict:
    """Quotient a/b when it lies in Z[q, t], as it does whenever a primitive
    b divides a (Gauss); raises InexactDivisionError otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    if len(b) == 1:
        (eq, et), c = next(iter(b.items()))
        out: PolyDict = {}
        for (aq, at), ca in a.items():
            if aq < eq or at < et:
                raise InexactDivisionError("monomial does not divide term")
            out[(aq - eq, at - et)] = _cdiv(ca, c)
        return out
    lb = _plead(b)
    cb = b[lb]
    rem = dict(a)
    # max-heap of the remainder's terms in graded-lex order; a cancelled
    # term leaves a stale entry, skipped when popped.  The order is a
    # monomial order, so every term a step adds lies below the one it
    # cancels and a popped leading term never comes back.
    heap = [(-e[0] - e[1], -e[0], -e[1]) for e in rem]
    heapify(heap)
    quot: PolyDict = {}
    while heap:
        _, mq, mt = heappop(heap)
        la = (-mq, -mt)
        ca = rem.get(la)
        if ca is None:
            continue
        eq, et = la[0] - lb[0], la[1] - lb[1]
        if eq < 0 or et < 0:
            raise InexactDivisionError("leading term not divisible")
        c = _cdiv(ca, cb)
        quot[(eq, et)] = c
        for (bq, bt), cbb in b.items():
            e = (bq + eq, bt + et)
            old = rem.get(e)
            s = (old or 0) - c * cbb
            if s:
                rem[e] = s
                if old is None:
                    heappush(heap, (-e[0] - e[1], -e[0], -e[1]))
            elif old is not None:
                del rem[e]
    return quot


# ---------------------------------------------------------------------------
# gcd over Z[t][q] with primitive pseudo-remainder sequences

def _uv_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a

def _uv_content(a: list[int]) -> int:
    g = 0
    for c in a:
        g = int_gcd(g, c)
        if g == 1:
            return 1
    return g

def _uv_primitive(a: list[int]) -> list[int]:
    if not a:
        return a
    g = _uv_content(a)
    if a[-1] < 0:
        g = -g
    if g != 1:
        a = [c // g for c in a]
    return a

def _uv_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _uv_trim(out)

def _uv_div_exact(a: list[int], b: list[int]) -> list[int]:
    # exact division of integer polynomials, quotient has integer coeffs
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    out = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, r = divmod(a[k + db], lb)
        if r:
            raise InexactDivisionError("inexact univariate division")
        out[k] = c
        if c:
            for j, cb in enumerate(b):
                a[k + j] -= c * cb
    if any(a):
        raise InexactDivisionError("inexact univariate division")
    return _uv_trim(out)

def _uv_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    while len(r) - 1 >= db and r:
        da = len(r) - 1
        c = r[-1]
        r = [lb * x for x in r]
        for j, cb in enumerate(b):
            r[j + da - db] -= c * cb
        r = _uv_trim(r)
    return r

def _uv_gcd(a: list[int], b: list[int]) -> list[int]:
    a = _uv_primitive(_uv_trim(a[:]))
    b = _uv_primitive(_uv_trim(b[:]))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _uv_pseudo_rem(a, b)
        a, b = b, _uv_primitive(r)
    return a

# bivariate: dict deg_q -> integer t-coefficient list

def _bv_from_int_terms(terms: dict[Term, int]) -> dict[int, list[int]]:
    by_q: dict[int, list[int]] = {}
    for (dq, dt), c in terms.items():
        col = by_q.get(dq)
        if col is None:
            col = []
            by_q[dq] = col
        if len(col) <= dt:
            col.extend([0] * (dt + 1 - len(col)))
        col[dt] = c
    return {dq: _uv_trim(col) for dq, col in by_q.items() if any(col)}

def _bv_content(f: dict[int, list[int]]) -> list[int]:
    g: list[int] = []
    for col in f.values():
        g = _uv_gcd(g, col)
        if g == [1]:
            return g
    return g

def _bv_map(f: dict[int, list[int]], fn) -> dict[int, list[int]]:
    out = {}
    for dq, col in f.items():
        col = fn(col)
        if col:
            out[dq] = col
    return out

def _uv_eval(a: list[int], e: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * e + c
    return v

def _bv_eval_t(f: dict[int, list[int]], e: int) -> list[int]:
    out = [0] * (max(f) + 1)
    for dq, col in f.items():
        out[dq] = _uv_eval(col, e)
    return _uv_trim(out)

def _bv_deg_t(f: dict[int, list[int]]) -> int:
    return max(len(col) for col in f.values()) - 1

def _bv_to_terms(f: dict[int, list[int]]) -> PolyDict:
    return {(dq, dt): c for dq, col in f.items() for dt, c in enumerate(col) if c}

def _interp_coeffs(xs: list[int], ys: list[int]) -> list[int]:
    """Newton interpolation through (xs[i], ys[i]) over Z; power-basis
    coefficients.  The divided differences of an integer polynomial at
    integer points are integers, so an inexact one raises
    InexactDivisionError: no such polynomial of degree < len(xs) exists."""
    m = len(xs)
    dd = list(ys)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            dd[i] = _cdiv(dd[i] - dd[i - 1], xs[i] - xs[i - j])
    poly = [dd[m - 1]]
    for i in range(m - 2, -1, -1):
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= c * xs[i]
        nxt[0] += dd[i]
        poly = nxt
    return poly

def _bv_primitive(f: dict[int, list[int]]) -> dict[int, list[int]]:
    """f over its content in Z[t], integer content included."""
    g = 0
    for col in f.values():
        g = int_gcd(g, _uv_content(col))
    cont = [g * c for c in _bv_content(f)]
    if cont == [1]:
        return f
    return _bv_map(f, lambda col: _uv_div_exact(col, cont))

def _content(a: PolyDict) -> int:
    """gcd of the integer coefficients of a; 0 for the zero polynomial."""
    g = 0
    for v in a.values():
        g = int_gcd(g, v)
        if g == 1:
            break
    return g

def _int_terms(a: PolyDict) -> PolyDict:
    """a over its integer content: integer-primitive, with the same sign."""
    g = _content(a)
    return a if g == 1 else {e: v // g for e, v in a.items()}

def _pgcd(a: PolyDict, b: PolyDict) -> PolyDict:
    """gcd of two polynomials, integer-primitive with positive leading coeff."""
    if not a:
        return _normalize_primitive(b)
    if not b:
        return _normalize_primitive(a)
    if a == b:
        return _normalize_primitive(a)
    # common monomial factor first; it also lowers the working degrees
    mq, mt = _mono_gcd(a, b)
    if len(a) == 1 or len(b) == 1:
        # gcd with a monomial is a monomial
        return {(mq, mt): 1}
    ia = _bv_from_int_terms(_int_terms(a if not (mq or mt) else {(e[0] - mq, e[1] - mt): c for e, c in a.items()}))
    ib = _bv_from_int_terms(_int_terms(b if not (mq or mt) else {(e[0] - mq, e[1] - mt): c for e, c in b.items()}))
    g = _bv_gcd(ia, ib)
    return {(dq + mq, dt + mt): c for dq, col in g.items() for dt, c in enumerate(col) if c}

def _bv_gcd_prim(fp: dict[int, list[int]], gp: dict[int, list[int]]) -> dict[int, list[int]]:
    """gcd of two primitive bivariate integer polys of positive q-degree.

    Evaluates both at integer t values, takes univariate gcds in q, and
    interpolates the images over Z; a trial division certifies the
    candidate.  An image that does not divide gamma, an inexact divided
    difference or a failed trial division marks unlucky evaluation points,
    which only cost a retry.  A single point whose gcd image is constant
    already proves the inputs coprime, which is the common case when
    reducing fractions.
    """
    if fp == gp:
        return {dq: col[:] for dq, col in fp.items()}
    dq_f, dq_g = max(fp), max(gp)
    lf, lg = fp[dq_f], gp[dq_g]
    # the gcd's leading q-coefficient divides gamma in Z[t] (_uv_gcd drops
    # the integer content, so it goes back in): the images scaled to lead
    # with gamma(e) are values of one polynomial in Z[t][q]
    gamma = [int_gcd(_uv_content(lf), _uv_content(lg)) * c for c in _uv_gcd(lf, lg)]
    need = min(_bv_deg_t(fp), _bv_deg_t(gp)) + len(gamma)
    pf, pg = _bv_to_terms(fp), _bv_to_terms(gp)
    best = -1
    xs: list[int] = []
    images: list[list[int]] = []
    # at t = 1 every factor 1 - q^a t^b of the denominators here becomes
    # 1 - q^a (at t = -1, up to sign, often too), so distinct factors
    # collide: the image gcd there is often too large, and a candidate
    # built from it fails its trial division
    e = -1
    for _ in range(1000):
        e = 1 - e if e <= 0 else -e  # 2, -2, 3, -3, ...
        fe = _bv_eval_t(fp, e)
        if len(fe) != dq_f + 1:
            continue  # leading coefficient vanished; degree unusable
        ge = _bv_eval_t(gp, e)
        if len(ge) != dq_g + 1:
            continue
        h = _uv_gcd(fe, ge)
        if len(h) == 1:
            return {0: [1]}
        s, r = divmod(_uv_eval(gamma, e), h[-1])
        if r:
            continue  # h is no associate of the gcd's image: unlucky point
        if best < 0 or len(h) - 1 < best:
            best, xs, images = len(h) - 1, [], []
        if len(h) - 1 == best:
            xs.append(e)
            images.append([c * s for c in h])
        if len(xs) < need:
            continue
        try:
            cand = _bv_primitive(_bv_map(
                {k: _interp_coeffs(xs, [img[k] for img in images])
                 for k in range(best + 1)}, _uv_trim))
            _pdiv_exact(pf, _bv_to_terms(cand))
            _pdiv_exact(pg, _bv_to_terms(cand))
        except InexactDivisionError:
            best, xs, images = -1, [], []  # unlucky points; retry with fresh ones
            continue
        return cand
    raise GcdInterpolationError("bivariate gcd interpolation did not converge")

def _bv_gcd(f: dict[int, list[int]], g: dict[int, list[int]]) -> dict[int, list[int]]:
    cf = _bv_content(f)
    cg = _bv_content(g)
    cont = _uv_gcd(cf, cg)
    fp = _bv_map(f, lambda col: _uv_div_exact(col, cf))
    gp = _bv_map(g, lambda col: _uv_div_exact(col, cg))
    if max(fp) == 0 or max(gp) == 0:
        # a primitive q-degree-0 polynomial is a unit against a primitive poly
        pp = {0: [1]}
    else:
        pp = _bv_gcd_prim(fp, gp)
    if cont == [1]:
        out = pp
    else:
        out = {dq: _uv_mul(col, cont) for dq, col in pp.items()}
    # sign: positive leading coefficient in graded-lex order
    lead = max(((dq, dt) for dq, col in out.items() for dt, c in enumerate(col) if c),
               key=_term_key)
    if out[lead[0]][lead[1]] < 0:
        out = {dq: [-c for c in col] for dq, col in out.items()}
    return out

def _normalize_primitive(a: PolyDict) -> PolyDict:
    if not a:
        return {}
    ia = _int_terms(a)
    lead = max(ia, key=_term_key)
    return _pneg(ia) if ia[lead] < 0 else ia


_PONE: PolyDict = {(0, 0): 1}


def _poly_text_term(e: Term, c: int | Fraction) -> str:
    dq, dt = e
    parts = []
    if dq:
        parts.append("q" if dq == 1 else f"q^{dq}")
    if dt:
        parts.append("t" if dt == 1 else f"t^{dt}")
    mono = "*".join(parts)
    ac = abs(c)
    if not mono:
        return str(ac)
    if ac == 1:
        return mono
    return f"{ac}*{mono}"

def render_poly(terms: QPolyDict) -> str:
    """Canonical text form, graded-lex ascending: ``1 - 2*q*t + q^2*t^2``."""
    if not terms:
        return "0"
    items = sorted(terms.items(), key=lambda kv: _term_key(kv[0]))
    out = []
    for i, (e, c) in enumerate(items):
        body = _poly_text_term(e, c)
        if i == 0:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append((" + " if c > 0 else " - ") + body)
    return "".join(out)

def poly_to_json(terms: QPolyDict) -> list[list]:
    return [[e[0], e[1], str(c)] for e, c in sorted(terms.items(), key=lambda kv: _term_key(kv[0]))]

def poly_from_json(data) -> QPolyDict:
    out: QPolyDict = {}
    for dq, dt, c in data:
        out[(int(dq), int(dt))] = Fraction(c)
    return out


# ---------------------------------------------------------------------------
# RatFuncQT

def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or a Fraction string."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator

def _cleared(num: QPolyDict, den: QPolyDict) -> tuple[PolyDict, PolyDict]:
    """Integer term dicts with the quotient num/den of two rational ones."""
    m = int_lcm(*(c.denominator for p in (num, den) for c in p.values()))
    return ({e: int(c * m) for e, c in num.items()},
            {e: int(c * m) for e, c in den.items()})


class RatFuncQT:
    """Field element of Q(q, t): a/b, two int term dicts in normal form.

    The constructor stores the pair as given; _make (which reduces),
    _make_reduced (which takes out the common integer content of a coprime
    pair) and _signed (which fixes the sign) canonicalise.  num and den are
    read-only views in the rational normal form.  Treat every dict as
    immutable.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: PolyDict, b: PolyDict):
        self._a, self._b = a, b

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_fraction(cls, f) -> "RatFuncQT":
        p, d = _ratio(f)
        if not p:
            return ZERO
        return cls({(0, 0): p}, {(0, 0): d})

    @classmethod
    def from_poly(cls, p: QPolyDict) -> "RatFuncQT":
        return _make(*_cleared(p, _PONE))

    @classmethod
    def monomial(cls, dq: int, dt: int, c=1) -> "RatFuncQT":
        """c * q^dq * t^dt with exponents of either sign."""
        p, d = _ratio(c)
        if not p:
            return ZERO
        return cls({(max(dq, 0), max(dt, 0)): p}, {(max(-dq, 0), max(-dt, 0)): d})

    # -- views --------------------------------------------------------------

    @property
    def num(self) -> QPolyDict:
        """a / content(b): the numerator over den."""
        g = _content(self._b)
        return self._a if g == 1 else {e: Fraction(v, g) for e, v in self._a.items()}

    @property
    def den(self) -> PolyDict:
        """b / content(b): integer-primitive, positive leading coefficient."""
        return _int_terms(self._b)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a

    def is_one(self) -> bool:
        return self._a == _PONE and self._b == _PONE

    def __bool__(self) -> bool:
        return bool(self._a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFuncQT):
            if isinstance(other, (int, Fraction)):
                other = RatFuncQT.from_fraction(other)
            else:
                return NotImplemented
        return self._a == other._a and self._b == other._b

    def __hash__(self):
        return hash((frozenset(self._a.items()), frozenset(self._b.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RatFuncQT") -> "RatFuncQT":
        a, b = self._a, self._b
        c, d = other._a, other._b
        if not a:
            return other
        if not c:
            return self
        if b == d:
            s = _padd(a, c)
            if b == _PONE:
                return RatFuncQT(s, _PONE) if s else ZERO
            return _make(s, b)
        g0 = _pgcd(b, d)
        if g0 == _PONE:
            return _make_reduced(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))
        b1 = _pdiv_exact(b, g0)
        d1 = _pdiv_exact(d, g0)
        s = _padd(_pmul(a, d1), _pmul(c, b1))
        if not s:
            return ZERO
        g1 = _pgcd(s, g0)
        if g1 == _PONE:
            return _make_reduced(s, _pmul(_pmul(b1, g0), d1))
        return _make_reduced(_pdiv_exact(s, g1), _pmul(_pdiv_exact(b, g1), d1))

    def __sub__(self, other: "RatFuncQT") -> "RatFuncQT":
        return self + (-other)

    def __neg__(self) -> "RatFuncQT":
        if not self._a:
            return self
        return RatFuncQT(_pneg(self._a), self._b)

    def __mul__(self, other: "RatFuncQT") -> "RatFuncQT":
        a, b = self._a, self._b
        c, d = other._a, other._b
        if not a or not c:
            return ZERO
        if b == _PONE and d == _PONE:
            return RatFuncQT(_pmul(a, c), _PONE)
        g1 = _pgcd(a, d)
        g2 = _pgcd(c, b)
        if g1 != _PONE:
            a = _pdiv_exact(a, g1)
            d = _pdiv_exact(d, g1)
        if g2 != _PONE:
            c = _pdiv_exact(c, g2)
            b = _pdiv_exact(b, g2)
        return _make_reduced(_pmul(a, c), _pmul(b, d))

    def __truediv__(self, other: "RatFuncQT") -> "RatFuncQT":
        return self * other.inverse()

    def inverse(self) -> "RatFuncQT":
        if not self._a:
            raise ZeroDivisionError("inverse of zero rational function")
        return _signed(self._b, self._a)

    def __pow__(self, k: int) -> "RatFuncQT":
        if k == 0:
            return ONE
        if k < 0:
            return self.inverse() ** (-k)
        base = self
        out = None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = RatFuncQT(_pmul(base._a, base._a), _pmul(base._b, base._b))
        return out

    def scale(self, c) -> "RatFuncQT":
        p, d = _ratio(c)
        if not p or not self._a:
            return ZERO
        return _make_reduced(_pscale(self._a, p), _pscale(self._b, d))

    def parts(self) -> tuple["RatFuncQT", "RatFuncQT"]:
        """(a, b) with self = a / b: the stored coprime integer polynomials,
        each as an element with denominator 1."""
        return RatFuncQT(self._a, _PONE), RatFuncQT(self._b, _PONE)

    # -- conversions --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        """The constant value, if this element is a rational constant."""
        a, b = self._a, self._b
        if not a:
            return _F0
        if a.keys() == {(0, 0)} and b.keys() == {(0, 0)}:
            return Fraction(a[(0, 0)], b[(0, 0)])
        raise ValueError("not a constant: " + self.render())

    def render(self) -> str:
        if not self._a:
            return "0"
        num, den = self.num, self.den
        nt = render_poly(num)
        if den == _PONE:
            return nt
        if len(num) > 1:
            nt = f"({nt})"
        return f"{nt}/({render_poly(den)})"

    def to_json(self) -> dict:
        num, den = self.num, self.den
        return {"num": poly_to_json(num), "den": poly_to_json(den)}

    @classmethod
    def from_json(cls, data) -> "RatFuncQT":
        return _make(*_cleared(poly_from_json(data["num"]), poly_from_json(data["den"])))

    def __repr__(self):
        return f"RatFuncQT({self.render()})"


def _signed(a: PolyDict, b: PolyDict) -> RatFuncQT:
    """a/b from a coprime pair: the sign moves so that b leads positive."""
    if b[_plead(b)] < 0:
        return RatFuncQT(_pneg(a), _pneg(b))
    return RatFuncQT(a, b)

def _make_reduced(num: PolyDict, den: PolyDict) -> RatFuncQT:
    """Build from a pair coprime over Q: takes out the common integer content."""
    if not num:
        return ZERO
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = _content(den)
    if g != 1:
        for v in num.values():
            g = int_gcd(g, v)
            if g == 1:
                break
        else:
            num = {e: v // g for e, v in num.items()}
            den = {e: v // g for e, v in den.items()}
    return _signed(num, den)

def _make(num: PolyDict, den: PolyDict) -> RatFuncQT:
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ZERO
    # strip the joint monomial content
    mq, mt = _mono_gcd(num, den)
    if mq or mt:
        num = {(e[0] - mq, e[1] - mt): c for e, c in num.items()}
        den = {(e[0] - mq, e[1] - mt): c for e, c in den.items()}
    if den != _PONE:
        g = _pgcd(num, den)
        if g != _PONE:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
    return _make_reduced(num, den)


ZERO = RatFuncQT({}, _PONE)
ONE = RatFuncQT(_PONE, _PONE)
Q = RatFuncQT({(1, 0): 1}, _PONE)
T = RatFuncQT({(0, 1): 1}, _PONE)

def rf(x) -> RatFuncQT:
    """Coerce an int, Fraction or RatFuncQT to RatFuncQT."""
    if isinstance(x, RatFuncQT):
        return x
    return RatFuncQT.from_fraction(x)

def t_monomial(k: int) -> RatFuncQT:
    return RatFuncQT.monomial(0, k)

def qt_monomial(dq: int, dt: int, c=1) -> RatFuncQT:
    return RatFuncQT.monomial(dq, dt, c)

def q_integer(m: int) -> RatFuncQT:
    """1 + q + ... + q^(m-1)."""
    if m < 0:
        raise ValueError("q-integer of negative order")
    return RatFuncQT.from_poly({(j, 0): 1 for j in range(m)})

def t_integer(m: int) -> RatFuncQT:
    return RatFuncQT.from_poly({(0, j): 1 for j in range(m)})


# ---------------------------------------------------------------------------
# substitution

def _eval_poly(terms: PolyDict, qv: RatFuncQT, tv: RatFuncQT) -> RatFuncQT:
    if not terms:
        return ZERO
    qpow: dict[int, RatFuncQT] = {0: ONE}
    tpow: dict[int, RatFuncQT] = {0: ONE}
    def power(cache, base, k):
        v = cache.get(k)
        if v is None:
            v = base ** k
            cache[k] = v
        return v
    out = ZERO
    for (dq, dt), c in sorted(terms.items(), key=lambda kv: _term_key(kv[0])):
        out = out + (power(qpow, qv, dq) * power(tpow, tv, dt)).scale(c)
    return out

def substitute(f: RatFuncQT, qval: RatFuncQT | None = None,
               tval: RatFuncQT | None = None) -> RatFuncQT:
    """Evaluate f at q = qval, t = tval (missing bindings stay symbolic).

    Raises ZeroDivisionError when the denominator vanishes at the binding.
    This is the evaluation route the tests use, and the one the planned
    specialization to rationals of the characterization certificate
    (ROADMAP.md) will use.
    """
    qv = Q if qval is None else rf(qval)
    tv = T if tval is None else rf(tval)
    den = _eval_poly(f._b, qv, tv)
    if den.is_zero():
        raise ZeroDivisionError("substitution hits a pole of the denominator")
    if f.is_zero():
        return ZERO
    return _eval_poly(f._a, qv, tv) / den

def invert_qt(f: RatFuncQT) -> RatFuncQT:
    """Substitute q -> 1/q and t -> 1/t.

    Both halves are reflected in the joint degree box; reciprocals of a
    reduced pair stay coprime, and one of them keeps a constant term in
    each variable, so the result is reduced without a gcd; only the sign
    of the leading coefficient may move.
    """
    terms = (f._a, f._b)
    bq = max(e[0] for p in terms for e in p)
    bt = max(e[1] for p in terms for e in p)
    num, den = ({(bq - e[0], bt - e[1]): c for e, c in p.items()} for p in terms)
    return _signed(num, den) if num else ZERO

def _zlcm(a: PolyDict, b: PolyDict) -> PolyDict:
    """Least common multiple in Z[q, t] of two nonzero integer polynomials
    with positive leading coefficients, integer content included."""
    q = _pdiv_exact(b, _pgcd(a, b))
    k = int_gcd(_content(a), _content(b))
    if k != 1:
        q = {e: v // k for e, v in q.items()}
    return _pmul(a, q)

def over_common_denominator(values: list[RatFuncQT]) -> tuple[list[RatFuncQT], RatFuncQT]:
    """([v * L for v in values], 1 / L) with L the least common multiple
    in Z[q, t] of the denominators: every v * L is an integer polynomial.

    A denominator that divides L or that L divides costs a trial division
    or two, any other one gcd; each multiple is one exact division.  Most
    denominators met in the transfers nest that way, so the trial
    divisions spare most of the gcds.
    """
    L = _PONE
    for v in values:
        b = v._b
        if b == L or b == _PONE:
            continue
        if L == _PONE:
            L = b
            continue
        for big, small in ((L, b), (b, L)):
            try:
                _pdiv_exact(big, small)
            except InexactDivisionError:
                continue
            L = big
            break
        else:
            L = _zlcm(L, b)
    if L == _PONE:
        return list(values), ONE
    return ([RatFuncQT(v._a if v._b == L else _pmul(v._a, _pdiv_exact(L, v._b)),
                       _PONE) for v in values],
            RatFuncQT(_PONE, L))

def times_multiple(f: RatFuncQT, m: PolyDict) -> RatFuncQT:
    """f * m for an integer polynomial m that f's denominator divides: the
    product is a polynomial, found by one exact division and no gcd."""
    a, b = f._a, f._b
    g = _content(b)
    den = b if g == 1 else {e: v // g for e, v in b.items()}
    if den == m:
        return RatFuncQT(a, {(0, 0): g})
    return _make_reduced(_pmul(a, _pdiv_exact(m, den)), {(0, 0): g})

def elementary_symmetric(values: list[RatFuncQT]) -> list[RatFuncQT]:
    """[e_0, e_1, ..., e_r] of the given field elements."""
    es = [ONE]
    for v in values:
        es.append(ZERO)
        for j in range(len(es) - 1, 0, -1):
            es[j] = es[j] + es[j - 1] * v
    return es
