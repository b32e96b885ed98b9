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

Beside the pair, an element keeps b factored over one process-wide base of
pairwise coprime, integer-primitive polynomials: b = u * prod f_i^k_i with
u a positive integer (factor refinement: Bach, Driscoll and Shallit,
J. Algorithms 15, 1993).  A product adds exponents; a sum and
over_common_denominator take the exponent-wise maximum as the lcm.  The
cancellation that keeps the pair coprime trial-divides a numerator by the
base elements of the other denominator only: a numerator whose value at a
fixed integer point is not divisible by f_i's value there is proven not
divisible by f_i, and every division the screen lets through is certified
by exact division.  A base element is proven irreducible when it is
primitive of degree 1 in q or in t, or of degree 2 or 3 there with a
specialization that has no root modulo a small prime; against such an
element "f_i does not divide a" means "f_i is coprime to a".  Against any
other element the cancellation asks the refinement for gcd(a, f_i), which
splits f_i when the gcd is nontrivial.

The refinement is the only place that runs a bivariate gcd: when a new
denominator is first factored (after inverse, invert_qt, from_json or
_make) it enters the base, and when an unproven element meets a numerator
it may split.  Elements are only added or split, never removed; a
factorization made before a split is read over the split elements through
the split record (_CoprimeBase.translate).  The base remembers the
factorization of each denominator it has screened, at most
MAX_FACTORIZATIONS of them, the least recently used evicted first; the
same denominator met again, as every one is after an inverse, is read
from that memo through translate instead of screened against every
element.  A product with the constant 1 returns the other operand.

The gcd views polynomials in Z[t][q].  It splits off the common monomial
factor and the content in Z[t]; the gcd of the primitive parts comes from
evaluation (_bv_gcd_prim): at integer values of t it takes univariate gcds
in q (primitive pseudo-remainder sequences over Z), interpolates the images
over Z, certifies the candidate by trial division, and retries with fresh
points when an evaluation point was unlucky.
All polynomial arithmetic runs on int.  Fraction appears only where values
enter or leave: constants coming in, the num view, as_fraction,
substitution and rendering.  JSON comes in as integer pairs: from_json
reads each coefficient's text as p/d, accepts only what to_json writes
and clears each list by one lcm.  No external algebra package
is involved.

kronecker_vanishes decides whether a sum of products of integer
polynomials is zero by evaluating it once at a power of two large enough
that distinct terms cannot overlap (Kronecker substitution), so the test
is exact; multiple_sum_equals states the basis cache's principal-value
audit through it.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, lcm as int_lcm
from operator import itemgetter

from . import stats
from .errors import GcdInterpolationError, InexactDivisionError

Term = tuple[int, int]
PolyDict = dict[Term, int]
# a polynomial over Q, as the num view and from_poly hold it
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
    stats.COUNTS["gcd_calls"] += 1
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

# a coefficient as poly_to_json writes it: str of a nonzero int or Fraction
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

def _terms_from_json(data) -> list[tuple[Term, int, int]]:
    """The terms of a list that poly_to_json wrote, as (exponents, p, d)
    for the coefficient p/d.  ValueError for anything else: a term that is
    not two int exponents >= 0 and an ASCII rational string, a zero
    coefficient or denominator, or exponents met twice."""
    if type(data) is not list:
        raise ValueError("a term list must be a JSON list")
    out = []
    seen = set()
    for dq, dt, c in data:
        match = (type(dq) is int and dq >= 0 and type(dt) is int and dt >= 0
                 and type(c) is str and _RATIONAL.fullmatch(c))
        if not match:
            raise ValueError(f"not a term: {[dq, dt, c]!r}")
        p, d = int(match[1]), int(match[2] or 1)
        if not p or not d:
            raise ValueError(f"zero in a coefficient: {c!r}")
        if (dq, dt) in seen:
            raise ValueError(f"exponents ({dq}, {dt}) repeated")
        seen.add((dq, dt))
        out.append(((dq, dt), p, d))
    return out


# ---------------------------------------------------------------------------
# the coprime base of denominator factors

# Numerators and base elements are evaluated at one fixed integer point P.
# If f divides a in Z[q, t] then f(P) divides a(P) in Z, so a value that
# does not divide proves that f does not divide a.  The screen only
# rejects: a division it lets through is certified by _pdiv_exact.  Any
# point is sound; large coordinates make a chance divisibility rare.
_Q0, _T0 = 65_537, 40_009
_QPOW: list[int] = [1]
_TPOW: list[int] = [1]


def _peval(a: PolyDict) -> int:
    """a at the screening point."""
    qp, tp = _QPOW, _TPOW
    v = 0
    try:
        for (i, j), c in a.items():
            v += c * qp[i] * tp[j]
    except IndexError:
        top = max(max(e) for e in a)
        while len(qp) <= top:
            qp.append(qp[-1] * _Q0)
            tp.append(tp[-1] * _T0)
        return _peval(a)
    return v


# primes for the irreducibility proof of a specialization of degree 2 or 3
_PROOF_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _proven_irreducible(f: PolyDict) -> bool:
    """True when f, integer-primitive and free of monomial factors, is
    proven irreducible in Z[q, t]; False when no proof was found.

    The proof takes a variable x of degree d = 1, 2 or 3 in f, whose
    coefficients have no common factor in Z[y] (y the other variable).
    Then every nontrivial factorization of f has two factors of positive
    x-degree, and so has f(x, y0) over Q at any integer y0 that keeps the
    leading x-coefficient nonzero, and so (Gauss) f(x, y0) modulo any
    prime p that keeps it nonzero.  A polynomial of degree 2 or 3 without
    a root modulo p has no such factorization; degree 1 needs no point.
    """
    for swap in (False, True):
        g = {(e[1], e[0]): c for e, c in f.items()} if swap else f
        cols = _bv_from_int_terms(g)
        d = max(cols)
        if not 1 <= d <= 3 or _bv_content(cols) != [1]:
            continue
        if d == 1:
            return True
        for y0 in (2, 3, 5):
            cs = [_uv_eval(cols.get(k, []), y0) for k in range(d + 1)]
            for p in _PROOF_PRIMES:
                if cs[d] % p and all(_uv_eval(cs, z) % p for z in range(p)):
                    return True
    return False


# a factorization: base element index -> exponent; never mutated once made
Exps = dict[int, int]
_NOEXP: Exps = {}
_ANY = 1 << 30  # no limit on how often an element divides
_COUNTS = stats.COUNTS

# the bound of a base's memo of factorizations; past it the entry used
# least recently is evicted, and factored again when next met
MAX_FACTORIZATIONS = 1024


class _CoprimeBase:
    """The process-wide base that denominators are factored over.

    Its elements are pairwise coprime, integer-primitive polynomials with a
    positive leading coefficient, each kept with its value at the
    screening point and whether it is proven irreducible; q and t are
    elements 0 and 1.  A factorization is a dict index -> exponent.

    Elements are only added or split, never removed.  A split element
    keeps its index: `split` maps it to its factorization over the
    elements it was split into, and translate() reads a factorization made
    before the split over the current elements.  `gen` counts the splits,
    so a factorization made at the current gen needs no translation.

    factor() remembers what it returned for each polynomial in `memo`,
    keyed by the polynomial's value at the screening point, at most
    MAX_FACTORIZATIONS entries, the least recently used evicted first.  A
    hit compares the polynomial itself and is read through translate(), so
    an entry made before a split stays valid; a denominator met again costs
    one lookup instead of a screen against every element.

    Only the refinement (_screen, split_common and _split) runs gcds.
    """

    def __init__(self):
        self.polys: list[PolyDict] = []
        self.values: list[int] = []
        self.proven: list[bool] = []
        self.active: list[int] = []
        self.split: dict[int, Exps] = {}
        self._powers: dict[tuple[int, int], PolyDict] = {}
        self.memo: dict[int, tuple[PolyDict, Exps]] = {}
        self.gen = 0
        self._lock = threading.RLock()
        for p in ({(1, 0): 1}, {(0, 1): 1}):
            self._add(p)

    def _add(self, f: PolyDict) -> int:
        i = len(self.polys)
        self.polys.append(f)
        self.values.append(_peval(f))
        self.proven.append(_proven_irreducible(f))
        self.active.append(i)
        _COUNTS["base_refinements"] += 1
        return i

    def factor(self, p: PolyDict) -> Exps:
        """The factorization of p over the base, for p integer-primitive with
        a positive leading coefficient and no monomial factor: from the memo
        when p was factored before, else by _screen."""
        with self._lock:
            v = _peval(p)
            memo = self.memo
            hit = memo.pop(v, None)
            if hit is not None and hit[0] == p:
                _COUNTS["factorizations_reused"] += 1
                exps = self.translate(hit[1])
            else:
                _COUNTS["factorizations"] += 1
                exps = self._screen(p, v)
                if len(memo) >= MAX_FACTORIZATIONS:
                    del memo[next(iter(memo))]
            memo[v] = (p, exps)
            return exps

    def _screen(self, p: PolyDict, v: int) -> Exps:
        """factor() of p, with value v, by trial division by every element,
        under the lock that factor holds.  A factor of p that no element
        divides enters the base, after a gcd with each unproven element has
        split any that shares a factor with it."""
        exps: Exps = {}
        x = p
        while True:
            x, v, got = _divide_out(x, v, [(i, _ANY) for i in self.active])
            for i, m in got.items():
                exps[i] = exps.get(i, 0) + m
            if x == _PONE:
                return exps
            # no element divides x, so a proven one is coprime to it
            for j in self.active:
                if not self.proven[j] and self.split_common(x, j):
                    exps = self.translate(exps)
                    break
            else:
                exps[self._add(x)] = 1
                return exps

    def split_common(self, x: PolyDict, j: int) -> bool:
        """Split element j, which does not divide x, when it shares a factor
        with x; True when it did, or when another thread split it first."""
        with self._lock:
            if j in self.split:
                return True
            g = _pgcd(x, self.polys[j])
            if g == _PONE:
                return False
            self._split(j, g)
            return True

    def _split(self, j: int, g: PolyDict) -> None:
        # j leaves the active elements first, so that its pieces are not
        # refined against it; until gen moves, a reader still sees j as an
        # element, whose polynomial stays valid
        f = self.polys[j]
        self.active.remove(j)
        exps: Exps = {}
        for piece in (g, _pdiv_exact(f, g)):
            for i, m in self.factor(piece).items():
                exps[i] = exps.get(i, 0) + m
        self.split[j] = exps
        self.gen += 1
        _COUNTS["base_refinements"] += 1

    def translate(self, exps: Exps) -> Exps:
        """exps, made at any earlier gen, over the current elements."""
        split = self.split
        if not any(i in split for i in exps):
            return exps
        out: Exps = {}
        for i, k in exps.items():
            sub = split.get(i)
            if sub is None:
                out[i] = out.get(i, 0) + k
            else:
                for j, m in self.translate(sub).items():
                    out[j] = out.get(j, 0) + k * m
        return out

    def expand(self, exps: Exps) -> PolyDict:
        """The product of the elements to their exponents in exps."""
        out = None
        for i, k in exps.items():
            p = self._powers.get((i, k))
            if p is None:
                p = self.polys[i]
                if k > 1:
                    p = _pmul(self.expand({i: k - 1}), p)
                self._powers[(i, k)] = p
            out = p if out is None else _pmul(out, p)
        return _PONE if out is None else out

    def value(self, exps: Exps) -> int:
        """The product of exps at the screening point."""
        v = 1
        values = self.values
        for i, k in exps.items():
            v *= values[i] ** k
        return v


def _divide_out(x: PolyDict, v: int, limits) -> tuple[PolyDict, int, Exps]:
    """x divided by base elements: for each (i, k) of limits, by element i
    as often as it divides, and at most k times.  v is x at the screening
    point.  Returns the quotient, its value and the exponents taken out."""
    polys, values = _BASE.polys, _BASE.values
    got: Exps = {}
    for i, k in limits:
        fv = values[i]
        m = 0
        while m < k:
            if v % fv if fv else v:
                _COUNTS["divisions_screened"] += 1
                break
            try:
                y = _pdiv_exact(x, polys[i])
            except InexactDivisionError:
                _COUNTS["divisions_refused"] += 1
                break
            _COUNTS["divisions_certified"] += 1
            x, m = y, m + 1
            v = v // fv if fv else _peval(x)
        if m:
            got[i] = m
    return x, v, got


def _cancel(num: PolyDict, v: int, exps: Exps) -> tuple[PolyDict, int, Exps, Exps]:
    """Cancel num against a denominator factored as exps.

    Returns (num', v', left, cut): num' = num / prod(cut) with v' its
    value, and left = exps - cut, such that num' is coprime to prod(left).
    Each element is divided out as far as it divides num; an unproven one
    that is left may still share a factor with num', so it goes to the
    refinement, which splits it and the cancellation goes on over the
    split elements.
    """
    cut: Exps = {}
    while True:
        num, v, got = _divide_out(num, v, exps.items())
        for i, m in got.items():
            cut[i] = cut.get(i, 0) + m
        left = {i: k - got.get(i, 0) for i, k in exps.items() if k > got.get(i, 0)}
        proven = _BASE.proven
        for i in left:
            if not proven[i] and _BASE.split_common(num, i):
                exps, cut = _BASE.translate(left), _BASE.translate(cut)
                break
        else:
            return num, v, left, cut


_BASE = _CoprimeBase()


def base_size() -> int:
    """The number of elements in the base of denominator factors."""
    return len(_BASE.active)


stats.LEVELS["base_size"] = base_size


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


def _merge(x: Exps, y: Exps) -> Exps:
    """The product of two factorizations: exponents add."""
    if not x:
        return y
    if not y:
        return x
    out = dict(x)
    for i, k in y.items():
        out[i] = out.get(i, 0) + k
    return out


class RatFuncQT:
    """Field element of Q(q, t): a/b, two int term dicts in normal form.

    The pair (a, b) is the value; beside it an element keeps the
    factorization of b over the coprime base, b = u * prod f_i^k_i (slots
    _u and _k, valid at base generation _g; _g = -1 until first needed),
    and a's value at the screening point (_v, None until first needed).
    These are caches of the pair, made once, and equality and hashing
    read the pair only.

    The constructor stores what it is given; _make (which reduces),
    _lowest_terms (which takes out the common integer content of a pair
    coprime over Q) and _signed (which fixes the sign) canonicalise.  num and den are
    read-only views in the rational normal form.  Treat every dict as
    immutable.
    """

    __slots__ = ("_a", "_b", "_u", "_k", "_g", "_v")

    def __init__(self, a: PolyDict, b: PolyDict, u: int = 0,
                 k: Exps | None = None, g: int = -1, v: int | None = None):
        self._a, self._b = a, b
        self._u, self._k, self._g, self._v = u, k, g, v

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
        a, c = self._a, other._a
        if not a:
            return other
        if not c:
            return self
        b, d = self._b, other._b
        if b == _PONE and d == _PONE:
            s = _padd(a, c)
            return RatFuncQT(s, _PONE, 1, _NOEXP, _BASE.gen) if s else ZERO
        gen = _BASE.gen
        ub, kb, ud, kd = _fac2(self, other)
        # the lcm: integer lcm, exponent-wise maximum; cb and cd are the
        # cofactors L / b and L / d
        u = int_lcm(ub, ud)
        if kb == kd:
            K, cb, cd = kb, _NOEXP, _NOEXP
        else:
            K = dict(kb)
            for i, k in kd.items():
                if k > K.get(i, 0):
                    K[i] = k
            cb = {i: k - kb.get(i, 0) for i, k in K.items() if k > kb.get(i, 0)}
            cd = {i: k - kd.get(i, 0) for i, k in K.items() if k > kd.get(i, 0)}
        mb, md = u // ub, u // ud
        pb, pd = _BASE.expand(cb), _BASE.expand(cd)
        s = _padd(_pscale(_pmul(a, pb) if cb else a, mb),
                  _pscale(_pmul(c, pd) if cd else c, md))
        if not s:
            return ZERO
        L = _pscale(_pmul(b, pb) if cb else b, mb)
        v = None
        if K:
            v = (_val(self) * mb * _BASE.value(cb)
                 + _val(other) * md * _BASE.value(cd))
            s, v, K, cut = _cancel(s, v, K)
            if cut:
                L = _pdiv_exact(L, _BASE.expand(cut))
        return _lowest_terms(s, L, u, K, v, gen)

    def __sub__(self, other: "RatFuncQT") -> "RatFuncQT":
        return self + (-other)

    def __neg__(self) -> "RatFuncQT":
        if not self._a:
            return self
        v = self._v
        return RatFuncQT(_pneg(self._a), self._b, self._u, self._k, self._g,
                         None if v is None else -v)

    def __mul__(self, other: "RatFuncQT") -> "RatFuncQT":
        a, c = self._a, other._a
        if not a or not c:
            return ZERO
        b, d = self._b, other._b
        # times 1: the other operand, its factorization kept
        if b == _PONE and a == _PONE:
            return other
        if d == _PONE and c == _PONE:
            return self
        if b == _PONE and d == _PONE:
            return RatFuncQT(_pmul(a, c), _PONE, 1, _NOEXP, _BASE.gen)
        gen = _BASE.gen
        ub, kb, ud, kd = _fac2(self, other)
        va, vc = self._v, other._v
        # a is coprime to b and c to d, so a common factor of a*c and b*d
        # is one of a and d or one of c and b
        if kd:
            a, va, kd, cut = _cancel(a, _val(self), kd)
            if cut:
                d = _pdiv_exact(d, _BASE.expand(cut))
        if kb:
            if _BASE.gen != gen:
                kb = _BASE.translate(kb)
            c, vc, kb, cut = _cancel(c, _val(other), kb)
            if cut:
                b = _pdiv_exact(b, _BASE.expand(cut))
        if _BASE.gen != gen:
            kb, kd = _BASE.translate(kb), _BASE.translate(kd)
        return _lowest_terms(_pmul(a, c), _pmul(b, d), ub * ud, _merge(kb, kd),
                             None if va is None or vc is None else va * vc, gen)

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
                gen = _BASE.gen
                u, e = _fac(base)
                base = RatFuncQT(_pmul(base._a, base._a), _pmul(base._b, base._b),
                                 u * u, {i: 2 * m for i, m in e.items()}, gen)
        return out

    def scale(self, c) -> "RatFuncQT":
        p, d = _ratio(c)
        if not p or not self._a:
            return ZERO
        gen = _BASE.gen
        u, k = _fac(self)
        v = self._v
        return _lowest_terms(_pscale(self._a, p), _pscale(self._b, d), u * d, k,
                             None if v is None else v * p, gen)

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
        """The element to_json wrote: each coefficient read as an integer
        pair, both lists cleared by one lcm, and the pair reduced by _make.
        ValueError for a list that to_json does not write
        (_terms_from_json), ZeroDivisionError for an empty den."""
        num, den = _terms_from_json(data["num"]), _terms_from_json(data["den"])
        m = int_lcm(*(d for terms in (num, den) for _, _, d in terms))
        return _make({e: p * (m // d) for e, p, d in num},
                     {e: p * (m // d) for e, p, d in den})

    def __repr__(self):
        return f"RatFuncQT({self.render()})"

    def __reduce__(self):
        # the factorization refers to this process's base: pickle the pair
        return RatFuncQT, (self._a, self._b)


def _fac(x: RatFuncQT) -> tuple[int, Exps]:
    """(u, exps) with x's denominator u * prod of the base elements to exps,
    u a positive integer.  Made on first use, through the refinement, and
    kept on x; read over the current elements after a split."""
    gen = _BASE.gen
    if x._g == gen:
        return x._u, x._k
    k = x._k
    if k is None:
        b = x._b
        u = _content(b)
        mq, mt = _mono_gcd(b, b)
        k = {}
        if mq:
            k[0] = mq
        if mt:
            k[1] = mt
        p = b if u == 1 and not (mq or mt) else {
            (e[0] - mq, e[1] - mt): c // u for e, c in b.items()}
        if p != _PONE:
            k.update(_BASE.factor(p))
        x._u = u
    else:
        k = _BASE.translate(k)
    # marked with the gen read before factoring: a split since then is
    # translated on the next read
    x._k, x._g = k, gen
    return x._u, k


def _fac2(x: RatFuncQT, y: RatFuncQT) -> tuple[int, Exps, int, Exps]:
    """_fac of both, over the same elements: factoring y may split one."""
    gen = _BASE.gen
    ux, kx = _fac(x)
    uy, ky = _fac(y)
    if _BASE.gen != gen:
        ux, kx = _fac(x)
    return ux, kx, uy, ky


def _val(x: RatFuncQT) -> int:
    """x's numerator at the screening point, kept on x."""
    v = x._v
    if v is None:
        v = x._v = _peval(x._a)
    return v


def _signed(a: PolyDict, b: PolyDict) -> RatFuncQT:
    """a/b from a coprime pair: the sign moves so that b leads positive."""
    if b[_plead(b)] < 0:
        return RatFuncQT(_pneg(a), _pneg(b))
    return RatFuncQT(a, b)

def _lowest_terms(num: PolyDict, den: PolyDict, u: int, k: Exps,
                  v: int | None, gen: int) -> RatFuncQT:
    """num/den for den = u * prod(k) with a positive leading coefficient and
    num coprime to prod(k): takes out the integer content num shares with
    u.  v is num at the screening point, or None; k is valid at gen."""
    if u != 1:
        g = u
        for x in num.values():
            g = int_gcd(g, x)
            if g == 1:
                break
        else:
            num = {e: x // g for e, x in num.items()}
            den = {e: x // g for e, x in den.items()}
            u //= g
            if v is not None:
                v //= g
    return RatFuncQT(num, den, u, k, gen, v)

def _make(num: PolyDict, den: PolyDict) -> RatFuncQT:
    """Reduce an arbitrary pair: den is factored over the base, and num is
    cancelled against its factors."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ZERO
    x = _signed(num, den)
    gen = _BASE.gen
    u, k = _fac(x)
    num, den, v = x._a, x._b, None
    if k:
        num, v, k, cut = _cancel(num, _val(x), k)
        if cut:
            den = _pdiv_exact(den, _BASE.expand(cut))
    return _lowest_terms(num, den, u, k, v, gen)


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
    each variable, so the result is reduced without cancelling; only the
    sign of the leading coefficient may move.
    """
    terms = (f._a, f._b)
    bq = max(e[0] for p in terms for e in p)
    bt = max(e[1] for p in terms for e in p)
    num, den = ({(bq - e[0], bt - e[1]): c for e, c in p.items()} for p in terms)
    return _signed(num, den) if num else ZERO

def over_common_denominator(values: list[RatFuncQT]) -> tuple[list[RatFuncQT], RatFuncQT]:
    """([v * L for v in values], 1 / L) with L the least common multiple
    in Z[q, t] of the denominators: every v * L is an integer polynomial.

    L is the integer lcm of the contents times each base element to its
    largest exponent; each multiple is its numerator times the cofactor
    L / den(v), a product of base elements.
    """
    u, K = 1, {}
    gen0 = gen = _BASE.gen
    for v in values:
        if v._b != _PONE:
            uv, kv = _fac(v)
            if _BASE.gen != gen:
                K, gen = _BASE.translate(K), _BASE.gen
            u = int_lcm(u, uv)
            for i, k in kv.items():
                if k > K.get(i, 0):
                    K[i] = k
    if u == 1 and not K:
        return list(values), ONE
    cofactors: dict[frozenset, PolyDict] = {}
    mults = []
    for v in values:
        uv, kv = _fac(v)
        cof = frozenset((i, k - kv.get(i, 0)) for i, k in K.items() if k > kv.get(i, 0))
        p = cofactors.get(cof)
        if p is None:
            p = cofactors[cof] = _BASE.expand(dict(cof))
        a = _pmul(v._a, p) if cof else v._a
        mults.append(RatFuncQT(_pscale(a, u // uv), _PONE, 1, _NOEXP, _BASE.gen))
    return mults, RatFuncQT(_PONE, _pscale(_BASE.expand(K), u), u, K, gen0, 1)

def _content_split(b: PolyDict) -> tuple[int, PolyDict]:
    """(g, d) with b = g * d, g the integer content of b."""
    g = _content(b)
    return g, b if g == 1 else {e: v // g for e, v in b.items()}

def times_multiple(f: RatFuncQT, m: PolyDict) -> RatFuncQT:
    """f * m for an integer polynomial m that f's denominator divides: the
    product is a polynomial, found by one exact division."""
    a = f._a
    g, den = _content_split(f._b)
    if den == m:
        return RatFuncQT(a, {(0, 0): g})
    return _lowest_terms(_pmul(a, _pdiv_exact(m, den)), {(0, 0): g}, g, _NOEXP,
                         None, _BASE.gen)

def multiple_sum_equals(terms, m: PolyDict, factors) -> bool:
    """Whether the sum of f * w * m over the (f, w) terms equals the product
    of the integer polynomials in factors, for field elements f and
    integer polynomials w, where m is an integer polynomial that the
    primitive part of every f's denominator divides.

    With f = a / (g * d), g the integer content of f's denominator and d
    its primitive part, and L the lcm of the g, the identity is
    sum of (L / g) * a * w * (m / d) = L * prod(factors), decided by one
    evaluation (kronecker_vanishes): one exact division per distinct d on
    term dicts, and no gcd.  InexactDivisionError when a d does not divide
    m.
    """
    split = [(f._a, w, *_content_split(f._b)) for f, w in terms]
    L = int_lcm(*(g for _, _, g, _ in split))
    quotients: dict[frozenset, PolyDict] = {}
    products = []
    for a, w, g, d in split:
        key = frozenset(d.items())
        md = quotients.get(key)
        if md is None:
            md = quotients[key] = m if d == _PONE else _pdiv_exact(m, d)
        products.append((L // g, (a, w, md)))
    products.append((-L, factors))
    return kronecker_vanishes(products)

def kronecker_vanishes(products) -> bool:
    """Whether the sum of k * prod(factors) over the list of (k, factors)
    products is the zero polynomial, for integers k and integer
    polynomials with exponents >= 0.

    One evaluation at q = X^W, t = X with X = 2^B (Kronecker substitution):
    W exceeds every product's t-degree, so q^i t^j goes to its own slot
    W*i + j, and 2^(B-1) exceeds the sum of |k| * prod of the factors' L1
    norms, which bounds every coefficient of the sum.  A nonzero sum then
    has a top slot whose coefficient outweighs all lower slots together,
    so its value is nonzero: the verdict is exact.  Each distinct factor
    (by identity) is evaluated once.
    """
    top, bound = 0, 0
    for k, fs in products:
        deg, b = 0, abs(k)
        for f in fs:
            deg += max(f, key=_deg_t, default=(0, 0))[1]
            b *= sum(map(abs, f.values()))
        top = max(top, deg)
        bound += b
    B = bound.bit_length() + 1
    W = top + 1
    st, sq = B, B * W
    values: dict[int, int] = {}
    total = 0
    for k, fs in products:
        v = k
        for f in fs:
            x = values.get(id(f))
            if x is None:
                x = values[id(f)] = sum(c << (i * sq + j * st)
                                        for (i, j), c in f.items())
            v *= x
        total += v
    return total == 0

def poly_product(factors) -> PolyDict:
    """The product of integer polynomials (term dicts)."""
    out = _PONE
    for f in factors:
        out = _pmul(out, f)
    return out

def elementary_symmetric(values: list[RatFuncQT]) -> list[RatFuncQT]:
    """[e_0, e_1, ..., e_r] of the given field elements."""
    es = [ONE]
    for v in values:
        es.append(ZERO)
        for j in range(len(es) - 1, 0, -1):
            es[j] = es[j] + es[j - 1] * v
    return es
