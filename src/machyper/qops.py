"""q-difference operators on symmetric polynomials.

Everything here acts on SymPoly values in a fixed number of variables n.
An operator is a sum over variables (or subsets of variables) of a
rational prefactor times a q-shift, where the prefactors share the
Vandermonde determinant as denominator.  The literal assembly (_literal)
clears that denominator up front, works with raw (non-symmetric)
polynomial data, multiplies each piece by a cached alternant (_alternant)
and divides the sum by the Vandermonde factors at the end (_assemble).
Both the exactness of that division and the symmetry of the quotient are
verified; failure of either means a bug, so they raise rather than warn.

An operator is named by its kind:
- "lower": the degree-lowering operator, the sum over i of prefactor_i
  times the q-derivative in x_i.  Homogeneous of degree -1; on the
  principally normalized integral basis it acts as a sum over the lower
  covers of the indexing partition, weighted by the cover coefficients.
- "weight": the degree-preserving operator t^(1-n) * sum over i of
  x_i * prefactor_i * q-derivative_i, diagonal on the integral basis: its
  eigenvalue on the element indexed by lam is the sum of the (q,t) cell
  weights of lam (rho_stat).  Its unscaled image is t^(n-1) W.
- "raise": multiplication by e_1, scaled by 1/(1-q); its unscaled image is
  e_1 * f.
- the integer l: the level D_l of the symmetrized shift family, 1/V times
  a signed sum over the size-l variable subsets of a t-weighted alternant
  times the subset q-shift; the generating-function operator at u is
  sum_l u^l D_l.  D_0 is the identity and D_1 the first shift operator,
  triangular in the dominance order on the monomial basis.  A level
  l >= 2 symmetrizes over n! terms, so it is refused above
  MAX_FULL_SYMMETRIZE variables before any of its assembly is built.

Every operator here is linear, and its image of m_mu depends only on the
operator, n and mu.  So the literal assembly runs once per column: a
bounded, process-wide store (column, at most MAX_COLUMNS entries) keeps
the unscaled image of m_mu for each (kind, mu, n), and an operator
applies as sum over mu of g_mu * column_mu (_image).  The exactness and
symmetry checks run once per column, when it is built; a linear
combination on the m-basis is symmetric by construction.  A shift column
is also checked, when it is built, to be dominance-triangular with the
closed-form eigenvalue eigen_shift on its diagonal: the basis
construction (macdonald._build_P) reads the level-1 columns and relies on
both.

Every operator is linear over Q(q,t), and the operator layer passes its
values around as scaled images (Scaled): a pair (g, s) of a SymPoly g
whose coefficients are integer polynomials (denominator 1) and one
RatFuncQT scalar s, standing for s * g.  The pair format is known here
only; series and verify handle it through the functions of the scaled
image section.  An input is cleared once (to_scaled: g is f times the
lcm in Z[q,t] of its coefficient denominators, for a SymPoly or a
two-alphabet BiSymPoly alike); with integer-polynomial g_mu and columns,
every product and sum of a column application is an integer polynomial
operation without a gcd.  Each operator has one
function, on scaled images: apply_kind(kind, gs) for one kind (a shift
level above n is zero) and apply_shift_genfun for the generating-function
operator.  combine adds scaled images over the lcm of their scalars'
denominators, so its field work (one product per term and the lcm, read
off the factored denominators) runs on scalars, never on coefficients.

A fixed combination of kinds is a sum of words.  A word is a tuple of
kinds applied right to left, and a map word -> field coefficient is
compiled once (compile_words): each coefficient takes the scalar of every
kind in its word, and all are cleared over one common denominator, which
leaves integer-polynomial multipliers and one shared scalar.  The
compiled sum (Compiled) keeps its own columns on the monomial basis: the
column of mu is the multiplier-weighted sum of the word images of m_mu,
made from the stored columns of each kind the first time mu is met, so
it is the sum's matrix on m_mu with its parameters folded in.
apply_compiled is then one column sum, as apply_kind is, and one field
product with the input's scalar.  The columns live on the compiled sum
and go with it.  The iterated weight commutators are such sums:
ad_words(base, l) is the binomial expansion
ad^l(B) = sum_k (-1)^k C(l,k) W^(l-k) B W^k, and apply_ad_raise_upto and
apply_ad_lower_upto apply its levels as a list (apply_levels).  series
compiles its transfers from the same words.
support_degrees and alphabet_difference read where an image, or a
difference of two alphabets' images, is nonzero without dividing
anything.  A two-alphabet value is cleared once, as a whole: its slices
enter the operators as integer images at scalar one, so the two sides
differ only by the operators' own scalars, and by nothing where those
are equal.

Values leave at one boundary: on_values(op) turns a map of scaled
images into a map of values, with unscale as the one normalization.
The oracles' apply_literal(kind, f) takes a value, clears it and
multiplies the image by its scalar once, at the end.

apply_literal runs the literal assembly on its input and never reads the
store.  It is the route of the oracles, which must not share the store
with the operator they check, or the comparison would check the store
against itself: weight_from_shift1 (the weight operator read off the
first shift operator) here, and series.eigen_*_from_shifts and
series.eigen_value_*_brute (through macdonald.binomial_by_expansion).
apply_lower_alt (a literal division by x_i, on the input's own rational
coefficients) rebuilds the lowering operator along another route
altogether.  These oracles are used only by tests and checks.

Every operator here is written at q and t.  Its image at reciprocal q
and t is the conjugate f -> invert_coeffs(O(invert_coeffs(f))), since
q -> 1/q, t -> 1/t is a field automorphism that leaves the variables
alone; series builds the inverted transfers that way, so no operator
carries a flag.  The named oracles above are unchanged by this.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from . import stats
from .errors import InexactDivisionError, MacHyperError, ResourceGuardError
from .partitions import Partition, dominates
from .ratfunc import (ONE, Q, ZERO, RatFuncQT, T, elementary_symmetric,
                      over_common_denominator, qt_monomial, rf, t_integer)
from .sympoly import (MINUS_ONE, BiSymPoly, Raw, SymPoly, basis_poly,
                      raw_add_into, raw_div_binomial, raw_mul, raw_mul_var,
                      raw_qderiv_var, raw_shift_subset)

# subset symmetrization over S_n has n! * 2^n cost; past this it is a typo
MAX_FULL_SYMMETRIZE = 6

# the column store's bound; a column past it is evicted and rebuilt on use
MAX_COLUMNS = 4096


# ---------------------------------------------------------------------------
# alternants and the literal assembly

@lru_cache(maxsize=None)
def _alternant(n: int, subset: tuple[int, ...] = ()) -> "tuple":
    """prod_{j<k} (y_j - y_k) with y_j = t x_j on subset and y_j = x_j off
    it, as a frozen raw item list.

    The empty subset gives the Vandermonde.  A single variable i gives the
    Vandermonde times the i-th divided-difference prefactor
    prod_{j != i} (t x_i - x_j)/(x_i - x_j); a larger subset gives the
    t-weighted alternant of the shift family.
    """
    cur: Raw = {(0,) * n: ONE}
    # forms with integer coefficients first: the partial products stay cheap
    for j, k in sorted(combinations(range(n), 2),
                       key=lambda jk: jk[0] in subset or jk[1] in subset):
        ej = (0,) * j + (1,) + (0,) * (n - 1 - j)
        ek = (0,) * k + (1,) + (0,) * (n - 1 - k)
        cur = raw_mul(cur, {ej: T if j in subset else ONE,
                            ek: -T if k in subset else MINUS_ONE})
    return tuple(cur.items())


def divide_vandermonde(raw: Raw, n: int) -> Raw:
    """Exact division by the Vandermonde product; raises on a remainder."""
    cur = raw
    for j in range(n):
        for k in range(j + 1, n):
            if not cur:
                return {}
            cur = raw_div_binomial(cur, j, k)
    return cur


def _assemble(n: int, pieces) -> SymPoly:
    """(1/V) * sum of alternant(subset) * piece over the (subset, piece) pairs.

    With polynomial coefficients in every piece (the alternants have them
    too), every field operation here is gcd-free.
    """
    acc: Raw = {}
    for subset, piece in pieces:
        raw_add_into(acc, raw_mul(dict(_alternant(n, subset)), piece))
    return SymPoly.from_raw(divide_vandermonde(acc, n), n)


def _literal(kind, f: SymPoly) -> SymPoly:
    """The unscaled image of f under the operator kind (see the module
    docstring), by the literal assembly."""
    n = f.n_vars
    if kind == "raise":
        return f * basis_poly("m", (1,), n)
    fraw = f.to_raw()
    if kind == "lower":
        pieces = (((i,), raw_qderiv_var(fraw, i)) for i in range(n))
    elif kind == "weight":
        pieces = (((i,), raw_mul_var(raw_qderiv_var(fraw, i), i))
                  for i in range(n))
    else:
        if kind >= 2 and n > MAX_FULL_SYMMETRIZE:
            raise ResourceGuardError(
                f"shift family symmetrizes over all {n}! permutations; "
                f"n is limited to {MAX_FULL_SYMMETRIZE}")
        pieces = ((subset, raw_shift_subset(fraw, subset))
                  for subset in combinations(range(n), kind))
    return _assemble(n, pieces)


def _scalar(kind, n: int) -> RatFuncQT:
    """The operator kind is this scalar times its unscaled image."""
    if kind == "weight":
        return T ** (1 - n)
    if kind == "raise":
        return (ONE - Q).inverse()
    return ONE


# ---------------------------------------------------------------------------
# the column store and the one application route

@lru_cache(maxsize=MAX_COLUMNS)
def column(kind, mu: Partition, n: int) -> SymPoly:
    """The unscaled image of m_mu under the operator kind, built once by
    the literal assembly and kept.

    A shift-family column D_l(m_mu) must have only dominance-lower terms
    and the eigenvalue eigen_shift(l, mu, n) at mu; MacHyperError if not.
    Each build is counted in stats as operator_columns_built.
    """
    stats.COUNTS["operator_columns_built"] += 1
    col = _literal(kind, basis_poly("m", mu, n))
    if not isinstance(kind, str):
        if not all(dominates(mu, nu) for nu in col.coeffs):
            raise MacHyperError(f"shift operator D_{kind} not triangular at {mu}")
        if col.coeffs.get(mu) != eigen_shift(kind, mu, n):
            raise MacHyperError(
                f"shift operator D_{kind} diagonal is wrong at {mu}")
    return col


stats.LEVELS["operator_columns_held"] = lambda: column.cache_info().currsize


def _column_sum(col, g: SymPoly) -> SymPoly:
    """The sum over mu of g_mu * col(mu), for a map col from partitions
    to columns."""
    acc: dict = {}
    for mu, c in g.coeffs.items():
        img = col(mu).coeffs
        raw_add_into(acc, img if c.is_one()
                     else {nu: c * v for nu, v in img.items()})
    return SymPoly(g.n_vars, acc)


def _image(kind, g: SymPoly) -> SymPoly:
    """The unscaled image of g under kind: the sum over mu of
    g_mu * column(kind, mu, n)."""
    n = g.n_vars
    return _column_sum(lambda mu: column(kind, mu, n), g)


def apply_kind(kind, gs: Scaled) -> Scaled:
    """The operator kind at the scaled image gs = (g, s), as a sum of
    stored columns.  A shift level shares the input's scalar, and a level
    above n is zero."""
    g, s = gs
    n = g.n_vars
    if isinstance(kind, str):
        return _image(kind, g), _scalar(kind, n) * s
    return (_image(kind, g) if kind <= n else SymPoly.zero(n)), s


# ---------------------------------------------------------------------------
# scaled images: (g, s) with integer-polynomial coefficients in g, worth s * g

Scaled = tuple[SymPoly, RatFuncQT]


def to_scaled(f: SymPoly | BiSymPoly
              ) -> tuple[SymPoly | BiSymPoly, RatFuncQT]:
    """f as a scaled image (den * f, 1/den), with den the lcm in Z[q,t] of
    the coefficient denominators: one clearing for a SymPoly or a
    BiSymPoly, whose image has f's type."""
    vals, s = over_common_denominator(list(f.coeffs.values()))
    return type(f)(f.n_vars, dict(zip(f.coeffs, vals))), s


def unscale(gs: Scaled) -> SymPoly:
    """The value s * g of a scaled image: one reduced field product per
    coefficient."""
    g, s = gs
    return g.scale_rf(s)


def on_values(op):
    """A map of scaled images as a map of SymPoly values."""
    return lambda f: unscale(op(to_scaled(f)))


def combine(n: int, terms) -> Scaled:
    """sum of c * s * g over the (c, (g, s)) terms, as one scaled image.

    Each scalar c * s is one field product; the images are then added
    over the lcm of those scalars' denominators, with integer polynomial
    multiples, so no coefficient runs a gcd.
    """
    scals, imgs = [], []
    for c, (g, s) in terms:
        if g.coeffs and not c.is_zero():
            scals.append(c * s)
            imgs.append(g)
    mults, s = over_common_denominator(scals)
    acc: dict = {}
    for m, g in zip(mults, imgs):
        raw_add_into(acc, g.coeffs if m.is_one()
                     else {k: v * m for k, v in g.coeffs.items()})
    return SymPoly(n, acc), s


def support_degrees(gs: Scaled) -> list[int]:
    """The degrees at which the value of gs is nonzero, read off its
    integer image."""
    return gs[0].degrees()


def alphabet_difference(Gs: tuple[BiSymPoly, RatFuncQT], x_op,
                        y_op) -> BiSymPoly:
    """x_op(F) - y_op(F) up to a nonzero factor on each coefficient, for
    the two-alphabet value F of the scaled image Gs = (G, s) (a BiSymPoly
    G with integer-polynomial coefficients) and maps x_op, y_op of scaled
    images applied to the x and to the y alphabet of F.

    F is cleared once, so its scalar s is common to both sides and drops
    out: each slice of G (the x-polynomial at one y-partition, and the
    y-polynomial at one x-partition) goes to its operator at scalar ONE.
    With s_X = alpha/beta for the x-image's scalar and s_Y = gamma/delta
    for the y-image's, the operators' own scalars, the coefficient at
    (lx, ly) is alpha * delta * X - gamma * beta * Y: integer polynomials
    only, zero exactly where X - Y is.  Where the two scalars are equal,
    as for one shift level on both alphabets, it is X - Y.  The result
    has the support of the difference, not its values.
    """
    G = Gs[0]
    unit = (ONE, ONE)
    xs = {}
    for ly, sl in G.x_slices().items():
        g, s = x_op((sl, ONE))
        xs[ly] = (g.coeffs, s.parts())
    ys = {}
    for lx, sl in G.swap().x_slices().items():
        g, s = y_op((sl, ONE))
        ys[lx] = (g.coeffs, s.parts())
    keys = {(lx, ly) for ly, (gx, _) in xs.items() for lx in gx}
    keys.update((lx, ly) for lx, (gy, _) in ys.items() for ly in gy)
    out = {}
    for lx, ly in keys:
        gx, (alpha, beta) = xs.get(ly, ({}, unit))
        gy, (gamma, delta) = ys.get(lx, ({}, unit))
        d = (alpha * delta * gx.get(lx, ZERO)
             - gamma * beta * gy.get(ly, ZERO))
        if not d.is_zero():
            out[(lx, ly)] = d
    return BiSymPoly(G.n_vars, out)


# ---------------------------------------------------------------------------
# the oracle routes: the literal assembly and the alternative lowering operator

def apply_literal(kind, f: SymPoly) -> SymPoly:
    """The operator kind at the value f by the literal assembly, never
    through the column store: the route of the oracles."""
    g, s = to_scaled(f)
    return _literal(kind, g).scale_rf(_scalar(kind, f.n_vars) * s)


def apply_lower_alt(f: SymPoly) -> SymPoly:
    """Alternative assembly of the lowering operator, kept as an
    independent oracle.

    Writes the operator as 1/(q-1) * sum_i (prefactor_i * shift_i - 1)/x_i;
    each numerator is divisible by x_i because the prefactor evaluates to 1
    at x_i = 0.  Runs on the input's own coefficients, without clearing.
    """
    n = f.n_vars
    fraw = f.to_raw()
    minus_vf = {e: -c for e, c in raw_mul(dict(_alternant(n)), fraw).items()}
    acc: Raw = {}
    for i in range(n):
        pre = dict(_alternant(n, (i,)))
        num = raw_mul(pre, raw_shift_subset(fraw, (i,)))
        raw_add_into(num, minus_vf)
        # strip one power of x_i from every term; exactness is the point
        stripped: Raw = {}
        for e, c in num.items():
            if e[i] == 0:
                raise InexactDivisionError(
                    "lowering-operator numerator not divisible by x_%d" % (i + 1))
            stripped[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        raw_add_into(acc, stripped)
    out = divide_vandermonde(acc, n)
    return SymPoly.from_raw(out, n).scale_rf((Q - ONE).inverse())


# ---------------------------------------------------------------------------
# the symmetrized shift family (generating-function operator in u)

def apply_shift_genfun(gs: Scaled, uval: RatFuncQT) -> Scaled:
    """The generating-function shift operator sum_l uval^l D_l at a
    concrete parameter value."""
    n = gs[0].n_vars
    return combine(n, ((uval ** l, apply_kind(l, gs)) for l in range(n + 1)))


# ---------------------------------------------------------------------------
# sums of operator words

# A word is a tuple of kinds, applied right to left: ("weight", "lower")
# is the weight operator after the lowering operator, and () the identity.

class Compiled:
    """A compiled word sum in n variables: the words with their
    integer-polynomial multipliers, the one scalar they share, and its
    columns on the monomial basis made so far.

    The column of mu is the unscaled image of m_mu, the multiplier-weighted
    sum of the word images of m_mu, made on first use from the stored
    columns of each kind and kept here, so it lives and goes with the
    compiled sum."""

    __slots__ = ("n", "words", "scalar", "columns")

    def __init__(self, n: int, words: tuple, scalar: RatFuncQT):
        self.n = n
        self.words = words
        self.scalar = scalar
        self.columns: dict[Partition, SymPoly] = {}

    def column(self, mu: Partition) -> SymPoly:
        """The image of m_mu, made once; counted in stats as built or
        reused."""
        col = self.columns.get(mu)
        if col is not None:
            stats.COUNTS["transfer_columns_reused"] += 1
            return col
        stats.COUNTS["transfer_columns_built"] += 1
        # the image of each word suffix at m_mu, innermost kind first
        images = {(): SymPoly(self.n, {mu: ONE})}
        acc: dict = {}
        for word, m in self.words:
            for i in range(len(word) - 1, -1, -1):
                if word[i:] not in images:
                    images[word[i:]] = _image(word[i], images[word[i + 1:]])
            img = images[word].coeffs
            raw_add_into(acc, img if m.is_one()
                         else {nu: v * m for nu, v in img.items()})
        col = self.columns[mu] = SymPoly(self.n, acc)
        return col


def compile_words(n: int, terms: dict) -> Compiled:
    """The operator sum over the words of terms (a map word -> field
    coefficient) in n variables, compiled: each coefficient takes the
    scalar of every kind in its word, a word with a shift level above n
    (a zero operator) is dropped, and the coefficients are cleared over
    their common denominator."""
    words, coefs = [], []
    for word, c in terms.items():
        if c.is_zero() or any(not isinstance(k, str) and k > n for k in word):
            continue
        for k in word:
            c = c * _scalar(k, n)
        words.append(word)
        coefs.append(c)
    mults, s = over_common_denominator(coefs)
    return Compiled(n, tuple(zip(words, mults)), s)


def apply_compiled(op: Compiled, gs: Scaled) -> Scaled:
    """The compiled word sum op at the scaled image gs = (g, s): the sum
    over mu of g_mu * op.column(mu), and one field product."""
    g, s = gs
    return _column_sum(op.column, g), op.scalar * s


def apply_levels(families, gs: Scaled) -> list[Scaled]:
    """Each word sum of families (maps word -> field coefficient) at gs."""
    n = gs[0].n_vars
    return [apply_compiled(compile_words(n, terms), gs) for terms in families]


# ---------------------------------------------------------------------------
# iterated commutators

@lru_cache(maxsize=16)
def ad_words(base: str, l: int) -> dict:
    """ad^l(B) as words, for B the operator of kind base and
    ad = [sign * W, .] with W the weight operator, sign = 1 around "raise"
    and -1 around "lower": the binomial expansion
    sum_k (-1)^k C(l,k) sign^l W^(l-k) B W^k.  The words hold no
    parameter and no n."""
    sign = -1 if base == "lower" and l % 2 else 1
    return {("weight",) * (l - k) + (base,) + ("weight",) * k:
            rf(sign * (-1) ** k * comb(l, k)) for k in range(l + 1)}


def apply_ad_raise_upto(r: int, gs: Scaled) -> list[Scaled]:
    """[ad^0, ..., ad^r] of the weight operator around the raising
    operator, at gs: ad^0 is "raise" and ad^l(B) = [weight, ad^(l-1)(B)]."""
    return apply_levels([ad_words("raise", l) for l in range(r + 1)], gs)


def apply_ad_lower_upto(r: int, gs: Scaled) -> list[Scaled]:
    """[ad^0, ..., ad^r] of the negated weight operator around the lowering
    operator, at gs; ad^l of -W is (-1)^l times ad^l of W."""
    return apply_levels([ad_words("lower", l) for l in range(r + 1)], gs)


# ---------------------------------------------------------------------------
# spectra

def spectral_values(lam: Partition, n: int) -> list[RatFuncQT]:
    """The point q^(lam_i) t^(n-i), i = 1..n, that diagonalizes the family."""
    vals = []
    for i in range(1, n + 1):
        p = lam[i - 1] if i <= len(lam) else 0
        vals.append(qt_monomial(p, n - i))
    return vals


def eigen_shift(l: int, lam: Partition, n: int) -> RatFuncQT:
    """Eigenvalue of the l-th shift operator on the basis element for lam."""
    return elementary_symmetric(spectral_values(lam, n))[l]


def weight_from_shift1(f: SymPoly) -> SymPoly:
    """The weight operator assembled from the first shift operator.

    -(shift1 - [n]_t) / ((1-q) t^(n-1)), with shift1 by the literal
    assembly; independent route used in tests.
    """
    n = f.n_vars
    g = apply_literal(1, f) - f.scale_rf(t_integer(n))
    scal = ((ONE - Q) * T ** (n - 1)).inverse()
    return g.scale_rf(-scal)
