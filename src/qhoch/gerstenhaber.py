"""Cup product, circle product, and Gerstenhaber bracket on cochains, each
in two independent implementations: a closed-form coefficient formula and a
chain-level pipeline through the diagonal (and, for the circle product, the
contraction).

Conventions.  circ(outer, inner) evaluates the composition in which the
inner cochain is applied to the middle tensor leg; the result's group part
is (outer group) * (inner group).  When the inner cochain's value crosses
the remaining right-hand generator leg e_{rho2}, its group element g acts
on that leg through its characters, the factors chi_factors(g, rho2) in
both implementations, and g ends up right of the outer cochain's value.
This is what makes the middle insertion well defined over the skew group
algebra: without it the bracket of two invariant cocycles is no longer
invariant
(tests/test_gerstenhaber.py::test_bracket_of_invariant_cocycles_is_invariant_cocycle).

The oracles memoize per algebra, with `cached`, the part of their walk
that does not depend on the outer cochain: `_cup_legs` holds the
diagonal's leg pairs per degree pair (m, l), and `_contractions` holds the
doubly split and contracted generators per inner basis symbol and outer
degree, indexed by the kappa the outer cochain is applied to, with the
inner split's coefficient read from `_cup_legs`.  The oracles multiply
basis monomials of the skew group algebra by its one skew rule,
`Algebra.skew_mono`, so each term pair of `cup_oracle` on a leg pair, and
each contraction hit of `circ_oracle`, adds one unit or nothing.  The
tables and the oracles are built from `diagonal`, `phi_generator`,
`Algebra.skew_mono` and `Algebra.unit_product` alone, never from the
closed forms, so the oracles stay independent of `cup` and `circ`.  Every
unit coefficient, in the closed forms and in the oracles alike, is summed
once by `Algebra.unit_key` from its list of factors (key, exponent): the
keys of q, -q and the characters with their exponents, and, with
exponent 1, the keys of any units it is a product of: the diagonal
coefficient of `_cup_legs`, the contraction coefficient of
`_contractions`, and the coefficients of a term pair when both are Units
(otherwise the pair's product is formed once and multiplies the unit).
`circ` sums the unit of only the first splitting of each run, with two
cached keys, the outer term's part (`_circ_outer`) and the inner term's
part, linear in kappa (`_circ_inner`, read off one product of per-index
factors); a run of one splitting is that unit, and a longer one,
first * (1 + v + ... + v^{kappa_r - 1}) for the step v of `_circ_inner`,
is read from `_run_table` per (first key, step, kappa_r), whose terms are
counted by key and summed as integers by `Universe.unit_sum`.  Each unit
is taken from the universe's table of units at its summed key, and a
product of two units is the table's unit at the sum of their keys (see
`qhoch.scalars`), so each unit value is built once per universe.  The
factors of `Algebra.mono_mul`, `Algebra.chi_factors` and
`Algebra.skew_mono` are tuples cached per argument, read as they are.
Each of the four products hands the map it accumulated to
`Cochain.from_accumulated`, without the constructor's checks: `accumulate`
stores no zero, and every key it was given has the result's degree.

The closed forms share with the oracles the algebra's characters, unit
builders and exponent tables, and `circ` also its product `Algebra.mono_mul`,
which reorders the outer value (the oracles reach it through `skew_mono`).
`cup` keeps its own reordering formula, so `cup` against `cup_oracle`, and
the bar check, are the independent checks of `mono_mul`.  What belongs to
the circle product alone (which splitting survives, the diagonal and
contraction coefficients, the Koszul sign and the run) is a closed form
checked against `circ_oracle`'s literal walk.

`PairProducts`, the one product table of the `cup` and `bracket` tables
of `qhoch.cli` and of `axiom_suite`, holds cup products and brackets but
no circle products: a bracket entry is `bracket` of its pair, or its
reverse read by antisymmetry, so [b, a] = +-[a, b] holds by construction
and the suite does not check it.
A product of a product, [f, c_k], f ^ c_k or c_k ^ f for a computed cochain
f, is added into a caller's map by linearity in f from the products of
each basis cochain e_t with the listed c_k, which the table holds per
(product, t, k).  `axiom_suite` decides each identity once and sums each
Jacobi and derivation identity that way into one map, building no cochain
per term; `bracket` likewise adds its second circle product into the first
one's fresh map.
"""

from __future__ import annotations

from bisect import bisect_right

from .algebra import cached
from .cohomology import collect_classes, is_cocycle
from .linalg import accumulate
from .resolution import (Cochain, add_index, bump, compositions,
                         diagonal, full_basis, phi_generator, sub_index)
from .scalars import Unit


# ---------------------------------------------------------------------------
# cup product
# ---------------------------------------------------------------------------

def _pair_keys(c1, c2):
    """How a product folds the coefficients c1, c2 of a term pair into its
    unit: (their keys as factors, None) for `Algebra.unit_key`'s sum when
    both are Units, else ((), c1 * c2), the one product that multiplies
    the unit."""
    if type(c1) is Unit and type(c2) is Unit:
        return ((c1.key, 1), (c2.key, 1)), None
    return (), c1 * c2


def cup(A, f1, f2):
    """Closed-form cup product, extended bilinearly.  Each coefficient is
    one `Algebra.unit_product`, with the term pair's coefficients folded
    in by `_pair_keys`."""
    out = {}
    q_exp = A.q_exp
    for (alpha, beta, g), c1 in f1.terms.items():
        for (gamma, kappa, h), c2 in f2.terms.items():
            if any(a and b for a, b in zip(alpha, gamma)):
                continue
            pair, base = _pair_keys(c1, c2)
            factors = [*A.chi_factors(g, gamma), *pair]
            sign = 0
            for l in range(A.n):
                for k in range(l):
                    e = kappa[k] * beta[l] - gamma[k] * alpha[l]
                    if e:
                        factors.append((q_exp[k][l], e))
                    sign += gamma[k] * alpha[l]
            key = (add_index(alpha, gamma), add_index(beta, kappa),
                   A.group.mult[g][h])
            coeff = A.unit_product(factors, sign)
            accumulate(out, key, coeff if base is None else base * coeff)
    return Cochain.from_accumulated(A, f1.degree + f2.degree, out)


@cached
def _cup_legs(A, m, l):
    """Leg pairs of the diagonal in total degree m + l:
    {(b1, b2): (rho, factor)} over every splitting of every e_rho of
    degree m + l with |b1| = m, where factor is (key, 1) for the key of
    the diagonal coefficient.  Each leg pair splits exactly one generator,
    rho = b1 + b2."""
    legs = {}
    for rho in compositions(A.n, m + l):
        for b1, b2, u in diagonal(A, rho):
            if sum(b1) == m:
                legs[(b1, b2)] = (rho, (u.key, 1))
    return legs


def cup_oracle(A, f1, f2):
    """Cup product evaluated as multiply-after-diagonal: on e_rho, the
    term of f1 on the left leg e_b1 times the term of f2 on the right leg
    e_b2, summed over the splittings (b1, b2) of rho with their diagonal
    coefficients u.  Each term pair on a leg pair is one monomial product,
    (x^alpha (x) g)(x^gamma (x) h), by `Algebra.skew_mono`: one unit, or
    zero, whose `Algebra.unit_product` also sums the key of u, with c1 and
    c2 folded in by `_pair_keys`.  Independent of the closed form."""
    legs = _cup_legs(A, f1.degree, f2.degree)
    mult = A.group.mult
    out = {}
    for (alpha, b1, g), c1 in f1.terms.items():
        for (gamma, b2, h), c2 in f2.terms.items():
            leg = legs.get((b1, b2))
            if leg is None:
                continue
            hit = A.skew_mono(alpha, g, gamma)
            if hit is None:
                continue
            rho, u_factor = leg
            factors, mono = hit
            pair, base = _pair_keys(c1, c2)
            coeff = A.unit_product(factors + (u_factor,) + pair)
            accumulate(out, (mono, rho, mult[g][h]),
                       coeff if base is None else base * coeff)
    return Cochain.from_accumulated(A, f1.degree + f2.degree, out)


# ---------------------------------------------------------------------------
# circle product
# ---------------------------------------------------------------------------

@cached
def _contractions(A, symbol, m):
    """The part of the circle-product pipeline that does not depend on the
    outer cochain, for the inner basis symbol (alpha, beta, g), a tuple,
    and outer degree m: split every generator e_rho of degree
    m + |beta| - 1 by the diagonal and the left leg again so that e_beta
    is the middle leg, apply x^alpha (x) g there with the Koszul sign, move
    g across the right leg e_rho2 and contract.  Returns
    {kappa: [(rho, a, b, factor)]}: the contraction's term x^a e_kappa x^b,
    for the outer cochain to be applied to, with its full coefficient as
    the factor (key, 1) of `Algebra.unit_key`."""
    alpha, beta, g = symbol
    l = sum(beta)
    table = {}
    for rho in compositions(A.n, m + l - 1):
        for rho1, rho2, u_outer in diagonal(A, rho):
            nu = sub_index(rho1, beta)
            if any(x < 0 for x in nu):
                continue
            # the coefficient of e_nu (x) e_beta in the diagonal of e_rho1,
            # the Koszul sign, and the character of g on e_rho2
            inner = _cup_legs(A, sum(nu), l)[(nu, beta)][1]
            coeff = A.unit_product(
                A.chi_factors(g, rho2) + ((u_outer.key, 1), inner),
                l * sum(nu))
            contracted = phi_generator(A, nu, alpha, rho2)
            for (a, kappa, b), pc in contracted.terms.items():
                table.setdefault(kappa, []).append(
                    (rho, a, b, ((coeff * pc).key, 1)))
    return table


def circ_oracle(A, outer, inner):
    """Circle product as the literal pipeline: split a generator twice by
    the diagonal, apply the inner cochain to the middle leg with the Koszul
    sign, move its group part across the right leg, contract (all four in
    `_contractions`, once per inner basis symbol), then multiply the outer
    cochain's value in between x^a (x) 1 and x^b (x) g.  That value,
    x^a (x^gamma (x) h)(x^b (x) g), is two monomial products by
    `Algebra.skew_mono`, so each hit adds one unit, or nothing: one
    `Algebra.unit_product` of their factors and the contraction's, with
    the term pair's coefficients folded in by `_pair_keys`."""
    m, l = outer.degree, inner.degree
    if m + l - 1 < 0:
        return Cochain(A, 0)
    mult = A.group.mult
    out = {}
    for (alpha, beta, g), c_in in inner.terms.items():
        table = _contractions(A, (alpha, beta, g), m)
        for (gamma, kappa, h), c_out in outer.terms.items():
            hits = table.get(kappa)
            if not hits:
                continue
            pair, base = _pair_keys(c_out, c_in)
            gout = mult[h][g]
            for rho, a, b, factor in hits:
                left = A.skew_mono(a, 0, gamma)
                if left is None:
                    continue
                factors, mid = left
                right = A.skew_mono(mid, h, b)
                if right is None:
                    continue
                more, mono = right
                coeff = A.unit_product(factors + more + (factor,) + pair)
                accumulate(out, (mono, rho, gout),
                           coeff if base is None else base * coeff)
    return Cochain.from_accumulated(A, m + l - 1, out)


@cached
def _run_table(A, first, step, count):
    """The Scalar sum of the run first * v^p, p < count, for the first
    unit and the step v given by their keys: the key of each term is
    `Algebra.unit_key` of the two, and the terms are counted by key and
    summed once by `Universe.unit_sum`."""
    counts = {}
    for p in range(count):
        key = A.unit_key(((first, 1), (step, p)))
        counts[key] = counts.get(key, 0) + 1
    return A.uni.unit_sum(counts)


@cached
def _circ_outer(A, alpha, r, gamma, h):
    """The part of the first unit of `circ` at slot r that the outer term
    (gamma, kappa, h) brings, whatever its kappa: the outer value
    x^gamma (x) h reordered between the contraction's monomials `above`
    and `below` (alpha above and below r) by `Algebra.mono_mul`, and the
    character of h on `below`.  Returns (key, monomial), or () when a slot
    repeats and the term is zero."""
    n = A.n
    above = (0,) * (r + 1) + alpha[r + 1:]
    below = alpha[:r] + (0,) * (n - r)
    left = A.mono_mul(above, gamma)
    if left is None:
        return ()
    factors, mid = left
    right = A.mono_mul(mid, below)
    if right is None:
        return ()
    more, mono = right
    return A.unit_key(factors + more + A.chi_factors(h, below)), mono


@cached
def _circ_inner(A, alpha, beta, g):
    """The parts of the units of `circ` that the inner term (alpha, beta, g)
    brings, one per slot r with alpha_r = 1.  The splitting nu_r = p,
    0 <= p < kappa_r, of a run leaves the left remainder nu = kappa below r
    plus p e_r and the right leg rho2 = (kappa_r - 1 - p) e_r plus kappa
    above r.  Its part (both diagonal coefficients, chi_g on e_{rho2}, the
    contraction coefficient and the Koszul sign) is, with l = |beta|,
    C prod_{i <= r} U_i^{nu_i} prod_{i >= r} D_i^{rho2_i}, where
      U_i = (-1)^{l+1} prod_{k<i} q_{ki}^{beta_k}
            prod_{s>r, alpha_s=1} (-q_{is})  for i <= r,
      D_i = chi_{g,i} prod_{s>i} q_{is}^{beta_s}
            prod_{k<r, alpha_k=1} (-q_{ki})  for i >= r,
      C = prod (-q_{ks}) over k < s, alpha_k = alpha_s = 1, k <= r <= s.
    A step of a run moves one e_r from the right leg to the left remainder:
    it is U_r / D_r.  Returns a tuple of (r, K0, V, step, beta - e_r): the
    keys K0 = C / D_r, the pairs (V_i, i), V_i = U_i (i < r) or D_i
    (i >= r), whose kappa_i-th powers make up the rest of the first unit
    (identity keys left out), the step, and the index the outer kappa is
    added to for the result's generator."""
    n = A.n
    q_exp, nq_exp, chi = A.q_exp, A.nq_exp, A.chi_exp[g]
    unit_key = A.unit_key
    one = A.uni.one.key
    l = sum(beta)
    ones = [s for s in range(n) if alpha[s]]
    slots = []
    for j, r in enumerate(ones):
        below, above = ones[:j], ones[j + 1:]
        # U_i's factors and D_i's keys by loops, cheaper than comprehensions
        up, down = [], []
        for i in range(r + 1):
            u = []
            for k in range(i):
                if beta[k]:
                    u.append((q_exp[k][i], beta[k]))
            for s in above:
                u.append((nq_exp[i][s], 1))
            up.append(u)
        for i in range(r, n):
            d = [(chi[i], 1)]
            for s in range(i + 1, n):
                if beta[s]:
                    d.append((q_exp[i][s], beta[s]))
            for k in below:
                d.append((nq_exp[k][i], 1))
            down.append(unit_key(d))
        c = [(nq_exp[k][s], 1)
             for k in ones[:j + 1] for s in ones[j:] if k < s]
        d_r = (down[0], -1)
        V = [unit_key(u, l + 1) for u in up[:r]] + down
        slots.append((r, unit_key(c + [d_r]),
                      tuple([(v, i) for i, v in enumerate(V) if v != one]),
                      unit_key(up[r] + [d_r], l + 1), bump(beta, r, -1)))
    return tuple(slots)


def circ(A, outer, inner):
    """Closed-form circle product, one coefficient per (outer term
    (gamma, kappa, h), inner term (alpha, beta, g), slot r with alpha_r = 1
    and kappa_r > 0), stated in these inputs.

    Only the splittings of e_rho, rho = kappa + beta - e_r, that leave
    e_beta as the middle leg survive; as rho - beta = kappa - e_r, there are
    kappa_r of them, all on one symbol, one per nu_r = p, 0 <= p < kappa_r.
    The unit of the first, p = 0, is one `Algebra.unit_key` sum of two
    cached keys: the outer part `_circ_outer` per (alpha, r, gamma, h),
    which reorders the outer value with `Algebra.mono_mul`, and the inner
    part, linear in kappa, which `_circ_inner` holds per (alpha, beta, g)
    for each slot r, with the term pair's coefficients folded in by
    `_pair_keys` at the pair's first active slot.  The unit of splitting p
    is the first times v^p for the step v of `_circ_inner`, so the
    coefficient is the universe's unit at the key when kappa_r = 1, and
    else the run's sum `_run_table` per (first key, step, kappa_r)."""
    m, l = outer.degree, inner.degree
    if m + l - 1 < 0:
        return Cochain(A, 0)
    out = {}
    mult = A.group.mult
    from_key = A.uni.from_key
    inner_slots = [(alpha, beta, g, c_in, _circ_inner(A, alpha, beta, g))
                   for (alpha, beta, g), c_in in inner.terms.items()]
    for (gamma, kappa, h), c_out in outer.terms.items():
        for alpha, beta, g, c_in, slots in inner_slots:
            pair = base = None
            for r, inner_key, steps, step, beta_below in slots:
                count = kappa[r]
                if not count:
                    continue
                hit = _circ_outer(A, alpha, r, gamma, h)
                if not hit:
                    continue
                outer_key, mono = hit
                if pair is None:
                    gout = mult[h][g]
                    pair, base = _pair_keys(c_out, c_in)
                factors = [(v, kappa[i]) for v, i in steps]
                factors += ((outer_key, 1), (inner_key, 1)) + pair
                first = A.unit_key(factors)
                coeff = (from_key(first) if count == 1
                         else _run_table(A, first, step, count))
                if base is not None:
                    coeff = base * coeff
                # rho = kappa + beta - e_r
                accumulate(out, (mono, add_index(kappa, beta_below), gout),
                           coeff)
    return Cochain.from_accumulated(A, m + l - 1, out)


def _parity(m, l):
    """(m - 1)(l - 1) mod 2, the sign parity of brackets of degrees m, l."""
    return (m - 1) * (l - 1) % 2


def _signed_sum(first, second, m, l):
    """[f1, f2] = f1 o f2 - (-1)^{(m-1)(l-1)} f2 o f1 for an m-cochain f1
    and an l-cochain f2: second = f2 o f1 is added into the fresh map of
    first = f1 o f2, which it may be (a self-bracket); when either is zero,
    the other is the bracket, negated if need be."""
    negate = not _parity(m, l)
    if not second.terms:
        return first
    if not first.terms:
        return -second if negate else second
    for key, c in list(second.terms.items()):
        accumulate(first.terms, key, -c if negate else c)
    return first


def _reversed(br, m, l):
    """[f2, f1] from br = [f1, f2] for an m-cochain f1 and an l-cochain f2:
    graded antisymmetry [f2, f1] = -(-1)^{(m-1)(l-1)} [f1, f2] holds exactly
    at chain level, by the sign rule of `_signed_sum`."""
    return br if _parity(m, l) else -br


def bracket(A, f1, f2):
    """Graded bracket [f1, f2], the `_signed_sum` of the two closed-form
    circle products; a self-bracket forms its one circle product once."""
    first = circ(A, f1, f2)
    second = first if f2 is f1 else circ(A, f2, f1)
    return _signed_sum(first, second, f1.degree, f2.degree)


def bracket_oracle(A, f1, f2):
    """[f1, f2], the `_signed_sum` of two `circ_oracle` products."""
    return _signed_sum(circ_oracle(A, f1, f2), circ_oracle(A, f2, f1),
                       f1.degree, f2.degree)


def product_check(A, top):
    """Check cup == cup_oracle and circ == circ_oracle on every ordered pair
    of basis cochains of total degree <= top.  Returns None, or the first
    failure as ("cup" or "circle", key1, key2)."""
    basis = {m: [(k, Cochain.basis(A, *k)) for k in full_basis(A, m)]
             for m in range(top + 1)}
    for m in range(top + 1):
        for l in range(top + 1 - m):
            for k1, c1 in basis[m]:
                for k2, c2 in basis[l]:
                    if cup(A, c1, c2) != cup_oracle(A, c1, c2):
                        return ("cup", k1, k2)
                    if circ(A, c1, c2) != circ_oracle(A, c1, c2):
                        return ("circle", k1, k2)
    return None


# ---------------------------------------------------------------------------
# product tables and the axiom suite
# ---------------------------------------------------------------------------

class PairProducts:
    """Pairwise products over one list of cochains c_0, c_1, ..., filled
    lazily: the cup product and the bracket of each ordered pair are
    computed at most once.  A bracket entry is `bracket` of its pair, or,
    when the reversed pair is already held, `_reversed` of that entry by
    graded antisymmetry.

    A product P(f, c_k) of a computed cochain f with a listed c_k, for a
    bilinear P such as `bracket`, `cup` or `_cup_swapped`, is read by
    linearity in f: `add` adds +-P(f, c_k) into a caller's map, term by
    term of f, from P(e_t, c_k) for each basis cochain e_t, held per
    (P, t, k) and filled by calling P."""

    def __init__(self, A, cochains):
        self.A = A
        self.cochains = cochains
        self._cup = {}
        self._bracket = {}
        self._basis = {}

    def cup(self, i, j):
        hit = self._cup.get((i, j))
        if hit is None:
            hit = self._cup[(i, j)] = cup(self.A, self.cochains[i],
                                          self.cochains[j])
        return hit

    def bracket(self, i, j):
        hit = self._bracket.get((i, j))
        if hit is None:
            a, b = self.cochains[i], self.cochains[j]
            rev = self._bracket.get((j, i))
            hit = self._bracket[(i, j)] = (
                bracket(self.A, a, b) if rev is None
                else _reversed(rev, b.degree, a.degree))
        return hit

    def add(self, out, product, f, k, negate=False):
        """out += product(A, f, c_k), or -= with negate: the sum over the
        terms f_t e_t of f of f_t product(A, e_t, c_k)."""
        A = self.A
        ck = self.cochains[k]
        for t, coeff in f.terms.items():
            terms = self._basis.get((product, t, k))
            if terms is None:
                terms = self._basis[(product, t, k)] = product(
                    A, Cochain.basis(A, *t), ck).terms
            if negate:
                coeff = -coeff
            for key, c in terms.items():
                accumulate(out, key, coeff * c)


def _cup_swapped(A, f1, f2):
    """f2 ^ f1, the cup product with its factors swapped, for
    `PairProducts.add` of c_k ^ f."""
    return cup(A, f2, f1)


def axiom_suite(A, max_degree):
    """Check the graded-algebra axioms on the invariant classes up to the
    given degree; every identity is asserted up to coboundary.  Returns a
    list of human-readable failure descriptions (empty = pass).

    Each identity is decided once: graded commutativity (with its two cups
    of cocycles) and "the bracket of cocycles is a cocycle" per unordered
    pair a <= b, as the identity of (b, a) is +-1 times that of (a, b); the
    Jacobi identity per cyclic rotation class, at its least rotation, as
    the three rotations permute the jacobiator's signed terms under one
    degree bound; the derivation rule per ordered triple.  The bracket's
    degree |a| + |b| - 1 and its antisymmetry [b, a] = +-[a, b] hold by
    construction and are not checked: `Cochain.from_accumulated` assigns
    that degree, and `PairProducts` reads [b, a] by `_reversed`, the sign
    that a signed sum of two circle products has for any circle product.

    The products of two classes come from one `PairProducts` table local to
    the call, so each is computed once however many checks read it; the
    Jacobi check reaches pairs of total degree max_degree + 2 when the third
    class has degree 0.  Each Jacobi and derivation identity is summed into
    one map (`_jacobi_terms`, `_derivation_terms`): the products of a
    product with a class, the outer brackets [[x, y], z] and [b ^ c, a] and
    the cups [b, a] ^ c and b ^ [c, a], are read by linearity from the
    table's products of each basis symbol with a class.  `is_coboundary`
    decides each identity from the flat terms of that map (see there).
    The classes come in degree order, so each inner loop runs over a range
    of classes that ends where the degree bound does."""
    from .cohomology import is_coboundary
    failures = []
    classes = collect_classes(A, range(max_degree + 1))
    labels = [label for label, _ in classes]
    cochains = [c for _, c in classes]
    products = PairProducts(A, cochains)
    deg = [c.degree for c in cochains]
    idx = range(len(cochains))

    def upto(d, start=0):
        """The positions from start on of the classes of degree <= d."""
        return range(start, bisect_right(deg, d))

    # graded commutativity of the cup product, per unordered pair
    for a in idx:
        for b in upto(max_degree - deg[a], a):
            ab = products.cup(a, b)
            ba = products.cup(b, a)
            if (deg[a] * deg[b]) % 2:
                diff = ab + ba
            else:
                diff = ab - ba
            if not (is_cocycle(A, ab) and is_cocycle(A, ba)):
                failures.append(f"cup of cocycles not a cocycle: "
                                f"{labels[a]},{labels[b]}")
            if not is_coboundary(A, diff):
                failures.append(f"graded commutativity fails: "
                                f"{labels[a]},{labels[b]}")
    # the bracket of cocycles is a cocycle, per unordered pair
    for a in idx:
        for b in upto(max_degree + 1 - deg[a], a):
            if deg[a] + deg[b] == 0:
                continue
            if not is_cocycle(A, products.bracket(a, b)):
                failures.append(f"bracket not a cocycle: "
                                f"{labels[a]},{labels[b]}")
    # graded Jacobi, up to coboundary, per cyclic rotation class at its
    # least rotation: as b and c run from a, (a, b, c) <= (b, c, a) holds,
    # so (a, b, c) is least when it is <= (c, a, b)
    for a in idx:
        for b in idx[a:]:
            for c in upto(max_degree + 2 - deg[a] - deg[b], a):
                if (a, b, c) > (c, a, b):
                    continue
                if not is_coboundary(A, Cochain.from_accumulated(
                        A, deg[a] + deg[b] + deg[c] - 2,
                        _jacobi_terms(products, a, b, c))):
                    failures.append(f"Jacobi fails: "
                                    f"{labels[a]},{labels[b]},{labels[c]}")
    # [-, a] is a graded derivation of the cup product:
    # [b ^ c, a] = [b, a] ^ c + (-1)^{|b| (|a|-1)} b ^ [c, a]
    for a in idx:
        for b in idx:
            for c in upto(max_degree + 1 - deg[a] - deg[b]):
                if not is_coboundary(A, Cochain.from_accumulated(
                        A, deg[a] + deg[b] + deg[c] - 1,
                        _derivation_terms(products, a, b, c))):
                    failures.append(f"derivation rule fails: "
                                    f"{labels[a]},{labels[b]},{labels[c]}")
    return failures


def _jacobi_terms(products, a, b, c):
    """The jacobiator (-1)^{(|a|-1)(|c|-1)}[[a,b],c] + cyclic, degrees
    shifted by one, of the classes at positions a, b, c of a `PairProducts`
    table, as one map: each outer bracket is added in by linearity in the
    inner one."""
    cochains = products.cochains
    out = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        inner = products.bracket(x, y)
        if inner.terms:
            products.add(out, bracket, inner, z, negate=_parity(
                cochains[x].degree, cochains[z].degree))
    return out


def _derivation_terms(products, a, b, c):
    """[b ^ c, a] - [b, a] ^ c - (-1)^{|b| (|a|-1)} b ^ [c, a] for the
    classes at positions a, b, c of a `PairProducts` table, as one map: the
    outer bracket and both cups are added in by linearity in the inner
    product.  The map is empty when b ^ c, [b, a] and [c, a] are all
    zero."""
    bc = products.cup(b, c)
    ba = products.bracket(b, a)
    ca = products.bracket(c, a)
    out = {}
    if bc.terms:
        products.add(out, bracket, bc, a)
    if ba.terms:
        products.add(out, cup, ba, c, negate=True)
    if ca.terms:
        products.add(out, _cup_swapped, ca, b, negate=not (
            products.cochains[b].degree
            * (products.cochains[a].degree - 1)) % 2)
    return out
