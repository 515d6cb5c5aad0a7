"""The closed-form cohomology basis, the group action on cochains with its
averaging operator, the independent rank oracle, and equality in
cohomology with its elimination oracle.

The differential vanishes exactly on the subcomplexes K_{g,gamma} whose
gamma = beta - alpha lies in the flat set C_g (`resolution.is_flat`), and
every other subcomplex is acyclic; those basis symbols are the cocycle
classes, and the cohomology of the full skew group algebra is the
group-invariant part of their span.  The same theorem decides equality in
cohomology: `is_coboundary` reads a cocycle's flat terms and eliminates
nothing.  Each intermediate has one producer: `full_basis` orders the
symbols, `is_flat` selects the classes, and `_subcomplex` holds the
differential images that the rank oracle reads and that `_image_reducer`
eliminates for `coboundary_oracle`.  `invariant_basis` keeps one average
per conjugation orbit; only the rank oracle eliminates averages.

The Reynolds average `average` never forms a translate: the translates of
a term are monomial units, which it counts per conjugate by their
`Algebra.unit_key` and sums as integers with `Universe.unit_sum`.  That
walk over the group depends only on the term's group part g and on
gamma = alpha - beta, so `_reynolds_walk` makes it once per (g, gamma) and
every later term with the same pair reads it.  `g_action_on_cochain` forms
a single translate term by term; the mean of its translates over the group
is the average.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import cached
from .linalg import RowReducer, accumulate
from .resolution import (Cochain, add_index, full_basis, hom_differential,
                         homotopy, is_flat, sub_index)
from .scalars import Frac, QQ, Scalar


def hh_component_basis(A, m, g):
    """All (alpha, beta) with |beta| = m and beta - alpha in the flat set;
    each spans a cohomology class of the g-component."""
    return [(alpha, beta) for alpha, beta, h in full_basis(A, m)
            if h == g and is_flat(A, g, sub_index(beta, alpha))]


def flatness_check(A, top):
    """Check, on every subcomplex K_{g,gamma} with each gamma_l in
    -1..top, that d vanishes when gamma is in the flat set and that the
    contracting homotopy h satisfies h d + d h = 1 when it is not.
    Returns None, or the first failure as ("flat" or "homotopy", g, gamma,
    alpha)."""
    for g in range(A.group.order):
        for gamma in iproduct(range(-1, top + 1), repeat=A.n):
            member = is_flat(A, g, gamma)
            for alpha in iproduct((0, 1), repeat=A.n):
                beta = add_index(gamma, alpha)
                if min(beta) < 0:
                    continue
                c = Cochain.basis(A, alpha, beta, g)
                if member:
                    if not hom_differential(A, c).is_zero():
                        return ("flat", g, gamma, alpha)
                    continue
                cf = c.to_frac()
                if homotopy(A, hom_differential(A, cf)) + \
                        hom_differential(A, homotopy(A, cf)) != cf:
                    return ("homotopy", g, gamma, alpha)
    return None


def g_action_on_cochain(A, h, c):
    """Conjugation action transported through the generator basis:
    h moves a basis symbol to (x^alpha (x) h g h^{-1}) e_beta^* scaled by
    prod_l chi_{h,l}^{alpha_l - beta_l}.  Conjugation by h permutes the
    group parts, so no two terms land on one symbol."""
    return Cochain(A, c.degree, {
        (alpha, beta, A.group.conjugate(h, g)):
            coeff * A.chi_prod(h, sub_index(alpha, beta))
        for (alpha, beta, g), coeff in c.terms.items()})


@cached
def _reynolds_walk(A, g, gamma):
    """The mean over the group of the translates of a term with group part
    g and alpha - beta = gamma, without its coefficient: the pairs
    (h g h^{-1}, (1/|G|) sum of chi_h^gamma over the h with that conjugate)
    whose sum is not zero.  The translates are monomial units, so they are
    counted by their `Algebra.unit_key` and summed as integers by
    `Universe.unit_sum`.  Cached per (g, gamma)."""
    conjugate = A.group.conjugate
    counts = {}
    for h in range(A.group.order):
        per = counts.setdefault(conjugate(h, g), {})
        key = A.unit_key(A.chi_factors(h, gamma))
        per[key] = per.get(key, 0) + 1
    scale = QQ(1, A.group.order)
    walk = []
    for g2, per in counts.items():
        v = A.uni.unit_sum(per) * scale
        if not v.is_zero():
            walk.append((g2, v.as_unit() or v))
    return tuple(walk)


def average(A, c):
    """Reynolds operator: the mean of the translates over the group.

    The translates of one term (alpha, beta, g) are monomial units
    +-zeta^k * t^e on the symbols (alpha, beta, h g h^{-1}); their mean per
    conjugate depends only on g and gamma = alpha - beta, and
    `_reynolds_walk` walks the group once per such pair.  The term's
    coefficient, a Scalar or a Frac, multiplies that mean from the left.
    A Scalar coefficient that comes back to a monomial unit is returned as
    that `Unit`, so that products with it stay on the units' fast path."""
    out = {}
    for (alpha, beta, g), coeff in c.terms.items():
        for g2, v in _reynolds_walk(A, g, sub_index(alpha, beta)):
            accumulate(out, (alpha, beta, g2), coeff * v)
    terms = {}
    for key, v in out.items():
        terms[key] = (v.as_unit() or v) if isinstance(v, Scalar) else v
    return Cochain(A, c.degree, terms)


def _constant_row(c):
    """Cochain with constant coefficients -> sparse row of field
    elements."""
    row = {k: v.constant() for k, v in c.terms.items()}
    if any(v is None for v in row.values()):
        raise ArithmeticError("averaged coefficient is not constant")
    return row


class CohomologyBasis:
    """The invariant cohomology of one degree: its closed-form class
    symbols (alpha, beta, g) before averaging, and the invariant Cochain
    representatives."""

    __slots__ = ("degree", "entries", "classes")

    def __init__(self, degree, entries, classes):
        self.degree = degree
        self.entries = entries
        self.classes = classes


def invariant_basis(A, m):
    """Basis of the invariant cohomology in degree m: in `full_basis` order,
    the nonzero average of each closed-form class outside the support of
    the earlier ones.  The orbit {(alpha, beta, h g h^{-1})} of a class is
    flat (chi_g is a class function), and its average is 0 or supported on
    exactly that orbit, so there is one class per orbit, no elimination."""
    entries = [(alpha, beta, g) for alpha, beta, g in full_basis(A, m)
               if is_flat(A, g, sub_index(beta, alpha))]
    classes = []
    covered = set()
    for sym in entries:
        if sym in covered:
            continue
        avg = average(A, Cochain.basis(A, *sym))
        if not avg.is_zero():
            covered.update(avg.terms)
            classes.append(avg)
    return CohomologyBasis(m, entries, classes)


def invariant_dims(A, max_degree):
    """Closed-form dimensions of the invariant cohomology per degree."""
    return [len(invariant_basis(A, m).classes) for m in range(max_degree + 1)]


def collect_classes(A, degrees):
    """The invariant classes of the given degrees as (label, Cochain), the
    label d{m}#{i} naming the i-th class of `invariant_basis` in degree m."""
    return [(f"d{m}#{i}", c) for m in degrees
            for i, c in enumerate(invariant_basis(A, m).classes)]


# ---------------------------------------------------------------------------
# the rank oracle
# ---------------------------------------------------------------------------

def _substituted_row(A, c, values):
    """Cochain -> sparse row of field elements under a parameter
    assignment (values may be None when there are no formal parameters)."""
    row = {}
    for key, coeff in c.terms.items():
        if isinstance(coeff, Frac):
            raise TypeError("rank oracle expects polynomial coefficients")
        v = coeff.substitute(values)
        if not v.is_zero():
            row[key] = v
    return row


def _seed_values(A, seed):
    """Deterministic nonzero rationals for the formal parameters."""
    import random
    rng = random.Random(seed)
    values = []
    for _ in range(A.uni.nparams):
        num = rng.randint(2, 97)
        den = rng.randint(2, 97)
        values.append(QQ(num, den))
    return values


@cached
def _subcomplex(A, m, g):
    """(dimension, nonzero images under the differential) of a subcomplex
    in degree m: the g-component, spanned by the basis cochains with group
    part g, or for g=None the invariant subcomplex, spanned by the averages
    of the basis cochains that are independent by exact elimination (which
    `invariant_basis` does not share).  Averaged coefficients are cyclotomic
    constants, so neither depends on a seed; each is cached per (degree,
    g)."""
    # full_basis(A, -1) is not empty when n = 1
    symbols = full_basis(A, m) if m >= 0 else []
    if g is None:
        red = RowReducer()
        basis = []
        for sym in symbols:
            avg = average(A, Cochain.basis(A, *sym))
            if not avg.is_zero() and red.add(_constant_row(avg)):
                basis.append(avg)
    else:
        basis = [Cochain.basis(A, *sym) for sym in symbols if sym[2] == g]
    images = [img for img in (hom_differential(A, c) for c in basis)
              if not img.is_zero()]
    return len(basis), images


@cached
def _delta_rank(A, m, g, seed):
    """Rank of the differential out of degree m on the subcomplex selected
    by g (see `_subcomplex`) after substituting the formal parameters at
    one seed; cached per (degree, g, seed), so the rank into degree m + 1
    reuses it."""
    values = _seed_values(A, seed) if seed is not None else []
    red = RowReducer()
    for img in _subcomplex(A, m, g)[1]:
        red.add(_substituted_row(A, img, values))
    return red.rank


def _ranks(A, m, g, seeds):
    """(dim kernel, dim image from below, dim cohomology) in degree m of the
    subcomplex selected by g, from the ranks at each seed; all seeds must
    agree."""
    if A.uni.nparams == 0:
        seeds = (None,)
    dim = _subcomplex(A, m, g)[0]
    results = []
    for seed in seeds:
        rank_out = _delta_rank(A, m, g, seed)
        rank_in = _delta_rank(A, m - 1, g, seed)
        results.append((dim - rank_out, rank_in, dim - rank_out - rank_in))
    if len(set(results)) != 1:
        raise ArithmeticError(
            f"rank oracle disagrees across seeds: {results} "
            "(unlucky specialization)")
    return results[0]


def rank_oracle(A, m, g, seeds=(1,)):
    """(dim kernel, dim image-from-below, dim cohomology) for the
    g-component in degree m, by exact elimination after substituting the
    formal parameters at each seed; all seeds must agree."""
    return _ranks(A, m, g, seeds)


def invariant_rank_oracle(A, m, seeds=(1,)):
    """Dimension of the invariant cohomology in degree m computed from
    ranks of the differential restricted to the invariant subcomplex; all
    seeds must agree."""
    return _ranks(A, m, None, seeds)[2]


# ---------------------------------------------------------------------------
# equality in cohomology
# ---------------------------------------------------------------------------

def is_cocycle(A, c):
    return hom_differential(A, c).is_zero()


def is_coboundary(A, c):
    """Membership of c in the image of the differential from one degree
    below, read off the blocks K_{g,gamma}.

    The differential maps each block to itself.  A flat block has zero
    differential, so no coboundary has a flat term; a non-flat block is
    acyclic by the contracting homotopy, so a cocycle with no flat term is
    a coboundary.  `flatness_check` verifies both halves of this.  A
    nonzero cochain of degree 0 with no flat term is not a cocycle, so it
    needs no case of its own.  A zero cochain is answered before forming
    its empty differential: most identities `axiom_suite` checks hold at
    chain level, so most cochains it asks about are zero."""
    if c.is_zero():
        return True
    for alpha, beta, g in c.terms:
        if is_flat(A, g, sub_index(beta, alpha)):
            return False
    return is_cocycle(A, c)


@cached
def _image_reducer(A, m):
    """Echelon form of the image of the differential into degree m, over
    the quotient field of the coefficient ring: the nonzero images of the
    basis cochains of degree m - 1 that `_subcomplex` holds for each group
    element in turn."""
    red = RowReducer()
    for g in range(A.group.order):
        for img in _subcomplex(A, m - 1, g)[1]:
            red.add(img.to_frac().terms)
    return red


def coboundary_oracle(A, c):
    """Exact membership of c in the image of the differential from one
    degree below, by elimination over the quotient field of the coefficient
    ring: the reference that `is_coboundary`'s block test is checked
    against, as `flatness_check` checks the theorem that test rests on.

    The echelon form of that image depends only on the algebra and the
    degree, and membership tests leave it unchanged, so `_image_reducer`
    builds it once per (algebra, degree)."""
    if c.is_zero():
        return True
    if c.degree == 0:
        return False
    return _image_reducer(A, c.degree).contains(c.to_frac().terms)


def class_equal(A, c1, c2):
    """Equality in cohomology; both inputs must be cocycles."""
    if c1.degree != c2.degree and not (c1.is_zero() or c2.is_zero()):
        raise ValueError("cannot compare classes of different degrees")
    for c in (c1, c2):
        if not is_cocycle(A, c):
            raise ValueError("class_equal requires cocycles")
    return is_coboundary(A, c1 - c2)
