"""The quantum exterior algebra, a finite group acting diagonally, and the
skew group algebra.

The algebra has generators x_1 < ... < x_n with x_i^2 = 0 and
x_i x_j = -q_{ij} x_j x_i for i < j, where each q_{ij} is a monomial unit
(a root of unity times a formal-parameter monomial).  Monomials are kept in
the normal form x_1^{a_1}...x_n^{a_n}, a in {0,1}^n; every reordering
coefficient derives from the single defining relation.

A group element g scales each generator: g.x_i = chi_{g,i} x_i with
chi_{g,i} a root of unity.  The skew product on Lambda x kG is
(a (x) g)(b (x) h) = a * (g.b) (x) gh.

Every structure constant is a product of integer powers of the q_{ij}, the
-q_{ij} and the chi_{g,i}.  The algebra keeps each of these units as its
key (exps, j) (see `qhoch.scalars`) in the tables q_exp, nq_exp and
chi_exp.  `Algebra.unit_key` sums a list of factors (key, exponent), the
keys scaled by their exponents, into the key of their product, and
`Algebra.unit_product` takes each unit coefficient from the universe's
table of units at that key instead of forming a running product of units.
The factor tuples of the monomial product (`Algebra.mono_mul`), of the
characters on a monomial (`Algebra.chi_factors`) and of the skew rule
(`Algebra.skew_mono`) depend on a few small indices only; each is computed
once per algebra and kept in `A.caches`, and callers read the cached
tuples themselves.
"""

from __future__ import annotations

from functools import wraps

from .linalg import SparseVector, accumulate
from .scalars import CycloField, Universe


class TableError(ValueError):
    """A multiplication table that is not a group law."""


class Group:
    """Finite group with explicit multiplication table and diagonal
    characters chi[g][i] (monomial `Unit`s of the ambient universe).

    Element 0 is the identity.  The table is checked to be a group law (a
    fault is a `TableError`), and each character column a homomorphism.
    Both checks walk the products g h with h in a generating set
    (`_generators`): associativity by Light's test (`_associative`, order^2
    per generator), then chi_{gh} = chi_g chi_h (order per generator and
    column), which holds for all h once it holds for generators, the
    table being associative and chi_0 = 1.  Every group is checked this
    way; a cyclic table has one generator.
    """

    __slots__ = ("order", "mult", "inverse", "chi")

    def __init__(self, mult, chi):
        self.mult = tuple(tuple(row) for row in mult)
        self.order = len(self.mult)
        self.chi = tuple(tuple(row) for row in chi)
        inv = [None] * self.order
        for g in range(self.order):
            for h in range(self.order):
                if self.mult[g][h] == 0:
                    inv[g] = h
        self.inverse = tuple(inv)
        self._validate()

    def _validate(self):
        n = self.order
        rng = range(n)
        for g in rng:
            if self.mult[0][g] != g or self.mult[g][0] != g:
                raise TableError("element 0 is not an identity")
            if self.inverse[g] is None:
                raise TableError(f"element {g} has no inverse")
        gens = _generators(self.mult)
        if not _associative(self.mult, gens):
            raise TableError("multiplication table is not associative")
        ngen = len(self.chi[0]) if self.chi else 0
        for i in range(ngen):
            if not self.chi[0][i].is_one():
                raise ValueError("identity character is not 1")
            for g in rng:
                u = self.chi[g][i]
                if any(u.exps):
                    raise ValueError("characters must be constants, not formal")
                if not (u ** u.uni.field.N).is_one():
                    # a sign that survives means chi^N != 1: N too small
                    raise ValueError(
                        "character order does not divide the cyclotomic order N")
                if any(self.chi[self.mult[g][h]][i] != u * self.chi[h][i]
                       for h in gens):
                    raise ValueError("chi is not a homomorphism in column %d" % i)

    def conjugate(self, h, g):
        """h g h^{-1}."""
        return self.mult[self.mult[h][g]][self.inverse[h]]


def _generators(mult):
    """Elements of the table mult, with identity 0, chosen greedily until
    every element is a left-normed product ((a b) c) ... of them: an
    element is chosen when it is not such a product of those before it."""
    gens = []
    reached = {0}
    for a in range(len(mult)):
        if a in reached:
            continue
        gens.append(a)
        # every reached element times a, and what that reaches
        todo = list(reached)
        while todo:
            x = todo.pop()
            row = mult[x]
            for b in gens:
                y = row[b]
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
    return gens


def _associative(mult, gens):
    """Whether (x a) y = x (a y) in the table mult for all x, y and every a
    in gens.  For gens from `_generators` this is Light's test of
    associativity: the elements a for which it holds are closed under the
    product (for two of them, (x (a b)) y = ((x a) b) y = (x a)(b y) =
    x (a (b y)) = x ((a b) y)), so it holds for all a once it holds for
    generators."""
    rng = range(len(mult))
    for a in gens:
        col = [row[a] for row in mult]
        row_a = mult[a]
        for x in rng:
            xa, row_x = mult[col[x]], mult[x]
            for y in rng:
                if xa[y] != row_x[row_a[y]]:
                    return False
    return True


def trivial_group(uni, n):
    return Group(((0,),), ((uni.one,) * n,))


def make_cyclic_group(uni, n, order, chi_gen):
    """Cyclic group of the given order with generator characters chi_gen
    (one Unit per algebra generator)."""
    chi_gen = tuple(chi_gen)
    if len(chi_gen) != n:
        raise ValueError("need one character value per generator")
    for u in chi_gen:
        if any(u.exps):
            raise ValueError("characters must be constants")
        if not (u ** order).is_one():
            raise ValueError("character order does not divide the group order")
    mult = [[(a + b) % order for b in range(order)] for a in range(order)]
    chi = [tuple(u ** a for u in chi_gen) for a in range(order)]
    # Group checks this table like any other, on its one generator 1; the
    # checks above come first because their messages name the cause
    return Group(mult, chi)


_MISS = object()


def cached(fn):
    """Memoize fn(A, *args) per algebra: the result is kept in A.caches
    under (fn.__name__,) + args, computed on a miss only and stored whole.
    The arguments after A are hashable (multi-indices as tuples); any
    result is kept, None and falsy ones such as {} or 0 too.  A method of
    `Algebra` can be cached this way."""
    name = fn.__name__

    @wraps(fn)
    def memo(A, *args):
        key = (name,) + args
        hit = A.caches.get(key, _MISS)
        if hit is _MISS:
            hit = A.caches[key] = fn(A, *args)
        return hit
    return memo


class Algebra:
    """Bundle of the quantum datum, the group datum, and the scalar universe.

    q[i][j] is the full matrix of units with q[i][i] = -1 and
    q[j][i] = q[i][j]^{-1}; nq[i][j] = -q[i][j] (so nq[i][i] = 1).
    q_exp, nq_exp and chi_exp hold the keys of q, nq and the group
    characters, which `unit_product` takes as factors.
    Indices are 0-based throughout the code.
    """

    __slots__ = ("n", "uni", "q", "nq", "group", "caches",
                 "q_exp", "nq_exp", "chi_exp")

    def __init__(self, n, uni, q_upper, group=None):
        self.n = n
        self.uni = uni
        minus_one = uni.unit(sign=-1)
        q = [[None] * n for _ in range(n)]
        for i in range(n):
            q[i][i] = minus_one
        for (i, j), u in q_upper.items():
            if not 0 <= i < j < n:
                raise ValueError("quantum entries must be given for i < j only")
            q[i][j] = u
            q[j][i] = u.inv()
        for i in range(n):
            for j in range(n):
                if q[i][j] is None:
                    raise ValueError(f"missing quantum entry ({i},{j})")
        self.q = tuple(tuple(row) for row in q)
        self.nq = tuple(tuple(-u for u in row) for row in self.q)
        self.group = group if group is not None else trivial_group(uni, n)
        if len(self.group.chi[0]) != n:
            raise ValueError("character matrix width must equal n")
        self.q_exp, self.nq_exp, self.chi_exp = (
            tuple(tuple(u.key for u in row) for row in table)
            for table in (self.q, self.nq, self.group.chi))
        self.caches = {}

    # -- scalar conveniences -------------------------------------------------

    def one(self):
        return self.uni.one

    def zero(self):
        return self.uni.zero

    def chi(self, g, i):
        return self.group.chi[g][i]

    def unit_key(self, factors, sign=0):
        """The key of (-1)^sign * prod u^m over the pairs (key of u, m) in
        factors, the keys taken from q_exp, nq_exp or chi_exp or of any
        other unit (a unit's key is the factor (key, 1)): the keys scaled
        by their exponents and summed, -1 adding P/2.  No object is
        built."""
        P = self.uni.field.P
        zero = (0,) * self.uni.nparams
        j = sign * (P // 2)
        exps = list(zero)
        for (e, z), m in factors:
            j += z * m
            if e != zero:
                for p, v in enumerate(e):
                    if v:
                        exps[p] += v * m
        return tuple(exps), j % P

    def unit_product(self, factors, sign=0):
        """The Unit (-1)^sign * prod u^m over factors as in `unit_key`,
        the universe's unit at the summed key."""
        return self.uni.from_key(self.unit_key(factors, sign))

    @cached
    def chi_factors(self, g, exps):
        """The factors of prod_i chi_{g,i}^{exps_i}, the character of g on
        the monomial x^exps (a tuple), for `unit_product`; characters equal
        to 1 are left out.  A tuple, cached per (g, exps)."""
        one = self.uni.one.key
        return tuple([(c, e) for c, e in zip(self.chi_exp[g], exps)
                      if e and c != one])

    def chi_prod(self, g, exps):
        """prod_i chi_{g,i}^{exps_i} as a Unit."""
        return self.unit_product(self.chi_factors(g, exps))

    # -- monomial arithmetic -------------------------------------------------

    @cached
    def mono_mul(self, a, b):
        """Normal form of x^a * x^b (two tuples): None if a slot repeats,
        else (factors, a | b) with the coefficient unit_product(factors),
        the factors a tuple.  Cached per (a, b)."""
        n = self.n
        for i in range(n):
            if a[i] and b[i]:
                return None
        # x_l x_k = (-q_{kl})^{-1} x_k x_l for k < l
        return (tuple([(self.nq_exp[k][l], -1) for k in range(n) if b[k]
                       for l in range(k + 1, n) if a[l]]),
                tuple([ai | bi for ai, bi in zip(a, b)]))

    @cached
    def skew_mono(self, a, g, b):
        """The skew rule on monomials, (x^a (x) g)(x^b (x) h) =
        x^a (g.x^b) (x) gh: None if a slot repeats, else (factors, a | b)
        with the coefficient unit_product(factors), the factors of
        `mono_mul` followed by the character of g on x^b.  The group part
        of the product is mult[g][h], for the caller to form.  Cached per
        (a, g, b)."""
        hit = self.mono_mul(a, b)
        if hit is None:
            return None
        factors, mono = hit
        return factors + self.chi_factors(g, b), mono


class SkewElement(SparseVector):
    """Element of the skew group algebra in normal form: a sparse map
    (monomial, group element) -> Scalar."""

    __slots__ = ()

    @staticmethod
    def basis(alg, mono, g, coeff=None):
        c = coeff if coeff is not None else alg.one()
        if c.is_zero():
            return SkewElement(alg, {})
        return SkewElement(alg, {(tuple(mono), g): c})

    @staticmethod
    def one(alg):
        return SkewElement.basis(alg, (0,) * alg.n, 0)

    def __mul__(self, other):
        """(a (x) g)(b (x) h) = a * (g.b) (x) gh with x_i^2 = 0."""
        alg = self.alg
        out = {}
        for (a, g), c1 in self.terms.items():
            for (b, h), c2 in other.terms.items():
                hit = alg.skew_mono(a, g, b)
                if hit is None:
                    continue
                factors, mono = hit
                accumulate(out, (mono, alg.group.mult[g][h]),
                           c1 * c2 * alg.unit_product(factors))
        return SkewElement(alg, out)

    def __repr__(self):
        from .scalars import scalar_str
        if not self.terms:
            return "SkewElement(0)"
        bits = []
        for (mono, g), c in sorted(self.terms.items()):
            word = "".join(f"x{i+1}" for i, a in enumerate(mono) if a) or "1"
            bits.append(f"({scalar_str(c)})*{word}(x)g{g}")
        return "SkewElement(" + " + ".join(bits) + ")"


def group_act(alg, g, elem):
    """Diagonal action of g on the Lambda part of a skew element."""
    out = {}
    for (mono, h), c in elem.terms.items():
        v = c * alg.chi_prod(g, mono)
        if not v.is_zero():
            out[(mono, h)] = v
    return SkewElement(alg, out)


# ---------------------------------------------------------------------------
# constructors for the standard setups
# ---------------------------------------------------------------------------

def build_algebra(n, N=1, q_spec=None, group_spec=None):
    """Assemble an Algebra from entry specs.

    q_spec maps (i, j) with 0 <= i < j < n to one of
      ("formal", name)   -- an independent Laurent parameter
      ("zeta", k)        -- the root of unity zeta_N^k
      ("rational", r)    -- r in {1, -1}
    Missing pairs default to a fresh formal parameter.
    group_spec is either None (trivial), ("cyclic", order, chi_values) with
    chi_values a list of (sign, zeta_power) pairs for the generator, or
    ("table", mult, chi_matrix) with chi entries (sign, zeta_power).
    """
    q_spec = dict(q_spec or {})
    for i in range(n):
        for j in range(i + 1, n):
            q_spec.setdefault((i, j), ("formal", f"q{i+1}{j+1}"))
    names = []
    for (i, j) in sorted(q_spec):
        kind = q_spec[(i, j)][0]
        if kind == "formal":
            name = q_spec[(i, j)][1]
            if name in names:
                raise ValueError(f"formal parameter name {name!r} repeats")
            names.append(name)
    field = CycloField(N)
    uni = Universe(field, names)
    q_upper = {}
    pindex = 0
    for (i, j) in sorted(q_spec):
        spec = q_spec[(i, j)]
        if spec[0] == "formal":
            q_upper[(i, j)] = uni.param_unit(pindex)
            pindex += 1
        elif spec[0] == "zeta":
            q_upper[(i, j)] = uni.unit(zeta=spec[1])
        elif spec[0] == "rational":
            if spec[1] not in (1, -1):
                raise ValueError("rational quantum entries must be +-1")
            q_upper[(i, j)] = uni.unit(sign=spec[1])
        else:
            raise ValueError(f"unknown quantum entry kind {spec[0]!r}")
    group = None
    if group_spec is not None and group_spec[0] != "trivial":
        if group_spec[0] == "cyclic":
            _, order, chi_values = group_spec
            chi_gen = [uni.unit(sign=s, zeta=k) for (s, k) in chi_values]
            group = make_cyclic_group(uni, n, order, chi_gen)
        elif group_spec[0] == "table":
            _, mult, chi_matrix = group_spec
            chi = [[uni.unit(sign=s, zeta=k) for (s, k) in row]
                   for row in chi_matrix]
            group = Group(mult, chi)
        else:
            raise ValueError(f"unknown group kind {group_spec[0]!r}")
    return Algebra(n, uni, q_upper, group)


def formal_algebra(n=2, group_spec=None):
    """All quantum entries independent formal parameters (N = 1)."""
    return build_algebra(n, N=1, group_spec=group_spec)


def quantum_coefficient_action_algebra(d):
    """Two generators, q = zeta_d, and the cyclic group of order d acting by
    g.x1 = q x1, g.x2 = q^{-1} x2."""
    return build_algebra(
        2, N=d, q_spec={(0, 1): ("zeta", 1)},
        group_spec=("cyclic", d, [(1, 1), (1, (-1) % d if d > 1 else 0)]))
