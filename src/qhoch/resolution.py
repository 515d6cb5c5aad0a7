"""The Koszul-type bimodule complex, its differential and contracting
homotopy, the diagonal, the finite bar-resolution expansions, and the
contraction map used by the circle product.

Free bimodule generators e_beta are indexed by beta in N^n; homological
degree is |beta| = sum(beta).  A one-tensor element is a sum of symbols
x^a e_beta x^b and a two-tensor element (over the algebra) a sum of
x^a e_beta x^c e_gamma x^b, with all coefficients pushed into the designated
slots by the normal-form reordering rules; a generator index with a negative
entry is the zero element.

The differential and the contraction are given on generators
(`resolution_differential`, `phi_generator`) and extended as bimodule maps
by one helper, `_sandwich`, which multiplies the neighbouring monomials in
from both sides with one `Algebra.unit_product` per term.  `tensor_delta`
applies it to each generator slot of a one- or two-tensor word, with the
Koszul sign on the second slot, and `phi_tensor` to the contracted
generator between the two outer monomials.

Cochains are maps from the complex into the skew group algebra, stored on
the basis symbols (x^alpha (x) g) e_beta^*.
"""

from __future__ import annotations

from itertools import product as iproduct
from operator import add, itemgetter, sub

from .algebra import cached
from .linalg import SparseVector, accumulate
from .scalars import Frac, QQ

# ---------------------------------------------------------------------------
# multi-index helpers (plain tuples of ints)
# ---------------------------------------------------------------------------


def unit_index(n, l):
    return tuple(1 if i == l else 0 for i in range(n))


def add_index(a, b):
    return tuple(map(add, a, b))


def sub_index(a, b):
    return tuple(map(sub, a, b))


def bump(a, l, delta=1):
    return tuple(x + delta if i == l else x for i, x in enumerate(a))


def degree(a):
    return sum(a)


def compositions(n, total):
    """All beta in N^n with |beta| = total."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(n - 1, total - first):
            yield (first,) + rest


def splittings(beta):
    """All ordered pairs (b1, b2) with b1 + b2 = beta."""
    ranges = [range(x + 1) for x in beta]
    for b1 in iproduct(*ranges):
        yield tuple(b1), tuple(x - y for x, y in zip(beta, b1))


# ---------------------------------------------------------------------------
# the coefficient functions of the induced differential
# ---------------------------------------------------------------------------

def slot_condition_holds(A, g, gamma, l):
    """True when gamma_l = -1 or the quantum/character relation holds in
    slot l (the membership condition for the flat subcomplexes): the unit
    (-1)^{gamma_l} prod_{k != l} (-q_{kl})^{gamma_k} equals chi_{g,l}.
    Unit keys are canonical, so the two are compared by their keys: the
    slot unit's summed by `Algebra.unit_key` and chi_{g,l}'s read from
    chi_exp."""
    if gamma[l] == -1:
        return True
    return A.unit_key([(A.nq_exp[j][l], gamma[j]) for j in range(A.n)
                       if j != l and gamma[j]], gamma[l]) == A.chi_exp[g][l]


@cached
def is_flat(A, g, gamma):
    """True when gamma (a tuple) lies in the flat set C_g: every slot
    meets a membership condition.  Cached per (g, gamma), as each block
    recurs for every alpha and across degrees."""
    return all(slot_condition_holds(A, g, gamma, l) for l in range(A.n))


def norm_g(A, g, gamma):
    """Number of slots violating both membership conditions."""
    return sum(not slot_condition_holds(A, g, gamma, l) for l in range(A.n))


def omega_big(A, g, alpha, beta, l):
    """Coefficient of (x^{alpha+[l]} (x) g) e_{beta+[l]}^* in the cochain
    differential of (x^alpha (x) g) e_beta^*.

    The k > l exponents follow the boundary-map derivation (beta_k -
    alpha_k); the regression tests keep the readings that fail (see
    tests/test_resolution.py).
    """
    if alpha[l] == 1:
        return A.zero()
    sign = sum(beta[:l])
    nq = A.nq_exp
    t1 = A.unit_product([(nq[k][l], beta[k] - alpha[k]) for k in range(l)
                         if beta[k] != alpha[k]], sign)
    t2 = A.unit_product([(A.chi_exp[g][l], 1)]
                        + [(nq[l][k], beta[k] - alpha[k])
                           for k in range(l + 1, A.n) if beta[k] != alpha[k]],
                        sign + beta[l])
    if t1 == t2:
        return A.zero()
    return t1 - t2


def omega_small(A, g, alpha, beta, l):
    """Per-slot coefficient of the contracting homotopy; a Frac since it
    inverts a difference of two monomials.  It vanishes where slot l of
    gamma = beta - alpha meets a membership condition (gamma_l = -1 covers
    beta_l = 0)."""
    if alpha[l] == 0 or slot_condition_holds(A, g, sub_index(beta, alpha), l):
        return Frac(A.zero())
    w = omega_big(A, g, bump(alpha, l, -1), bump(beta, l, -1), l)
    return Frac(A.one(), w)


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

# the order of `Cochain.sorted_keys`: by g, then beta, then alpha
_SYMBOL_ORDER = itemgetter(2, 1, 0)


class Cochain(SparseVector):
    """Homogeneous cochain: sparse map (alpha, beta, g) -> coefficient.

    Coefficients are Scalars, or Fracs on the homotopy paths; keys with
    |beta| != degree are rejected.  A zero cochain of any degree equals
    every other zero cochain and is the identity for +.
    """

    __slots__ = ("degree",)

    def __init__(self, alg, degree, terms=None):
        self.alg = alg
        self.degree = degree
        self.terms = {}
        for key, c in (terms or {}).items():
            if c.is_zero():
                continue
            alpha, beta, g = key
            if sum(beta) != degree:
                raise ValueError("cochain term of wrong homological degree")
            self.terms[key] = c

    @classmethod
    def from_accumulated(cls, alg, degree, terms):
        """The cochain holding the map terms itself, without the checks of
        the constructor: for a map that holds no zero, as one filled by
        `accumulate`, and whose keys all have |beta| == degree."""
        c = cls.__new__(cls)
        c.alg = alg
        c.degree = degree
        c.terms = terms
        return c

    def _like(self, terms):
        # `+`, `-`, negation and `scale` store no zero, and `__add__` and
        # `__sub__` check that both operands have this degree
        return Cochain.from_accumulated(self.alg, self.degree, terms)

    @staticmethod
    def basis(alg, alpha, beta, g, coeff=None):
        c = alg.one() if coeff is None else coeff
        beta = tuple(beta)
        terms = {} if c.is_zero() else {(tuple(alpha), beta, g): c}
        return Cochain.from_accumulated(alg, sum(beta), terms)

    def __add__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if other.degree != self.degree:
            raise ValueError("cannot add cochains of different degrees")
        return SparseVector.__add__(self, other)

    def __sub__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        if other.degree != self.degree:
            raise ValueError("cannot subtract cochains of different degrees")
        return SparseVector.__sub__(self, other)

    def to_frac(self):
        return Cochain(self.alg, self.degree,
                       {k: Frac.of(c, self.alg.uni) for k, c in self.terms.items()})

    def support_gammas(self):
        return {sub_index(beta, alpha) for (alpha, beta, g) in self.terms}

    def sorted_keys(self):
        """The keys (alpha, beta, g) ordered by g, then beta, then alpha."""
        if len(self.terms) < 2:
            return list(self.terms)
        return sorted(self.terms, key=_SYMBOL_ORDER)

    def __repr__(self):
        from .scalars import scalar_str
        if not self.terms:
            return "Cochain(0)"
        bits = []
        for alpha, beta, g in self.sorted_keys():
            c = self.terms[(alpha, beta, g)]
            word = "".join(f"x{i+1}" for i, a in enumerate(alpha) if a) or "1"
            ctext = scalar_str(c.num) + "/" + scalar_str(c.den) \
                if isinstance(c, Frac) and not (c.den == c.num.uni.one) \
                else scalar_str(c.num if isinstance(c, Frac) else c)
            bits.append(f"({ctext})*({word}(x)g{g})e{beta}^*")
        return "Cochain(" + " + ".join(bits) + ")"


def hom_differential(A, c):
    """Induced differential on cochains: the linear extension of
    delta((x^a (x) g) e_b^*) = sum_l Omega_g(a, b, l)
    (x^{a+[l]} (x) g) e_{b+[l]}^*."""
    out = {}
    for (alpha, beta, g), coeff in c.terms.items():
        for l in range(A.n):
            w = omega_big(A, g, alpha, beta, l)
            if w.is_zero():
                continue
            accumulate(out, (bump(alpha, l), bump(beta, l), g), coeff * w)
    return Cochain(A, c.degree + 1, out)


def full_basis(A, m):
    """Every basis symbol (alpha, beta, g) in homological degree m,
    ordered lexicographically by (g, beta, alpha)."""
    out = []
    for g in range(A.group.order):
        for beta in sorted(compositions(A.n, m)):
            for alpha in sorted(iproduct((0, 1), repeat=A.n)):
                out.append((tuple(alpha), beta, g))
    return out


def differential_check(A, top):
    """Check d . d = 0 on every basis cochain of degree <= top.  Returns
    None, or the first (alpha, beta, g) whose image under d . d is not
    zero."""
    for m in range(top + 1):
        for key in full_basis(A, m):
            c = Cochain.basis(A, *key)
            if not hom_differential(A, hom_differential(A, c)).is_zero():
                return key
    return None


def homotopy(A, c):
    """Contracting homotopy on one off-membership subcomplex.

    The input must be supported on a single K_{g,gamma} with gamma outside
    the flat set (so the slot count is nonzero); output coefficients are
    Fracs.
    """
    gammas = c.support_gammas()
    if len(gammas) > 1:
        raise ValueError("homotopy input must live in a single subcomplex")
    out = {}
    for (alpha, beta, g), coeff in c.terms.items():
        nrm = norm_g(A, g, sub_index(beta, alpha))
        if nrm == 0:
            raise ValueError("homotopy undefined on the flat subcomplexes")
        coeff = Frac.of(coeff, A.uni)
        for l in range(A.n):
            w = omega_small(A, g, alpha, beta, l)
            if w.is_zero():
                continue
            accumulate(out, (bump(alpha, l, -1), bump(beta, l, -1), g),
                       coeff * w * QQ(1, nrm))
    return Cochain(A, c.degree - 1, out)


# ---------------------------------------------------------------------------
# elements of the complex and of its twofold tensor power
# ---------------------------------------------------------------------------

class Tensor(SparseVector):
    """Formal sum of one-generator symbols x^a e_beta x^b."""

    __slots__ = ()

    @staticmethod
    def generator(alg, beta, coeff=None):
        z = (0,) * alg.n
        c = alg.one() if coeff is None else coeff
        return Tensor(alg, {(z, tuple(beta), z): c})

    def __repr__(self):
        bits = []
        from .scalars import scalar_str
        for (a, beta, b), c in sorted(self.terms.items()):
            wa = "".join(f"x{i+1}" for i, t in enumerate(a) if t)
            wb = "".join(f"x{i+1}" for i, t in enumerate(b) if t)
            bits.append(f"({scalar_str(c)})*{wa}e{beta}{wb}")
        return "Tensor(" + (" + ".join(bits) or "0") + ")"


class Tensor2(SparseVector):
    """Formal sum of two-generator symbols x^a e_beta x^c e_gamma x^b."""

    __slots__ = ()

    @staticmethod
    def generator(alg, beta, mid, gamma, coeff=None):
        z = (0,) * alg.n
        c = alg.one() if coeff is None else coeff
        return Tensor2(alg, {(z, tuple(beta), tuple(mid), tuple(gamma), z): c})


def resolution_differential(A, beta):
    """Boundary of the generator e_beta as a bimodule element; terms whose
    index would drop below zero are omitted."""
    n = A.n
    z = (0,) * n
    out = {}
    for j in range(n):
        if beta[j] == 0:
            continue
        down = bump(beta, j, -1)
        xj = unit_index(n, j)
        left = A.unit_product([(A.q_exp[l][j], beta[l]) for l in range(j)
                               if beta[l]])
        accumulate(out, (xj, down, z), left)
        right = A.unit_product([(A.nq_exp[j][l], beta[l])
                                for l in range(j + 1, n) if beta[l]],
                               sum(beta[: j + 1]))
        accumulate(out, (z, down, xj), right)
    return Tensor(A, out)


def _sandwich(A, left, t, right, c):
    """The terms of c * x^left t x^right for a one-tensor element t, as
    (key, coefficient) pairs; both monomial products go into one
    unit_product per term."""
    for (a, beta, b), tc in t.terms.items():
        la = A.mono_mul(left, a)
        if la is None:
            continue
        rb = A.mono_mul(b, right)
        if rb is None:
            continue
        yield (la[1], beta, rb[1]), (c * tc) * A.unit_product(la[0] + rb[0])


def tensor_delta(A, t):
    """Differential on one- and two-tensor elements, extended as a bimodule
    map: on x^a e_beta x^mid e_gamma x^b it is (d (x) 1) + (-1)^{|beta|}
    (1 (x) d).  A word alternates monomials and generator indices, and d
    acts on each generator slot between its two neighbouring monomials."""
    out = {}
    for word, c in t.terms.items():
        for i in range(1, len(word), 2):
            for (a, beta, b), v in _sandwich(
                    A, word[i - 1], resolution_differential(A, word[i]),
                    word[i + 1], c):
                accumulate(out, word[:i - 1] + (a, beta, b) + word[i + 2:], v)
            if degree(word[i]) % 2:
                c = -c
    return t._like(out)


def tensor2_F(A, t):
    """F = (augment (x) 1) - (1 (x) augment) on two-tensor elements."""
    out = {}
    z = (0,) * A.n
    for (a, beta, mid, gamma, b), c in t.terms.items():
        if beta == z:
            hit = A.mono_mul(a, mid)
            if hit is not None:
                accumulate(out, (hit[1], gamma, b),
                           c * A.unit_product(hit[0]))
        if gamma == z:
            hit = A.mono_mul(mid, b)
            if hit is not None:
                accumulate(out, (a, beta, hit[1]),
                           c * A.unit_product(hit[0], 1))
    return Tensor(A, out)


# ---------------------------------------------------------------------------
# the diagonal and the bar-resolution expansions
# ---------------------------------------------------------------------------

@cached
def diagonal(A, beta):
    """Splittings of e_beta (beta a tuple) with their quantum coefficients:
    list of (beta1, beta2, Unit)."""
    out = []
    n = A.n
    for b1, b2 in splittings(beta):
        u = A.unit_product([(A.q_exp[k][l], b2[k] * b1[l])
                            for l in range(n) if b1[l]
                            for k in range(l) if b2[k]])
        out.append((b1, b2, u))
    return out


@cached
def f_beta_expand(A, beta):
    """Expansion of the generator word family of e_beta (beta a tuple):
    dict from tuples of generator indices to coefficient Units."""
    if any(b < 0 for b in beta):
        out = {}
    elif sum(beta) == 0:
        out = {(): A.uni.one}
    else:
        out = {}
        for l in range(A.n):
            if beta[l] == 0:
                continue
            coeff = A.unit_product([(A.q_exp[l][k], beta[k])
                                    for k in range(l + 1, A.n) if beta[k]])
            sub = f_beta_expand(A, bump(beta, l, -1))
            for word, u in sub.items():
                key = word + (l,)
                if key in out:
                    raise ArithmeticError("duplicate word in expansion")
                out[key] = u * coeff
    return out


def _bar_agrees(A, beta):
    """True when the bar differential of 1 (x) f_beta (x) 1 equals the
    expansion applied to `resolution_differential` of e_beta, the boundary
    that `tensor_delta` uses."""
    n = A.n
    m = degree(beta)
    if m == 0:
        return True
    z = (0,) * n
    # bar differential of the tensor expansion
    lhs = {}
    for word, u in f_beta_expand(A, beta).items():
        legs = (z,) + tuple(unit_index(n, l) for l in word) + (z,)
        for i in range(m + 1):
            hit = A.mono_mul(legs[i], legs[i + 1])
            if hit is None:
                continue
            merged = legs[:i] + (hit[1],) + legs[i + 2:]
            accumulate(lhs, merged, u * A.unit_product(hit[0], i))
    # expected value: the expansion applied to the boundary of e_beta
    rhs = {}
    for (a, down, b), c in resolution_differential(A, beta).terms.items():
        for word, u in f_beta_expand(A, down).items():
            mid = tuple(unit_index(n, l) for l in word)
            accumulate(rhs, (a,) + mid + (b,), u * c)
    return lhs == rhs


def bar_check(A, top):
    """Check the bar-resolution boundary agreement on every e_beta with
    |beta| <= top.  Returns None, or the first beta where it fails."""
    for m in range(top + 1):
        for beta in compositions(A.n, m):
            if not _bar_agrees(A, beta):
                return beta
    return None


# ---------------------------------------------------------------------------
# the contraction phi
# ---------------------------------------------------------------------------

@cached
def phi_generator(A, beta, mid, gamma):
    """Closed form of the contraction on e_beta (x) x^mid e_gamma (three
    tuples).

    The coefficient of the slot-l term is

        (-1)^{|beta|} prod_{k>l} (-q_{lk})^{mid_k (beta_l+1)}
                      prod_{k<l} (-q_{kl})^{mid_k (gamma_l+1)}
                      prod_{r<l<s} (-q_{rs})^{mid_r(mid_s+gamma_s)+mid_s beta_r}

    This reading is forced by the identity d(phi) = F (solved degreewise
    and enforced by phi_identity_check); the other published reading,
    which fails that identity, is kept by the regression tests.
    """
    n = A.n
    out = {}
    nq = A.nq_exp
    for l in range(n):
        if mid[l] != 1:
            continue
        if any(beta[l + 1:]) or any(gamma[:l]):
            continue
        factors = [(nq[l][k], beta[l] + 1) for k in range(l + 1, n)
                   if mid[k]]
        factors += [(nq[k][l], gamma[l] + 1) for k in range(l) if mid[k]]
        for r in range(l):
            for s in range(l + 1, n):
                e = mid[r] * (mid[s] + gamma[s]) + mid[s] * beta[r]
                if e:
                    factors.append((nq[r][s], e))
        u = A.unit_product(factors, degree(beta))
        left = tuple(mid[i] if i > l else 0 for i in range(n))
        right = tuple(mid[i] if i < l else 0 for i in range(n))
        accumulate(out, (left, bump(add_index(beta, gamma), l), right), u)
    return Tensor(A, out)


def phi_tensor(A, t):
    """Contraction applied to a two-tensor element, extended as a bimodule
    map over the outer coefficient slots."""
    out = {}
    for (a, beta, mid, gamma, b), c in t.terms.items():
        contracted = phi_generator(A, beta, mid, gamma)
        for key, v in _sandwich(A, a, contracted, b, c):
            accumulate(out, key, v)
    return Tensor(A, out)


def phi_identity_check(A, max_degree):
    """Check d(phi) = F degreewise: delta . phi + phi . delta2 = F on every
    generator e_beta (x) x^mid e_gamma with |beta| + |gamma| <= max_degree.
    Returns None, or the first violating (beta, mid, gamma)."""
    n = A.n
    for total in range(max_degree + 1):
        for dleft in range(total + 1):
            for beta in compositions(n, dleft):
                for gamma in compositions(n, total - dleft):
                    for mid in iproduct((0, 1), repeat=n):
                        t = Tensor2.generator(A, beta, mid, gamma)
                        lhs = tensor_delta(A, phi_tensor(A, t)) + \
                            phi_tensor(A, tensor_delta(A, t))
                        rhs = tensor2_F(A, t)
                        if lhs != rhs:
                            return (beta, tuple(mid), gamma)
    return None
