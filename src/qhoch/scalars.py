"""Exact scalar arithmetic: cyclotomic rationals extended by formal parameters.

A scalar is a finite sum ``sum_e c_e * t^e`` where ``e`` runs over integer
exponent vectors (one slot per formal parameter, Laurent exponents) and each
coefficient ``c_e`` lies in the cyclotomic field Q(zeta_N).  Field elements
are coordinate vectors in the power basis ``1, zeta, ..., zeta^{phi(N)-1}``
reduced modulo the N-th cyclotomic polynomial Phi_N, held as integer
numerators over one positive denominator that shares no factor with all of
them.  Representatives are therefore unique and equality is structural.
Phi_N is monic with integer coefficients, so sums, products and reductions
stay in the integers, a gcd is taken only when the denominator is not 1, and
inverses are computed fraction-free.  Fractions appear only where rationals
enter (`CycloField.element`, `CycloField.from_rational`,
`CycloElement.scale`) and in the rational view `CycloElement.coeffs` used
for rendering.  No floating point is used anywhere.

The monomial units ``+-zeta^k * t^e`` (the quantum coefficients, the
diagonal characters and their products) form the group Z^p x mu_P with
P = lcm(2, N): the roots +-zeta^k are the powers eta^j, 0 <= j < P, of one
root eta with eta^(P/N) = zeta and eta^(P/2) = -1, so that +-zeta^k is
eta^j with j = (P/N) k + (P/2) [sign = -1] mod P (`CycloField.exponent`).
The field builds the P roots once, each tagged with its j.  A unit's one
encoding is its key (e, j): it is canonical, equal units have equal keys,
and the unit arithmetic is integer arithmetic on keys: a product adds
them, a power scales them, an inverse negates them and a negation adds
P/2 to j.  The units are `Unit`s: one-term Scalars {e: eta^j} that compare
and hash as the Scalars they are.  Each universe keeps one Unit per key,
and every unit the package makes is taken from that table
(`Universe.from_key`).  Equality never relies on the table: a Unit built
outside it, or taken from a compatible second universe, equals the
table's unit of its value, and identity only lets a comparison stop
early.  A sum of many monomial units is not formed as a running sum of
Scalars: `Universe.unit_sum` takes them as integer counts of their keys and
adds the counted rows of the roots into one integer vector per e.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .linalg import accumulate

QQ = Fraction


# ---------------------------------------------------------------------------
# integer polynomials (dense lists, low degree first)
# ---------------------------------------------------------------------------

def _times_binomial(p, d):
    """p * (z^d - 1)."""
    out = [0] * d + p
    for i, a in enumerate(p):
        out[i] -= a
    return out


def _over_binomial(p, d):
    """p / (z^d - 1), for a p that z^d - 1 divides."""
    q = p[d:]
    for k in range(len(q) - 1 - d, -1, -1):
        q[k] += q[k + d]
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N):
    """Coefficients (low degree first) of the N-th cyclotomic polynomial.

    Phi_N = prod_{d | N} (z^d - 1)^mu(N/d): the product of the binomials
    with mu = 1, divided exactly by those with mu = -1.  Every factor is
    monic with integer coefficients, so the arithmetic stays in the
    integers.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    # the squarefree divisors r of N with mu(r)
    mobius, rest, p = [(1, 1)], N, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            mobius += [(r * p, -mu) for r, mu in mobius]
            while rest % p == 0:
                rest //= p
        p += 1
    poly = [1]
    for r, mu in mobius:
        if mu == 1:
            poly = _times_binomial(poly, N // r)
    for r, mu in mobius:
        if mu == -1:
            poly = _over_binomial(poly, N // r)
    return tuple(poly)


def _inverse_mod(x, m):
    """(s, c) with s * x == c modulo m for a nonzero integer c, given
    coprime integer polynomials x and m with deg x < deg m.

    The extended Euclidean algorithm on the subresultant remainder sequence
    of m and x (Knuth, TAOCP 4.6.1, Algorithm C), which carries along each
    remainder's cofactor of x.  The remainders and their cofactors are
    determinants, so every division below is exact and all arithmetic stays
    in the integers.
    """
    u, v = list(m), list(x)
    su, sv = [], [1]  # u == su * x and v == sv * x modulo m
    g = h = 1
    while True:
        delta = len(u) - len(v)
        lead = v[-1]
        # pseudo-division: lead^(delta+1) * u == q * v + r
        r, q = list(u), [0] * (delta + 1)
        for k in range(delta, -1, -1):
            c = r.pop()
            q[k] = c * lead ** k
            r = [lead * a for a in r]
            if c:
                for j, b in enumerate(v[:-1], k):
                    r[j] -= c * b
        # the cofactor of r: lead^(delta+1) * su - q * sv
        s = [0] * max(len(su), len(q) + len(sv) - 1)
        scale = lead ** (delta + 1)
        for i, a in enumerate(su):
            s[i] = scale * a
        for i, a in enumerate(q):
            if a:
                for j, b in enumerate(sv, i):
                    s[j] -= a * b
        e = g * h ** delta
        r = [a // e for a in r]
        s = [a // e for a in s]
        while not r[-1]:
            r.pop()
        if len(r) == 1:
            return s, r[0]
        u, v, su, sv = v, r, sv, s
        # every remainder has lower degree than its divisor, so delta >= 1
        g = lead
        h = g ** delta // h ** (delta - 1)


# ---------------------------------------------------------------------------
# the cyclotomic field Q(zeta_N)
# ---------------------------------------------------------------------------

class CycloField:
    """Q(zeta_N) with canonical representatives modulo Phi_N.

    ``P`` is lcm(2, N), the order of the group of roots +-zeta^k, and
    ``_roots[j]`` is the root eta^j tagged with j (see the module
    docstring); ``_by_nums`` maps their coordinates back to them.  Two
    tables fill as they are read: ``_shifts`` holds the rows of
    `shift_rows` per exponent, and ``_inverses`` the result (s, c) of
    `_inverse_mod` per primitive coordinate tuple with a positive leading
    coordinate, which `CycloElement.inv` shares between elements that
    differ only in content or sign."""

    __slots__ = ("N", "P", "degree", "modulus", "_roots", "_by_nums",
                 "_shifts", "_inverses", "zero", "one", "zeta")

    def __init__(self, N):
        if N < 1:
            raise ValueError("N must be a positive integer")
        self.N = N
        self.P = lcm(2, N)
        self.modulus = cyclotomic_polynomial(N)
        d = self.degree = len(self.modulus) - 1
        # z^k reduced mod Phi_N for k < N, one shift at a time; Phi_N is
        # monic, so the rows are integer
        low = [(i, m) for i, m in enumerate(self.modulus[:d]) if m]
        row = [1] + [0] * (d - 1)
        rows = [tuple(row)]
        for k in range(1, N):
            lead = row[-1]  # coefficient of z^degree after the shift
            row = [0] + row[:-1]
            if lead:
                for i, m in low:
                    row[i] -= lead * m
            rows.append(tuple(row))
        # at even N, -zeta^k is zeta^(k + N/2), met already among the rows
        roots = [None] * self.P
        for k, row in enumerate(rows):
            for sign, nums in ((1, row), (-1, tuple([-a for a in row]))):
                j = self.exponent(sign, k)
                if roots[j] is None:
                    roots[j] = CycloElement(self, nums, 1, j)
        self._roots = tuple(roots)
        self._by_nums = {r.nums: r for r in roots}
        self._shifts = {}
        self._inverses = {}
        self.zero = CycloElement(self, (0,) * d)
        self.one = self.root(1, 0)
        self.zeta = self.root(1, 1)

    def element(self, coeffs):
        """The element with the given rational coordinates."""
        coeffs = [QQ(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError("coefficient vector has wrong length")
        # over the least common denominator of fractions in lowest terms
        # the numerators have no factor in common with it
        den = lcm(*(c.denominator for c in coeffs))
        return CycloElement(self, tuple(c.numerator * (den // c.denominator)
                                        for c in coeffs), den)

    def from_rational(self, r):
        r = QQ(r)
        return CycloElement(self, (r.numerator,) + (0,) * (self.degree - 1),
                            r.denominator)

    def exponent(self, sign, k):
        """The j with eta^j = sign * zeta^k (sign = +-1, any integer k),
        0 <= j < P."""
        P = self.P
        return (P // self.N * k + (P // 2 if sign == -1 else 0)) % P

    def root(self, sign, k):
        """The element sign * zeta^k (sign = +-1), tagged as a root of
        unity so that products with it skip the generic multiplication."""
        return self._roots[self.exponent(sign, k)]

    def shift_rows(self, j):
        """Sparse rows of eta^j * zeta^i for i < degree: multiplying by
        eta^j maps coordinate i onto row i."""
        rows = self._shifts.get(j)
        if rows is None:
            P, step = self.P, self.P // self.N
            rows = tuple(tuple((t, c) for t, c in
                               enumerate(self._roots[(j + step * i) % P].nums)
                               if c)
                         for i in range(self.degree))
            self._shifts[j] = rows
        return rows

    def as_root(self, elem):
        """The tagged root equal to elem, or None if elem is not +-zeta^k."""
        return self._by_nums.get(elem.nums) if elem.den == 1 else None

    def __repr__(self):
        return f"CycloField({self.N})"


def _reduced(field, nums, den):
    """The element nums / den (den > 0) in canonical form."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([a // g for a in nums])
            den //= g
    return CycloElement(field, nums, den)


class CycloElement:
    """An element of Q(zeta_N), exact and canonical: the integer
    coordinates ``nums`` in the power basis over one positive integer
    ``den``, with gcd(den, *nums) == 1, so zero is (0, ..., 0) over 1.

    Equality and hashing compare (nums, den).  ``coeffs`` is the rational
    view of the coordinates, for rendering.  ``root`` is j on the field's
    stored root eta^j (`CycloField.exponent`), else None; it only selects a
    faster product.  The root 1 has j = 0, so test it against None.
    """

    __slots__ = ("field", "nums", "den", "root")

    def __init__(self, field, nums, den=1, root=None):
        self.field = field
        self.nums = nums
        self.den = den
        self.root = root

    @property
    def coeffs(self):
        """The coordinates in the power basis as Fractions."""
        den = self.den
        return tuple(QQ(a, den) for a in self.nums)

    def is_zero(self):
        if self.root is not None:
            return False
        return not any(self.nums)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        # two builds of Q(zeta_N) share coordinates, as Scalar._check allows
        return (isinstance(other, CycloElement)
                and (self.field is other.field
                     or self.field.N == other.field.N)
                and self.nums == other.nums and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other):
        a, b = self.den, other.den
        if a == b:
            return _reduced(self.field,
                            tuple(map(add, self.nums, other.nums)), a)
        g = gcd(a, b)
        fa, fb = b // g, a // g
        return _reduced(self.field, tuple([x * fa + y * fb for x, y in
                                           zip(self.nums, other.nums)]),
                        a * fa)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        if self.root is not None:
            return f._roots[(self.root + f.P // 2) % f.P]
        return CycloElement(f, tuple([-a for a in self.nums]), self.den)

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, CycloElement):
            # tested this way round: isinstance against Fraction, an ABC,
            # costs more than a root-by-root product
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.scale(other)
        if self.root is not None:
            if other.root is not None:
                return f._roots[(self.root + other.root) % f.P]
            return other._times_root(self.root)
        if other.root is not None:
            return self._times_root(other.root)
        d = f.degree
        out = [0] * (2 * d - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums, i):
                    if b:
                        out[j] += a * b
        low = out[:d]
        # z^(d+i) for i < d-1 is row i of the shift by zeta^d
        for c, row in zip(out[d:], f.shift_rows(f.P // f.N * d)):
            if c:
                for i, r in row:
                    low[i] += c * r
        return _reduced(f, tuple(low), self.den * other.den)

    __rmul__ = __mul__

    def _times_root(self, j):
        """Product with eta^j: a sum of shifted rows.  A root of unity is a
        unit of Z[zeta], so the content of nums, and with it the canonical
        form, is unchanged."""
        out = [0] * self.field.degree
        for a, row in zip(self.nums, self.field.shift_rows(j)):
            if a:
                for t, c in row:
                    out[t] += a * c
        return CycloElement(self.field, tuple(out), self.den)

    def scale(self, r):
        """The product with the rational r, an int or a Fraction."""
        return self._times_ratio(r.numerator, r.denominator)

    def _times_ratio(self, num, den):
        """The product with num / den, den > 0."""
        if not num:
            return self.field.zero
        return _reduced(self.field, tuple([a * num for a in self.nums]),
                        self.den * den)

    def inv(self):
        """Multiplicative inverse: eta^-j for a root of unity, the
        reciprocal for a rational, else by the fraction-free extended
        Euclidean algorithm `_inverse_mod` against the cyclotomic modulus,
        run once per primitive coordinate tuple (`CycloField._inverses`)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        f = self.field
        hit = self if self.root is not None else f.as_root(self)
        if hit is not None:
            return f._roots[-hit.root % f.P]
        nums = list(self.nums)
        while not nums[-1]:
            nums.pop()
        # self == content * x / den with x primitive and its leading
        # coordinate positive, so its inverse is den * s / (content * c)
        # where s * x == c modulo Phi_N
        content = gcd(*nums)
        if nums[-1] < 0:
            content = -content
        if len(nums) == 1:
            s, c = [1], 1
        else:
            x = tuple([a // content for a in nums])
            hit = f._inverses.get(x)
            if hit is None:
                hit = f._inverses[x] = _inverse_mod(x, f.modulus)
            s, c = hit
        num, den = self.den, content * c
        if den < 0:
            num, den = -num, -den
        return _reduced(f, tuple([a * num for a in s])
                        + (0,) * (f.degree - len(s)), den)

    def __repr__(self):
        return f"Cyclo{self.coeffs}"


# ---------------------------------------------------------------------------
# the scalar ring and its monomial units
# ---------------------------------------------------------------------------

class Universe:
    """Shared context: the cyclotomic field plus the formal parameter slots.

    ``units`` is the table of monomial units, one `Unit` per key (exps, j),
    filled as units are made.  Entries go in by ``setdefault``, so threads
    that race on one key all get the one entry that won."""

    __slots__ = ("field", "nparams", "param_names", "zero", "one", "units")

    def __init__(self, field, param_names=()):
        self.field = field
        self.param_names = tuple(param_names)
        self.nparams = len(self.param_names)
        self.units = {}
        self.zero = Scalar(self, {})
        self.one = self.unit()

    def compatible(self, other):
        return (self.field.N == other.field.N
                and self.param_names == other.param_names)

    def unit(self, sign=1, zeta=0, exps=None):
        """The monomial unit sign * zeta^zeta * t^exps."""
        if exps is None:
            exps = (0,) * self.nparams
        return self.from_key((tuple(exps), self.field.exponent(sign, zeta)))

    def from_key(self, key):
        """The table's unit eta^j * t^exps for the key (exps, j),
        0 <= j < P."""
        u = self.units.get(key)
        if u is None:
            exps, j = key
            u = self.units.setdefault(
                key, Unit(self, {exps: self.field._roots[j]}, key))
        return u

    def param_unit(self, index):
        exps = [0] * self.nparams
        exps[index] = 1
        return self.unit(exps=exps)

    def unit_sum(self, counts):
        """The Scalar sum of count * eta^j * t^exps over the map
        counts = {(exps, j): count} of unit keys to integer counts.  Each
        exps gets one integer vector, the counted rows of the roots added
        into it; a sum that is +-zeta^k is that tagged root, and a one-term
        result with a tagged coefficient is a Unit."""
        field = self.field
        if len(counts) == 1:
            (key, count), = counts.items()
            if count == 1:
                return self.from_key(key)
        rows = {}
        for (exps, j), count in counts.items():
            nums = field._roots[j].nums
            row = rows.get(exps)
            if row is None:
                rows[exps] = [count * a for a in nums]
            else:
                for i, a in enumerate(nums):
                    if a:
                        row[i] += count * a
        terms = {}
        for exps, row in rows.items():
            if any(row):
                # integer coordinates over 1 are canonical
                c = CycloElement(field, tuple(row))
                terms[exps] = field.as_root(c) or c
        if len(terms) == 1:
            (exps, c), = terms.items()
            if c.root is not None:
                return self.from_key((exps, c.root))
        return Scalar(self, terms)

    def from_cyclo(self, c):
        if c.is_zero():
            return self.zero
        return Scalar(self, {(0,) * self.nparams: c})

    def from_rational(self, r):
        return self.from_cyclo(self.field.from_rational(r))

    def monomial(self, coeff, exps):
        if coeff.is_zero():
            return self.zero
        return Scalar(self, {tuple(exps): coeff})


class Scalar:
    """Sparse Laurent polynomial over Q(zeta_N) in the formal parameters."""

    __slots__ = ("uni", "terms")

    def __init__(self, uni, terms):
        self.uni = uni
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == self.uni.one.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.uni is not other.uni and not self.uni.compatible(other.uni):
            raise ValueError("mismatched scalar universes")

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.uni.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return ((self.uni is other.uni or self.uni.compatible(other.uni))
                and self.terms == other.terms)

    def value_key(self):
        """A hashable key built of ints, tuples and frozensets, whose
        hashing and equality run no Python code, equal exactly for equal
        scalars of one universe: a monomial, the common case, gives its one
        term as (exponents, numerators, denominator), and any other scalar
        the frozenset of its terms."""
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return (e, c.nums, c.den)
        return frozenset((e, c.nums, c.den) for e, c in self.terms.items())

    def __hash__(self):
        return hash(self.value_key())

    def __add__(self, other):
        if not isinstance(other, Scalar):
            # a Frac, or any other operand, takes the sum from the right
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.uni.from_rational(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            accumulate(out, e, c)
        return Scalar(self.uni, out)

    def __neg__(self):
        return Scalar(self.uni, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.uni.from_rational(other)
        return self + (-other)

    def __mul__(self, other):
        if (other.__class__ is Unit and self.__class__ is Unit
                and self.uni is other.uni):
            # unit times unit, the commonest product: the table's unit at
            # the sum of the keys
            uni = self.uni
            (e1, j1), (e2, j2) = self.key, other.key
            key = (tuple(map(add, e1, e2)), (j1 + j2) % uni.field.P)
            hit = uni.units.get(key)
            return hit if hit is not None else uni.from_key(key)
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                if other == 0:
                    return self.uni.zero
                return Scalar(self.uni, {e: c.scale(other)
                                         for e, c in self.terms.items()})
            if not isinstance(other, CycloElement):
                return NotImplemented
            other = self.uni.from_cyclo(other)
        self._check(other)
        if len(self.terms) == 1 and len(other.terms) == 1:
            # monomial times monomial; two tagged roots multiply to a
            # tagged root, so the product of units is the table's Unit
            (e1, c1), = self.terms.items()
            (e2, c2), = other.terms.items()
            c = c1 * c2
            if c.root is not None:
                return self.uni.from_key((tuple(map(add, e1, e2)), c.root))
            if c.is_zero():
                return Scalar(self.uni, {})
            return Scalar(self.uni, {tuple(map(add, e1, e2)): c})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
        return Scalar(self.uni, out)

    __rmul__ = __mul__

    def constant(self):
        """The CycloElement equal to this scalar, or None if any formal
        parameter occurs."""
        if not self.terms:
            return self.uni.field.zero
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if not any(exps):
                return c
        return None

    def as_unit(self):
        """The table's Unit equal to this scalar, or None if it is not a
        monomial with a +-zeta^k coefficient."""
        if len(self.terms) != 1:
            return None
        (exps, c), = self.terms.items()
        if c.root is None:
            c = self.uni.field.as_root(c)
            if c is None:
                return None
        return self.uni.from_key((exps, c.root))

    def __pow__(self, e):
        u = self.as_unit()
        if u is None:
            raise ValueError("only a monomial unit has integer powers")
        return u ** e

    def substitute(self, values):
        """Exact evaluation with each formal parameter set to a nonzero
        rational (an int or a Fraction); returns a CycloElement."""
        values = list(values)
        if len(values) != self.uni.nparams:
            raise ValueError("assignment has wrong length")
        if any(v == 0 for v in values):
            raise ValueError("parameters are units; zero assignment rejected")
        total = self.uni.field.zero
        for exps, c in self.terms.items():
            num = den = 1
            for v, e in zip(values, exps):
                if e > 0:
                    num *= v.numerator ** e
                    den *= v.denominator ** e
                elif e < 0:
                    num *= v.denominator ** -e
                    den *= v.numerator ** -e
            if den < 0:
                num, den = -num, -den
            total = total + c._times_ratio(num, den)
        return total

    def __repr__(self):
        return f"{self.__class__.__name__}({scalar_str(self)})"


class Unit(Scalar):
    """A monomial unit eta^j * t^e: the one-term Scalar {e: eta^j}, with
    its key (e, j), j read from the root's tag.

    Quantum coefficients, their products, and the diagonal characters all
    live here.  Equality and hashing are those of Scalar, so a Unit equals
    the Scalar with the same term; products, powers, negatives and inverses
    of units stay units, taken from the universe's table by their keys.
    """

    __slots__ = ("key",)

    def __init__(self, uni, terms, key=None):
        self.uni = uni
        self.terms = terms
        if key is None:
            (exps, c), = terms.items()
            if c.root is None:
                c = uni.field.as_root(c)
            key = (exps, c.root)
        self.key = key

    @property
    def exps(self):
        """The Laurent exponent vector e."""
        return self.key[0]

    def as_unit(self):
        return self

    def __mul__(self, other):
        # Scalar's product already returns a Unit for two units.  This method
        # exists so that unit products can be traced on their own, and looks
        # Scalar.__mul__ up per call so that a wrapper put there sees them too.
        return Scalar.__mul__(self, other)

    def __neg__(self):
        exps, j = self.key
        P = self.uni.field.P
        return self.uni.from_key((exps, (j + P // 2) % P))

    def __pow__(self, e):
        exps, j = self.key
        return self.uni.from_key((tuple([a * e for a in exps]),
                                  j * e % self.uni.field.P))

    def inv(self):
        return self ** -1


def scalar_str(s):
    """Compact human-readable rendering, e.g. ``-q^2*z + (1/2)``."""
    if s.is_zero():
        return "0"
    names = s.uni.param_names
    parts = []
    for exps in sorted(s.terms):
        c = s.terms[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        coeff = _cyclo_str(c)
        if factors and coeff == "1":
            text = "*".join(factors)
        elif factors and coeff == "-1":
            text = "-" + "*".join(factors)
        elif factors:
            text = coeff + "*" + "*".join(factors)
        else:
            text = coeff
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _cyclo_str(c):
    parts = []
    for k, a in enumerate(c.coeffs):
        if a == 0:
            continue
        if k == 0:
            parts.append(str(a))
        else:
            z = "z" if k == 1 else f"z^{k}"
            if a == 1:
                parts.append(z)
            elif a == -1:
                parts.append("-" + z)
            else:
                parts.append(f"{a}*{z}")
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += p if p.startswith("-") else "+" + p
    if len(parts) > 1 or (text.startswith("-") and "+" in text):
        return "(" + text + ")"
    if "/" in text or (len(parts) == 1 and "+" in text):
        return "(" + text + ")"
    return text


class Frac:
    """Quotient of two scalars, for the few places that divide by a
    non-monomial (the contracting homotopy and exact linear solves).

    No gcd reduction is attempted: the Laurent ring is an integral domain,
    so cross-multiplication decides equality, and a monomial denominator is
    absorbed into the numerator outright.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.uni.one
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        u = den.as_unit()
        if u is not None and not u.is_one():
            num = num * u.inv()
            den = num.uni.one
        if num.is_zero():
            den = num.uni.one
        self.num = num
        self.den = den

    @staticmethod
    def of(x, uni=None):
        if isinstance(x, Frac):
            return x
        if isinstance(x, Scalar):
            return Frac(x)
        if isinstance(x, CycloElement):
            if uni is None:
                raise ValueError("universe required to coerce a field element")
            return Frac(uni.from_cyclo(x))
        if isinstance(x, (int, Fraction)):
            if uni is None:
                raise ValueError("universe required to coerce a rational")
            return Frac(uni.from_rational(x))
        raise TypeError(f"cannot coerce {type(x)!r} to Frac")

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        other = Frac.of(other, self.num.uni)
        if self.den == other.den:
            return Frac(self.num + other.num, self.den)
        return Frac(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-Frac.of(other, self.num.uni))

    def __rsub__(self, other):
        return Frac.of(other, self.num.uni) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Frac(self.num * other, self.den)
        other = Frac.of(other, self.num.uni)
        return Frac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return Frac(self.den, self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Frac.of(other, self.num.uni)
        if not isinstance(other, Frac):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("Frac is unhashable (no canonical form)")

    def __repr__(self):
        if self.den == self.num.uni.one:
            return f"Frac({scalar_str(self.num)})"
        return f"Frac(({scalar_str(self.num)})/({scalar_str(self.den)}))"
