"""Exact scalar arithmetic: cyclotomic rationals extended by formal parameters.

A scalar is a finite sum ``sum_e c_e * t^e`` where ``e`` runs over integer
exponent vectors (one slot per formal parameter, Laurent exponents) and each
coefficient ``c_e`` lies in the cyclotomic field Q(zeta_N).  Field elements
are coordinate vectors in the power basis ``1, zeta, ..., zeta^{phi(N)-1}``
reduced modulo the N-th cyclotomic polynomial, so representatives are unique
and equality is structural.  No floating point is used anywhere.

The monomial units ``+-zeta^k * t^e`` (the quantum coefficients, the
diagonal characters and their products) are `Unit`s: one-term Scalars whose
coefficient is the tagged root ``field.root(sign, k)``.  They compare and
hash as the Scalars they are.  A product of two monomials whose
coefficients are tagged roots is a Unit; the subclass only adds the powers
and inverses that stay inside the units.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .linalg import accumulate

QQ = Fraction


# ---------------------------------------------------------------------------
# integer/rational polynomial helpers (dense, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _poly_divmod(num, den):
    """Exact division with remainder over the rationals."""
    num = [QQ(c) for c in num]
    den = [QQ(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [QQ(0)] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / lead
        quot[k] = c
        if c:
            for j, b in enumerate(den):
                num[k + j] -= c * b
    rem = tuple(_poly_trim(tuple(num)))
    return tuple(quot), rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N):
    """Coefficients (low degree first) of the N-th cyclotomic polynomial.

    Computed by exact division: Phi_N = (z^N - 1) / prod_{d | N, d < N} Phi_d.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if N == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (N - 1) + (1,)
    for d in range(1, N):
        if N % d == 0:
            quot, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
            num = quot
    return tuple(int(c) for c in num)


# ---------------------------------------------------------------------------
# the cyclotomic field Q(zeta_N)
# ---------------------------------------------------------------------------

class CycloField:
    """Q(zeta_N) with canonical representatives modulo Phi_N."""

    __slots__ = ("N", "degree", "modulus", "_zrows", "_unit_table",
                 "_roots", "_shifts", "zero", "one", "zeta")

    def __init__(self, N):
        if N < 1:
            raise ValueError("N must be a positive integer")
        self.N = N
        self.modulus = cyclotomic_polynomial(N)
        self.degree = len(self.modulus) - 1
        # rows of z^k reduced mod Phi_N, for k = 0 .. max(N-1, 2*degree-2)
        rows = []
        row = [QQ(0)] * self.degree
        row[0] = QQ(1)
        rows.append(tuple(row))
        top = max(N - 1, 2 * self.degree - 2)
        for _ in range(top):
            row = [QQ(0)] + list(rows[-1])
            lead = row.pop()  # coefficient of z^degree
            if lead:
                for i in range(self.degree):
                    row[i] -= lead * self.modulus[i]
            rows.append(tuple(row))
        self._zrows = tuple(rows)
        self._roots = {}
        self._shifts = {}
        self.zero = CycloElement(self, (QQ(0),) * self.degree)
        self.one = self.root(1, 0)
        self.zeta = self.root(1, 1)
        table = {}
        for k in range(N):
            table[self._zrows[k]] = (1, k)
            table[tuple(-c for c in self._zrows[k])] = (-1, k)
        self._unit_table = table

    def element(self, coeffs):
        coeffs = tuple(QQ(c) for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError("coefficient vector has wrong length")
        return CycloElement(self, coeffs)

    def from_rational(self, r):
        coeffs = [QQ(0)] * self.degree
        coeffs[0] = QQ(r)
        return CycloElement(self, tuple(coeffs))

    def root(self, sign, k):
        """The element sign * zeta^k, tagged as a root of unity so that
        products with it skip the generic multiplication."""
        k %= self.N
        if sign == -1 and self.N % 2 == 0:
            sign, k = 1, (k + self.N // 2) % self.N
        hit = self._roots.get((sign, k))
        if hit is None:
            row = self._zrows[k]
            if sign == -1:
                row = tuple(-c for c in row)
            hit = CycloElement(self, row, (sign, k))
            self._roots[(sign, k)] = hit
        return hit

    def shift_rows(self, k):
        """Sparse rows of zeta^(i+k) for i < degree: multiplying by zeta^k
        maps coordinate i onto row i."""
        rows = self._shifts.get(k)
        if rows is None:
            rows = tuple(tuple((j, c) for j, c in
                               enumerate(self._zrows[(i + k) % self.N]) if c)
                         for i in range(self.degree))
            self._shifts[k] = rows
        return rows

    def root_of_unity_exponent(self, elem):
        """(sign, k) with elem == sign * zeta^k, or None."""
        return self._unit_table.get(elem.coeffs)

    def __repr__(self):
        return f"CycloField({self.N})"


class CycloElement:
    """An element of Q(zeta_N), exact and canonical.

    ``root`` is (sign, k) when the element was built as sign * zeta^k by
    `CycloField.root`, else None; it only selects a faster product.
    """

    __slots__ = ("field", "coeffs", "root")

    def __init__(self, field, coeffs, root=None):
        self.field = field
        self.coeffs = coeffs
        self.root = root

    def is_zero(self):
        if self.root is not None:
            return False
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        # two builds of Q(zeta_N) share coordinates, as Scalar._check allows
        return (isinstance(other, CycloElement)
                and (self.field is other.field
                     or self.field.N == other.field.N)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return CycloElement(self.field, tuple(a + b for a, b in
                                              zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return CycloElement(self.field, tuple(a - b for a, b in
                                              zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        if self.root is not None:
            return self.field.root(-self.root[0], self.root[1])
        return CycloElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, CycloElement):
            # tested this way round: isinstance against Fraction, an ABC,
            # costs more than a root-by-root product
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            q = QQ(other)
            return CycloElement(f, tuple(a * q for a in self.coeffs))
        if self.root is not None:
            if other.root is not None:
                return f.root(self.root[0] * other.root[0],
                              self.root[1] + other.root[1])
            return other._times_root(self.root)
        if other.root is not None:
            return self._times_root(other.root)
        d = f.degree
        out = [QQ(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        low = out[:d]
        for k in range(d, 2 * d - 1):
            c = out[k]
            if c:
                row = f._zrows[k]
                for i in range(d):
                    if row[i]:
                        low[i] += c * row[i]
        return CycloElement(f, tuple(low))

    __rmul__ = __mul__

    def _times_root(self, root):
        """Product with sign * zeta^k: a signed sum of shifted rows."""
        sign, k = root
        out = [QQ(0)] * self.field.degree
        for a, row in zip(self.coeffs, self.field.shift_rows(k)):
            if a:
                if sign == -1:
                    a = -a
                for j, c in row:
                    out[j] += a * c
        return CycloElement(self.field, tuple(out))

    def scale(self, r):
        q = QQ(r)
        return CycloElement(self.field, tuple(a * q for a in self.coeffs))

    def inv(self):
        """Multiplicative inverse: sign * zeta^-k for a root of unity, the
        reciprocal for a rational, else by the extended Euclidean
        algorithm against the cyclotomic modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        f = self.field
        root = self.root or f.root_of_unity_exponent(self)
        if root is not None:
            return f.root(root[0], -root[1])
        if not any(self.coeffs[1:]):
            return f.from_rational(1 / self.coeffs[0])
        r0 = tuple(QQ(c) for c in f.modulus)
        r1 = _poly_trim(self.coeffs)
        s0, s1 = (), (QQ(1),)
        while r1:
            q, r = _poly_divmod(r0, r1)
            qs1 = _poly_mul(q, s1)
            width = max(len(s0), len(qs1))
            s = _poly_trim(tuple((s0[i] if i < len(s0) else QQ(0))
                                 - (qs1[i] if i < len(qs1) else QQ(0))
                                 for i in range(width)))
            r0, r1, s0, s1 = r1, r, s1, s
        # r0 is the gcd, a nonzero constant since Phi_N is irreducible over Q
        if len(r0) != 1:
            raise ArithmeticError("element is a zero divisor; modulus not irreducible?")
        c = r0[0]
        coeffs = [QQ(0)] * f.degree
        for i, a in enumerate(s0):
            coeffs[i] = a / c
        return CycloElement(f, tuple(coeffs))

    def __repr__(self):
        return f"Cyclo{self.coeffs}"


# ---------------------------------------------------------------------------
# the scalar ring and its monomial units
# ---------------------------------------------------------------------------

class Universe:
    """Shared context: the cyclotomic field plus the formal parameter slots."""

    __slots__ = ("field", "nparams", "param_names", "zero", "one")

    def __init__(self, field, param_names=()):
        self.field = field
        self.param_names = tuple(param_names)
        self.nparams = len(self.param_names)
        self.zero = Scalar(self, {})
        self.one = self.unit()

    def compatible(self, other):
        return (self.field.N == other.field.N
                and self.param_names == other.param_names)

    def unit(self, sign=1, zeta=0, exps=None):
        """The monomial unit sign * zeta^zeta * t^exps."""
        if exps is None:
            exps = (0,) * self.nparams
        return Unit(self, {tuple(exps): self.field.root(sign, zeta)})

    def param_unit(self, index):
        exps = [0] * self.nparams
        exps[index] = 1
        return self.unit(exps=exps)

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

    def __hash__(self):
        return hash(frozenset((e, c.coeffs) for e, c in self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.uni.from_rational(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            accumulate(out, e, c)
        return Scalar(self.uni, out)

    def __neg__(self):
        return self.__class__(self.uni, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.uni.from_rational(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                if other == 0:
                    return self.uni.zero
                return Scalar(self.uni, {e: c.scale(other)
                                         for e, c in self.terms.items()})
            if isinstance(other, CycloElement):
                other = self.uni.from_cyclo(other)
        self._check(other)
        if len(self.terms) == 1 and len(other.terms) == 1:
            # monomial times monomial, the common case; two tagged roots
            # multiply to a tagged root, so the product of units is a Unit
            (e1, c1), = self.terms.items()
            (e2, c2), = other.terms.items()
            c = c1 * c2
            if c.root is not None:
                return Unit(self.uni, {tuple(map(add, e1, e2)): c})
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
        """The Unit equal to this scalar, or None if it is not a monomial
        with a +-zeta^k coefficient."""
        if len(self.terms) != 1:
            return None
        (exps, c), = self.terms.items()
        hit = c.root or self.uni.field.root_of_unity_exponent(c)
        if hit is None:
            return None
        return Unit(self.uni, {exps: self.uni.field.root(*hit)})

    def __pow__(self, e):
        u = self.as_unit()
        if u is None:
            raise ValueError("only a monomial unit has integer powers")
        return u ** e

    def substitute(self, values):
        """Exact evaluation with each formal parameter set to a nonzero
        rational; returns a CycloElement."""
        values = [QQ(v) for v in values]
        if len(values) != self.uni.nparams:
            raise ValueError("assignment has wrong length")
        if any(v == 0 for v in values):
            raise ValueError("parameters are units; zero assignment rejected")
        total = self.uni.field.zero
        for exps, c in self.terms.items():
            factor = QQ(1)
            for v, e in zip(values, exps):
                factor *= v ** e
            total = total + c.scale(factor)
        return total

    def __repr__(self):
        return f"{self.__class__.__name__}({scalar_str(self)})"


class Unit(Scalar):
    """A monomial unit sign * zeta^k * t^e: the one-term Scalar
    {e: field.root(sign, k)}.

    Quantum coefficients, their products, and the diagonal characters all
    live here.  Equality and hashing are those of Scalar, so a Unit equals
    the Scalar with the same term; products, powers and inverses of units
    stay units.
    """

    __slots__ = ()

    @property
    def exps(self):
        """The Laurent exponent vector e."""
        return next(iter(self.terms))

    def __mul__(self, other):
        # Scalar's product already returns a Unit for two units.  This method
        # exists so that unit products can be traced on their own, and looks
        # Scalar.__mul__ up per call so that a wrapper put there sees them too.
        return Scalar.__mul__(self, other)

    def __pow__(self, e):
        (exps, c), = self.terms.items()
        sign, k = c.root
        return Unit(self.uni, {tuple([a * e for a in exps]):
                               self.uni.field.root(sign if e % 2 else 1,
                                                   k * e)})

    def inv(self):
        return self ** -1


def scalar_str(s, param_names=None):
    """Compact human-readable rendering, e.g. ``-q^2*z + (1/2)``."""
    if s.is_zero():
        return "0"
    names = param_names or s.uni.param_names
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
