import math
import random
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import qhoch.scalars

from conftest import (S3_MULT, S3_PERMS, perm_sign, random_cyclo,
                      random_scalar)
from qhoch import (Cochain, CycloElement, CycloField, Frac, Scalar, Unit,
                   Universe, average, build_algebra, cyclotomic_polynomial,
                   formal_algebra)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_cyclotomic_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def divisors(N):
    return [d for d in range(1, N + 1) if N % d == 0]


@pytest.mark.parametrize("N", range(1, 201))
def test_cyclotomic_product_identity(N):
    # prod_{d | N} Phi_d = z^N - 1, and deg Phi_N = phi(N)
    prod = (1,)
    for d in divisors(N):
        phi = cyclotomic_polynomial(d)
        out = [0] * (len(prod) + len(phi) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi):
                out[i + j] += a * b
        prod = tuple(out)
    assert prod == (-1,) + (0,) * (N - 1) + (1,)
    phiN = sum(1 for k in range(1, N + 1)
               if __import__("math").gcd(k, N) == 1)
    assert len(cyclotomic_polynomial(N)) - 1 == phiN


def test_cyclotomic_polynomial_105_has_coefficient_minus_two():
    # the least N whose cyclotomic polynomial has a coefficient outside
    # {-1, 0, 1}; 105 = 3 * 5 * 7
    phi = cyclotomic_polynomial(105)
    assert len(phi) - 1 == 48
    assert [k for k, c in enumerate(phi) if c == -2] == [7, 41]
    assert set(phi) == {-2, -1, 0, 1}
    assert all(set(cyclotomic_polynomial(N)) <= {-1, 0, 1}
               for N in range(1, 105))


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 8, 9, 12, 16, 25])
def test_cyclotomic_value_at_one(N):
    # Phi_N(1) is p when N is a prime power p^k and 1 otherwise (N > 1)
    val = sum(cyclotomic_polynomial(N))
    n, p = N, None
    for cand in range(2, N + 1):
        if n % cand == 0:
            p = cand
            while n % cand == 0:
                n //= cand
            break
    expected = p if n == 1 else 1
    assert val == expected


def test_zeta_relations():
    f3 = CycloField(3)
    z = f3.zeta
    assert z * z * z == f3.one
    f4 = CycloField(4)
    assert f4.zeta * f4.zeta == -f4.one
    assert f4.zeta.inv() == -f4.zeta
    f1 = CycloField(1)
    assert f1.zeta == f1.one


def test_cyclo_inverse_example_n3():
    f3 = CycloField(3)
    e = f3.element([1, 1])  # 1 + zeta
    assert e.inv() == f3.element([0, -1])  # -zeta
    assert e * e.inv() == f3.one


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8, 12])
def test_cyclo_inverse_random(N):
    rng = random.Random(100 + N)
    field = CycloField(N)
    count = 0
    while count < 200:
        a = random_cyclo(field, rng)
        if a.is_zero():
            continue
        inv = a.inv()
        assert a * inv == field.one
        assert inv * a == field.one
        count += 1


def test_scalar_ring_axioms_randomized():
    rng = random.Random(7)
    uni = Universe(CycloField(3), ("t", "u"))
    for _ in range(1000):
        a = random_scalar(uni, rng)
        b = random_scalar(uni, rng)
        c = random_scalar(uni, rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_scalar_add_cancellation():
    uni = Universe(CycloField(3), ())
    z = uni.from_cyclo(uni.field.zeta)
    z2 = uni.from_cyclo(uni.field.root(1, 2))
    assert (z + z2) + (-z2) == z


def test_laurent_inverse_monomial():
    uni = Universe(CycloField(1), ("t",))
    t = uni.param_unit(0)
    tinv = uni.param_unit(0).inv()
    assert t * tinv == uni.one


def test_zeta_cubed_reduces():
    uni = Universe(CycloField(3), ())
    z = uni.from_cyclo(uni.field.zeta)
    assert z * z * z == uni.one


def test_scalar_pow_monomials():
    uni = Universe(CycloField(1), ("q",))
    q = uni.param_unit(0)
    minus_q = -q
    assert minus_q ** 0 == uni.one
    # (-q)^{-1} = -q^{-1}
    assert minus_q ** -1 == -(q.inv())
    uni4 = Universe(CycloField(4), ())
    minus_zeta = uni4.unit(sign=-1, zeta=1)
    assert minus_zeta ** 2 == uni4.from_rational(-1)


def test_scalar_pow_rejects_nonmonomial():
    uni = Universe(CycloField(1), ("q",))
    s = uni.one + uni.param_unit(0)
    with pytest.raises(ValueError):
        s ** 2


def test_scalar_pow_additive_in_exponent():
    rng = random.Random(9)
    uni = Universe(CycloField(4), ("t",))
    for _ in range(200):
        s = uni.unit(sign=rng.choice((1, -1)), zeta=rng.randrange(4),
                     exps=(rng.randint(-3, 3),))
        e1, e2 = rng.randint(-4, 4), rng.randint(-4, 4)
        assert s ** e1 * s ** e2 == s ** (e1 + e2)


def test_substitute_examples():
    uni = Universe(CycloField(4), ("t",))
    five = uni.from_rational(5)
    assert five.substitute([Fraction(3)]) == uni.field.from_rational(5)
    t = uni.param_unit(0)
    tinv = uni.param_unit(0).inv()
    s = t + tinv
    assert s.substitute([2]) == uni.field.from_rational(Fraction(5, 2))
    zt = uni.from_cyclo(uni.field.zeta) * t
    assert zt.substitute([3]) == uni.field.zeta.scale(3)


def test_substitute_rejects_zero():
    uni = Universe(CycloField(1), ("t",))
    with pytest.raises(ValueError):
        uni.one.substitute([0])


def test_substitute_is_ring_hom():
    rng = random.Random(21)
    uni = Universe(CycloField(3), ("t", "u"))
    for _ in range(150):
        a = random_scalar(uni, rng)
        b = random_scalar(uni, rng)
        vals = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        assert (a * b).substitute(vals) == a.substitute(vals) * b.substitute(vals)
        assert (a + b).substitute(vals) == a.substitute(vals) + b.substitute(vals)


def test_universe_mismatch_rejected():
    u1 = Universe(CycloField(3), ("t",))
    u2 = Universe(CycloField(4), ("t",))
    with pytest.raises(ValueError):
        u1.one + u2.one


def test_compatible_universes_compare_by_value():
    """Arithmetic mixes compatible universes (same N, same parameter
    names), so == agrees with subtraction there; scalars of incompatible
    universes are never equal."""
    A, B = build_algebra(2, N=3), build_algebra(2, N=3)
    for a, b in ((A.uni.unit(zeta=1), B.uni.unit(zeta=1)),
                 (A.uni.from_rational(2), B.uni.from_rational(2))):
        assert (a - b).is_zero()
        assert a == b and hash(a) == hash(b)
    assert A.uni.unit(zeta=1) != B.uni.unit(zeta=2)
    t = Universe(CycloField(3), ("t",))
    s = Universe(CycloField(3), ("s",))
    assert t.param_unit(0) != s.param_unit(0)
    assert t.one != s.one


def test_scalar_hash_one_term_and_term_order():
    """A one-term scalar hashes its one term and a longer one the set of
    its terms: a Unit and the equal plain Scalar, and multi-term scalars
    built in different term orders, hash alike, find each other as dict
    keys and have equal `value_key`s, which differ for unequal scalars."""
    uni = Universe(CycloField(6), ("t", "u"))
    field = uni.field
    rng = random.Random(17)
    for sign, k, exps in ((1, 0, (0, 0)), (-1, 1, (2, -1)), (1, 5, (-3, 0))):
        u = uni.unit(sign=sign, zeta=k, exps=exps)
        plain = Scalar(uni, {exps: field.element(field.root(sign, k).coeffs)})
        assert type(u) is Unit and type(plain) is Scalar
        assert u == plain and hash(u) == hash(plain)
        assert {u: "unit"}[plain] == "unit" and {plain: "plain"}[u] == "plain"
        assert u.value_key() == plain.value_key()
        assert u.value_key() != (-u).value_key() != (u + u).value_key()
    for size in (2, 3, 5):
        terms = {}
        while len(terms) < size:
            c = random_cyclo(field, rng)
            if not c.is_zero():
                terms[(rng.randint(-3, 3), rng.randint(-3, 3))] = c
        items = list(terms.items())
        forward = uni.zero
        for e, c in items:
            forward = forward + uni.monomial(c, e)
        backward = Scalar(uni, dict(reversed(items)))
        assert list(forward.terms) != list(backward.terms)
        assert forward == backward and hash(forward) == hash(backward)
        assert {forward: size}[backward] == size
        assert {backward: size}[forward] == size
        assert forward.value_key() == backward.value_key()
        assert forward.value_key() != (forward + uni.one).value_key()


@given(num=st.integers(-40, 40), den=st.integers(1, 40),
       e1=st.integers(-5, 5), e2=st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_frac_field_laws(num, den, e1, e2):
    uni = Universe(CycloField(1), ("t",))
    t = uni.param_unit(0)
    a = Frac(uni.from_rational(Fraction(num, den)) + t, uni.one + t * t)
    b = Frac(t * Fraction(e1 or 1), uni.one + t)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * b == a * b + b * b
    if not a.is_zero():
        assert a * a.inv() == Frac(uni.one)


def test_scalar_with_frac_on_the_right():
    """A Scalar or Unit on the left of +, - or * defers to the Frac on the
    right, and gives what the same operation with the Frac on the left
    gives."""
    A = formal_algebra(2)
    uni = A.uni
    assert A.uni.one * Frac(A.uni.one) == Frac(A.uni.one)
    assert A.uni.one + Frac(A.uni.one) == Frac(uni.from_rational(2))
    assert (A.uni.one - Frac(A.uni.one)).is_zero()
    rng = random.Random(5)
    t = uni.param_unit(0)
    for _ in range(40):
        s = random_scalar(uni, rng)
        f = Frac(random_scalar(uni, rng) + t, uni.one + t * t)
        for left in (s, t):
            assert isinstance(left * f, Frac) and left * f == f * left
            assert isinstance(left + f, Frac) and left + f == f + left
            assert isinstance(left - f, Frac) and left - f == -(f - left)


def test_scalar_cancellation_stores_no_key():
    """The Scalar twin of test_linalg's test_cancellation_stores_no_key:
    a term that cancels is dropped, not stored as zero."""
    uni = Universe(CycloField(3), ("t",))
    t = uni.param_unit(0)
    p = (uni.one + t) * (uni.one - t)
    assert p == uni.one - t * t
    assert len(p.terms) == 2
    s = uni.from_rational(2) + t * uni.unit(zeta=1)
    assert (s + (-s)).terms == {}


def test_frac_absorbs_monomial_denominator():
    uni = Universe(CycloField(1), ("t",))
    t = uni.param_unit(0)
    f = Frac(uni.one + t, t)
    assert f.den == uni.one


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 12, 15, 60, 97])
def test_cyclo_inverse_roots_and_rationals(N):
    field = CycloField(N)
    # zeta^k by the dense Fraction reference product, independent of the
    # tagged roots that the inverse returns
    modulus = cyclotomic_polynomial(N)
    powers = [field.one.coeffs]
    for _ in range(N - 1):
        powers.append(_reference_mul(powers[-1], field.zeta.coeffs, modulus))
    for k in range(N):
        for sign in (1, -1):
            want = tuple(sign * c for c in powers[(-k) % N])
            tagged = field.root(sign, k)
            untagged = field.element(tagged.coeffs)
            assert untagged.root is None
            for x in (tagged, untagged):
                inv = x.inv()
                assert inv.coeffs == want
                assert x * inv == field.one
    for r in (Fraction(2), Fraction(-3, 7), Fraction(5, 4)):
        x = field.from_rational(r)
        inv = x.inv()
        assert inv.coeffs == (1 / r,) + (Fraction(0),) * (field.degree - 1)
        assert x * inv == field.one


@lru_cache(maxsize=None)
def _universe(N, nparams):
    return Universe(CycloField(N), ("t", "u")[:nparams])


@given(N=st.sampled_from((1, 3, 4, 6)), nparams=st.sampled_from((1, 2)),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_unit_is_its_one_term_scalar(N, nparams, data):
    """A Unit is the one-term Scalar {exps: field.root(sign, k)}: equal,
    with the same hash, and its products, powers, negation and inverse are
    the generic Scalar results, computed here on plain Scalars whose
    coefficients carry no root tag."""
    uni = _universe(N, nparams)
    field = uni.field

    def draw():
        sign = data.draw(st.sampled_from((1, -1)))
        k = data.draw(st.integers(-2 * N, 2 * N))
        exps = tuple(data.draw(st.integers(-3, 3)) for _ in range(nparams))
        u = uni.unit(sign=sign, zeta=k, exps=exps)
        tagged = Scalar(uni, {exps: field.root(sign, k)})
        plain = Scalar(uni, {exps: field.element(field.root(sign, k).coeffs)})
        assert type(u) is Unit and type(tagged) is type(plain) is Scalar
        assert u == tagged == plain and tagged == u and plain == u
        assert hash(u) == hash(tagged) == hash(plain)
        assert u.exps == exps
        return u, plain

    (u, s), (v, t) = draw(), draw()
    e = data.draw(st.integers(-4, 4))
    (exps, c), = s.terms.items()
    s_inv = Scalar(uni, {tuple(-a for a in exps): c.inv()})
    power = Scalar(uni, {(0,) * nparams: field.element(field.one.coeffs)})
    for _ in range(abs(e)):
        power = power * (s if e > 0 else s_inv)
    for got, want in ((u * v, s * t), (u ** e, power), (-u, -s),
                      (u.inv(), s_inv)):
        assert type(got) is Unit
        assert got == want and hash(got) == hash(want)
    assert u * t == s * t == t * u
    assert u.inv() * s == uni.one
    assert s ** e == u ** e


@given(N=st.sampled_from((1, 2, 3, 4, 12, 60)),
       nparams=st.sampled_from((0, 1, 2)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_unit_sum_is_the_running_sum_of_its_units(N, nparams, data):
    """`Universe.unit_sum` of counts of keys (exps, j) equals the running
    Scalar sum of the counted Units, each made from a sign and a zeta power
    of any size, for negative and zero counts, and families that cancel
    (1 + zeta + zeta^2 at N = 3, zeta^k + zeta^(k + N/2) at even N,
    zeta^k - zeta^k at any N); a result that is +-zeta^k * t^e is a Unit
    whose coefficient is a tagged root."""
    uni = _universe(N, nparams)
    field = uni.field
    exps = st.tuples(*[st.integers(-2, 2)] * nparams)
    ks = st.integers(-3 * N, 3 * N)
    spelled = data.draw(st.lists(st.tuples(
        exps, st.sampled_from((1, -1)), ks, st.integers(-3, 3)), max_size=6))
    e, k = data.draw(exps), data.draw(ks)
    count = data.draw(st.integers(-3, 3).filter(bool))
    families = [[(e, 1, k, count), (e, -1, k, count)]]
    if N == 3:
        families.append([(e, 1, k + i, count) for i in range(3)])
    if N % 2 == 0:
        families.append([(e, 1, k, count), (e, 1, k + N // 2, count)])
    family = data.draw(st.sampled_from(families))
    if data.draw(st.booleans()):
        spelled += family

    def keyed(units):
        counts = {}
        for u_exps, sign, u_k, c in units:
            key = (u_exps, field.exponent(sign, u_k))
            counts[key] = counts.get(key, 0) + c
        return counts

    assert uni.unit_sum(keyed(family)).is_zero()
    got = uni.unit_sum(keyed(spelled))
    want = uni.zero
    for u_exps, sign, u_k, c in spelled:
        want = want + uni.unit(sign=sign, zeta=u_k, exps=u_exps) * c
    assert got == want and hash(got) == hash(want)
    for coeff in got.terms.values():
        _canonical(coeff)
    if want.as_unit() is not None:
        (coeff,) = got.terms.values()
        assert type(got) is Unit and coeff.root is not None
        assert got is want.as_unit()
    else:
        assert type(got) is Scalar


@given(N=st.sampled_from((1, 2, 3, 4, 6, 60)),
       nparams=st.sampled_from((0, 1, 2)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_unit_keys_are_canonical(N, nparams, data):
    """The key (e, j) of +-zeta^k * t^e, 0 <= j < P = lcm(2, N), names the
    root eta^j with eta^(P/N) = zeta and eta^(P/2) = -1: the keys of two
    units are equal exactly when the units are, negation adds P/2 to j,
    and a Unit built outside the table, from a plain coefficient, gets the
    same key."""
    uni = _universe(N, nparams)
    field = uni.field
    P = math.lcm(2, N)
    assert field.P == P
    # at N = 1, zeta = 1 = eta^2
    assert field.zeta.root == P // N % P and field.root(1, 1) is field.zeta
    assert field.root(-1, 0).root == P // 2 and field.one.root == 0
    assert field.root(-1, 0) == -field.one

    def draw():
        sign = data.draw(st.sampled_from((1, -1)))
        k = data.draw(st.integers(-2 * N, 2 * N))
        exps = tuple(data.draw(st.integers(-2, 2)) for _ in range(nparams))
        return sign, k, exps, uni.unit(sign=sign, zeta=k, exps=exps)

    (s1, k1, e1, u), (s2, k2, e2, v) = draw(), draw()
    for sign, k, exps, w in ((s1, k1, e1, u), (s2, k2, e2, v)):
        j = w.key[1]
        assert w.key[0] == exps and 0 <= j < P
        assert j == (P // N * k + (P // 2 if sign == -1 else 0)) % P
        assert (-w).key == (exps, (j + P // 2) % P)
        plain = Unit(uni, {exps: field.element(field.root(sign, k).coeffs)})
        assert plain.key == w.key
    same_value = Scalar(uni, {e1: field.element(
        field.root(s1, k1).coeffs)}) == Scalar(uni, {e2: field.element(
            field.root(s2, k2).coeffs)})
    assert (u.key == v.key) == same_value == (u is v)


# ---------------------------------------------------------------------------
# the integer kernel against a dense Fraction reference
# ---------------------------------------------------------------------------

def _reference_mul(a, b, modulus):
    """Product of two coordinate vectors of Fractions: the polynomial
    product reduced modulo the monic cyclotomic polynomial."""
    d = len(modulus) - 1
    out = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = out.pop()
        for i in range(d):
            out[k - d + i] -= c * modulus[i]
    return tuple(out)


def _canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert all(type(a) is int for a in x.nums + (x.den,))
    if not any(x.nums):
        assert x.den == 1
    assert x.coeffs == tuple(Fraction(a, x.den) for a in x.nums)


@given(N=st.sampled_from((1, 2, 3, 4, 5, 12, 60, 84)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_cyclo_kernel_matches_fraction_reference(N, data):
    """+, -, *, scale and inv on integer numerators over one denominator
    agree with the same operations on Fraction coordinates, and every
    result is in canonical form, so equal values are equal and hash alike."""
    field = CycloField(N)
    d = field.degree

    def draw():
        if data.draw(st.integers(0, 4)) == 0:
            return field.root(data.draw(st.sampled_from((1, -1))),
                              data.draw(st.integers(0, N - 1)))
        # mostly zero coordinates give remainder sequences that drop
        # several degrees at once
        coord = st.one_of(st.just(Fraction(0)),
                          st.fractions(-30, 30, max_denominator=12))
        return field.element(data.draw(st.lists(coord, min_size=d,
                                                max_size=d)))

    a, b = draw(), draw()
    r = data.draw(st.fractions(-10, 10, max_denominator=9))
    ra, rb = a.coeffs, b.coeffs
    modulus = cyclotomic_polynomial(N)
    for got, want in ((a + b, tuple(x + y for x, y in zip(ra, rb))),
                      (a - b, tuple(x - y for x, y in zip(ra, rb))),
                      (-a, tuple(-x for x in ra)),
                      (a * b, _reference_mul(ra, rb, modulus)),
                      (a.scale(r), tuple(x * r for x in ra)),
                      (a * 3, tuple(x * 3 for x in ra))):
        _canonical(got)
        assert got.coeffs == want
        twin = field.element(want)
        assert got == twin and hash(got) == hash(twin)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    if not a.is_zero():
        inv = a.inv()
        _canonical(inv)
        one = (Fraction(1),) + (Fraction(0),) * (d - 1)
        assert _reference_mul(ra, inv.coeffs, modulus) == one
        assert a * inv == field.one and hash(a * inv) == hash(field.one)


@given(N=st.sampled_from((5, 12, 60)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_cyclo_inverse_runs_euclid_once_per_primitive_value(N, data):
    """x * x.inv() == 1, and x, 3x and -x/2, which differ only in content
    and sign, cost at most one run of `_inverse_mod` between them: none
    when each is a rational or a root of unity (3 zeta^k is neither, but
    shares its run with -zeta^k / 2)."""
    field = CycloField(N)
    d = field.degree
    if data.draw(st.integers(0, 4)) == 0:
        x = field.root(data.draw(st.sampled_from((1, -1))),
                       data.draw(st.integers(0, N - 1)))
    else:
        coord = st.one_of(st.just(0), st.integers(-30, 30))
        den = data.draw(st.integers(1, 12))
        x = field.element([Fraction(a, den) for a in data.draw(
            st.lists(coord, min_size=d, max_size=d))])
    assume(not x.is_zero())
    family = (x, x * 3, x.scale(Fraction(-1, 2)))
    runs = []
    real = qhoch.scalars._inverse_mod

    def spy(*args):
        runs.append(args)
        return real(*args)

    with patch.object(qhoch.scalars, "_inverse_mod", spy):
        for y in family:
            inv = y.inv()
            _canonical(inv)
            assert y * inv == field.one
    euclid = any(field.as_root(y) is None and any(y.nums[1:])
                 for y in family)
    assert len(runs) == euclid


# ---------------------------------------------------------------------------
# the universe's table of units
# ---------------------------------------------------------------------------

@given(N=st.sampled_from((1, 2, 3, 4, 6, 60)),
       nparams=st.sampled_from((0, 1, 2)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_equal_unit_keys_give_one_object(N, nparams, data):
    """Every unit is read from its universe's table by its key, so units
    of one value made in different ways are one object: the product of two
    units, as_unit of a tagged or a plain one-term Scalar, negation, powers
    and inverses."""
    uni = _universe(N, nparams)
    field = uni.field

    def draw():
        sign = data.draw(st.sampled_from((1, -1)))
        k = data.draw(st.integers(-2 * N, 2 * N))
        exps = tuple(data.draw(st.integers(-3, 3)) for _ in range(nparams))
        return sign, k, exps, uni.unit(sign=sign, zeta=k, exps=exps)

    (s1, k1, e1, u), (s2, k2, e2, v) = draw(), draw()
    product_exps = tuple(a + b for a, b in zip(e1, e2))
    assert u * v is v * u is uni.unit(sign=s1 * s2, zeta=k1 + k2,
                                      exps=product_exps)
    assert uni.unit(sign=s1, zeta=k1 + N, exps=e1) is u
    assert u.as_unit() is u
    tagged = Scalar(uni, {e1: field.root(s1, k1)})
    plain = Scalar(uni, {e1: field.element(field.root(s1, k1).coeffs)})
    assert tagged.as_unit() is plain.as_unit() is u
    assert -u is uni.unit(sign=-s1, zeta=k1, exps=e1) and -(-u) is u
    e = data.draw(st.integers(-4, 4))
    assert u ** e is u.inv() ** -e
    assert u.inv() is u ** -1
    assert u * u.inv() is u ** 0 is uni.one
    assert u.key in uni.units and uni.units[u.key] is u


@pytest.mark.parametrize("N", [1, 3, 4, 60])
def test_unit_outside_the_table_compares_and_multiplies_by_value(N):
    """Equality never needs the table: a Unit built directly, with a tagged
    or a plain coefficient, and a unit of a compatible second universe
    equal the table's unit of their value, hash alike and multiply to the
    same products."""
    uni = Universe(CycloField(N), ("t", "u"))
    other = Universe(CycloField(N), ("t", "u"))
    field = uni.field
    for sign, k, exps in ((1, 0, (0, 0)), (-1, 1, (2, -1)), (1, 2, (-3, 0))):
        u = uni.unit(sign=sign, zeta=k, exps=exps)
        v = uni.unit(sign=-1, zeta=k + 1, exps=(1, 1))
        root = field.root(sign, k)
        built = (Unit(uni, {exps: root}),
                 Unit(uni, {exps: field.element(root.coeffs)}),
                 other.unit(sign=sign, zeta=k, exps=exps))
        for w in built:
            assert w is not u
            assert w == u and u == w and hash(w) == hash(u)
            for got in (w * v, v * w, w * w.inv(), w ** 3, -w):
                assert type(got) is Unit
            assert w * v == u * v and v * w == v * u
            assert w * w.inv() == uni.one and w ** 3 == u ** 3
            assert -w == -u and (w - u).is_zero()
            assert w * Scalar(uni, {}) == uni.zero


def _assert_one_form(x):
    """A field element equal to +-zeta^k is the tagged root, and a scalar
    equal to a monomial unit is its table's Unit."""
    if isinstance(x, CycloElement):
        root = x.field.as_root(x)
        assert root is None or x is root
        return
    for c in x.terms.values():
        _assert_one_form(c)
    unit = x.as_unit()
    assert unit is None or x is unit


@lru_cache(maxsize=None)
def _s3_acting_trivially(N, nparams):
    """S3 acting trivially over Q(zeta_N), with q formal or -1: a term on
    a transposition averages to a third on each of the three, so the
    orbit sum of three terms averages to three thirds on each."""
    q = {} if nparams else {(0, 1): ("rational", -1)}
    return build_algebra(2, N=N, q_spec=q, group_spec=(
        "table", S3_MULT, [[(1, 0)] * 2] * len(S3_PERMS)))


@given(N=st.sampled_from((1, 3, 4, 60)), nparams=st.sampled_from((0, 1)),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_result_has_its_one_form(N, nparams, data):
    """Every field result equal to +-zeta^k is the tagged root, and every
    scalar result equal to a monomial unit is the table's Unit: sums,
    differences, products, products with a Fraction, `unit_sum` and
    `average`, on operands that are not units but give one (3 zeta * 1/3,
    (u + s) - s, c * c^-1, three thirds of a unit)."""
    A = _s3_acting_trivially(N, nparams)
    uni, field = A.uni, A.uni.field
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    sign = data.draw(st.sampled_from((1, -1)))
    k = data.draw(st.integers(-N, N))
    exps = tuple(data.draw(st.integers(-2, 2)) for _ in range(nparams))
    other = tuple(data.draw(st.integers(-2, 2)) for _ in range(nparams))
    u = uni.unit(sign=sign, zeta=k, exps=exps)
    root = field.root(sign, k)
    r = data.draw(st.fractions(-9, 9, max_denominator=9).filter(bool))
    # field.element tags no root, so the drawn operands are no roots;
    # every value built from them below is an arithmetic result
    c, d = random_cyclo(field, rng), random_cyclo(field, rng)
    assume(c and field.as_root(c) is None and field.as_root(d) is None)
    m = uni.monomial(c, exps)
    s = m * r + uni.monomial(d, other)
    fields = [root.scale(r).scale(1 / r), (root + c) - c, c + (root - c),
              root * c * c.inv(), c * c.inv(), (root * c).inv() * c,
              c.scale(r) + c.scale(1 - r)]
    scalars = [(u + s) - s, s + (u - s), u * r * (1 / r),
               u * r + u * (1 - r), u * m * uni.monomial(c.inv(), exps),
               m * uni.monomial(c.inv(), tuple(-a for a in exps)),
               uni.monomial(root.scale(r), exps) * (1 / r),
               uni.unit_sum({u.key: 2, (-u).key: 1}),
               uni.unit_sum({u.key: 3, (-u).key: 1, uni.one.key: 0})]
    for x in fields:
        _assert_one_form(x)
    assert fields[0] is fields[1] is fields[2] is fields[3] is root
    for x in scalars:
        _assert_one_form(x)
    assert scalars[0] is scalars[1] is scalars[2] is scalars[3] is u
    assert scalars[5] is uni.one and scalars[7] is u
    alpha, beta = (0, 0), (1, 1)
    transpositions = [g for g, p in enumerate(S3_PERMS) if perm_sign(p) < 0]
    assert len(transpositions) == 3
    orbit = Cochain(A, 2, {(alpha, beta, g): u for g in transpositions})
    for coeff in (u, u * r, s):
        mean = average(A, orbit.scale(coeff))
        for x in mean.terms.values():
            _assert_one_form(x)
    assert average(A, orbit).terms == orbit.terms
    assert all(x is u for x in average(A, orbit).terms.values())


def test_arithmetic_converts_no_stray_operand():
    """Scalar and Frac arithmetic takes Scalars and Fracs, and an int or a
    Fraction only as a factor: an int, a Fraction or a field element
    anywhere else is a TypeError.  Equality still compares an int or a
    Fraction by value."""
    uni = Universe(CycloField(3), ("t",))
    s = uni.one + uni.param_unit(0)
    zeta = uni.field.zeta
    for op in (lambda: s + 1, lambda: 1 + s, lambda: s - Fraction(1, 2),
               lambda: s * zeta, lambda: zeta * s, lambda: Frac.of(1),
               lambda: Frac.of(zeta), lambda: Frac(s) + 1):
        with pytest.raises(TypeError):
            op()
    assert uni.one == 1 and uni.from_rational(-2) == -2 and s != 1
    assert uni.from_rational(Fraction(1, 2)) * 2 == 1
    half = Frac(uni.from_rational(Fraction(1, 2)))
    assert half == Fraction(1, 2) and half * Fraction(4) == 2
    assert Frac(s) == s and Frac(s) - Frac(s) == 0


def test_threads_racing_on_the_unit_table_share_one_winner():
    """Units made at once by more threads than cores, with the switch
    interval shortened, are one object per key: `setdefault` lets exactly
    one entry win and every thread reads that entry."""
    uni = Universe(CycloField(12), ("t",))
    keys = [(sign, k, (e,)) for sign in (1, -1) for k in range(12)
            for e in range(-2, 3)]
    seen = [None] * 6
    start = threading.Barrier(len(seen))

    def work(slot):
        start.wait(timeout=10)
        got = {}
        for _ in range(3):
            for sign, k, exps in keys:
                u = uni.unit(sign=sign, zeta=k, exps=exps)
                v = u * uni.one
                got.setdefault(u.key, set()).update((id(u), id(v)))
        seen[slot] = got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(seen))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got is not None for got in seen)
    for key, u in uni.units.items():
        for got in seen:
            assert got.get(key, {id(u)}) == {id(u)}
    # at even N the keys of -zeta^k and zeta^(k + 6) agree
    assert len(uni.units) == len(seen[0]) == 12 * 5
