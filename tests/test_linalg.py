"""The sparse-vector arithmetic shared by the four formal-sum classes."""

import random
from itertools import product

import pytest

from conftest import random_scalar
from qhoch import Cochain, SkewElement, Tensor, Tensor2
from qhoch.resolution import compositions

CLASSES = (Cochain, SkewElement, Tensor, Tensor2)


def empty(cls, A, degree=1):
    return Cochain(A, degree) if cls is Cochain else cls(A)


def sample(cls, A):
    """A two-term element built through the class's own constructors."""
    two = A.uni.from_rational(2)
    if cls is Cochain:
        return (Cochain.basis(A, (1, 0), (0, 1), 0)
                + Cochain.basis(A, (0, 1), (1, 0), 0, two))
    if cls is SkewElement:
        return (SkewElement.basis(A, (1, 0), 0)
                + SkewElement.basis(A, (0, 1), 0).scale(two))
    if cls is Tensor:
        return Tensor.generator(A, (1, 0)) + Tensor.generator(A, (0, 1), two)
    return (Tensor2.generator(A, (1, 0), (0, 1), (0, 0))
            + Tensor2.generator(A, (0, 0), (1, 0), (0, 1), two))


def with_terms(cls, A, terms):
    return Cochain(A, 1, terms) if cls is Cochain else cls(A, terms)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_cancellation_stores_no_key(A2, cls):
    v = sample(cls, A2)
    assert len(v.terms) == 2
    zero = empty(cls, A2)
    for diff in (v - v, v + (-v)):
        assert diff.terms == {}
        assert diff.is_zero()
        assert diff == zero
    assert v.scale(0).terms == {}
    assert v.scale(A2.uni.zero).terms == {}
    assert v.scale(1) == v


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_classes_with_equal_terms_differ(A2, cls):
    # a key shape every class accepts: (alpha, beta, g) with |beta| = 1
    terms = {((0, 0), (1, 0), 0): A2.uni.one}
    v = with_terms(cls, A2, dict(terms))
    assert v == with_terms(cls, A2, dict(terms))
    for other in CLASSES:
        if other is not cls:
            assert v != with_terms(other, A2, dict(terms))
            assert empty(cls, A2) != empty(other, A2)


def test_cochain_zero_and_degree_rules(A2):
    c = sample(Cochain, A2)
    assert Cochain(A2, 0) == Cochain(A2, 3)
    assert Cochain(A2, 3) + c is c
    assert c + Cochain(A2, 3) is c
    d = Cochain.basis(A2, (0, 0), (2, 0), 0)
    with pytest.raises(ValueError):
        c + d
    with pytest.raises(ValueError):
        d - c
    with pytest.raises(ValueError):
        Cochain(A2, 2, {((0, 0), (1, 0), 0): A2.uni.one})


@pytest.mark.parametrize("name", ["A2", "Ad3"])
def test_cochain_subtraction_adds_the_negation(name, request):
    """a - b == a + (-b) on random cochains (Laurent coefficients, keys
    shared between a and b so that terms cancel), with a zero cochain of
    another degree on either side, and with the same ValueError as + when
    two nonzero cochains differ in degree."""
    A = request.getfixturevalue(name)
    rng = random.Random(21)

    def draw(m):
        keys = [(a, b, g) for b in compositions(A.n, m)
                for a in product((0, 1), repeat=A.n)
                for g in range(A.group.order)]
        return Cochain(A, m, {k: random_scalar(A.uni, rng)
                              for k in rng.sample(keys, min(4, len(keys)))})

    for _ in range(60):
        m = rng.randrange(4)
        a, b = draw(m), draw(m)
        for k in rng.sample(sorted(b.terms), len(b.terms) // 2):
            a.terms[k] = b.terms[k]  # equal coefficients cancel in a - b
        assert a - b == a + (-b)
        assert (a - b).degree == m
        assert not any(v.is_zero() for v in (a - b).terms.values())
        other = Cochain(A, m + 1 + rng.randrange(3))
        for x, y in ((a, other), (other, b), (other, other)):
            assert x - y == x + (-y)
            assert (x - y).degree == (x + (-y)).degree
        c = draw(m + 1)
        if not (a.is_zero() or c.is_zero()):
            for x, y in ((a, c), (c, a)):
                with pytest.raises(ValueError):
                    x + (-y)
                with pytest.raises(ValueError):
                    x - y
