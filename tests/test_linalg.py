"""The sparse-vector arithmetic shared by the four formal-sum classes."""

import pytest

from qhoch import Cochain, SkewElement, Tensor, Tensor2

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
                + SkewElement.basis(A, (0, 1), 0, two))
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
    assert v.scale(A2.zero()).terms == {}
    assert v.scale(1) == v


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_classes_with_equal_terms_differ(A2, cls):
    # a key shape every class accepts: (alpha, beta, g) with |beta| = 1
    terms = {((0, 0), (1, 0), 0): A2.one()}
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
        Cochain(A2, 2, {((0, 0), (1, 0), 0): A2.one()})
