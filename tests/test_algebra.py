import random
from itertools import product

import pytest

from conftest import random_scalar
from qhoch import (Group, SkewElement, build_algebra, formal_algebra,
                   group_act, make_cyclic_group,
                   quantum_coefficient_action_algebra)


def basis_elements(A):
    out = []
    for mono in product((0, 1), repeat=A.n):
        for g in range(A.group.order):
            out.append(SkewElement.basis(A, mono, g))
    return out


def random_skew(A, rng):
    elems = basis_elements(A)
    s = SkewElement(A)
    for _ in range(rng.randint(1, 3)):
        s = s + rng.choice(elems).scale(random_scalar(A.uni, rng, terms=2))
    return s


def test_quantum_matrix_constraints(A2):
    assert A2.q[0][0] == A2.uni.unit(sign=-1)
    assert A2.q[1][1] == A2.uni.unit(sign=-1)
    assert (A2.q[0][1] * A2.q[1][0]).is_one()


def test_reordering_example(A2):
    x1 = SkewElement.basis(A2, (1, 0), 0)
    x2 = SkewElement.basis(A2, (0, 1), 0)
    sq = x1 * x1
    assert sq.is_zero()
    prod = x2 * x1
    ((mono, g), coeff), = prod.terms.items()
    assert mono == (1, 1) and g == 0
    # x2 x1 = -q^{-1} x1 x2
    assert coeff == -(A2.q[0][1].inv())


def test_skew_multiplication_group_rule(Ad3):
    # (x1 (x) g)(x2 (x) h) = chi_{g,2} (x1x2 (x) gh)
    g, h = 1, 2
    a = SkewElement.basis(Ad3, (1, 0), g)
    b = SkewElement.basis(Ad3, (0, 1), h)
    ((mono, gh), coeff), = (a * b).terms.items()
    assert mono == (1, 1) and gh == Ad3.group.mult[g][h]
    assert coeff == Ad3.chi(g, 1)


def test_identity_element(Ad3):
    rng = random.Random(5)
    one = SkewElement.one(Ad3)
    for _ in range(40):
        s = random_skew(Ad3, rng)
        assert one * s == s
        assert s * one == s


@pytest.mark.parametrize("maker", [
    lambda: formal_algebra(2),
    lambda: formal_algebra(3),
    lambda: quantum_coefficient_action_algebra(3),
    lambda: build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)},
                          group_spec=("cyclic", 2, [(-1, 0), (-1, 0)])),
])
def test_skew_multiplication_associative(maker):
    A = maker()
    rng = random.Random(11 + A.n + A.group.order)
    trials = 500 // 4 + 1
    for _ in range(trials):
        a, b, c = (random_skew(A, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_group_act_examples(Ad3):
    # generator acts by q on x1 and q^{-1} on x2; the product is fixed
    x1 = SkewElement.basis(Ad3, (1, 0), 0)
    x2 = SkewElement.basis(Ad3, (0, 1), 0)
    x12 = SkewElement.basis(Ad3, (1, 1), 0)
    q = Ad3.uni.unit(zeta=1)
    assert group_act(Ad3, 1, x1) == x1.scale(q)
    assert group_act(Ad3, 1, x2) == x2.scale(q.inv())
    assert group_act(Ad3, 1, x12) == x12
    assert group_act(Ad3, 0, x12) == x12


def test_group_act_composition_convention(Ad3):
    # acting by g then by h equals acting by hg
    rng = random.Random(3)
    for _ in range(60):
        s = random_skew(Ad3, rng)
        g = rng.randrange(3)
        h = rng.randrange(3)
        hg = Ad3.group.mult[h][g]
        assert group_act(Ad3, h, group_act(Ad3, g, s)) == group_act(Ad3, hg, s)


def test_make_cyclic_group_trivial():
    A = formal_algebra(2)
    G = A.group
    assert G.order == 1 and G.mult == ((0,),)
    assert all(u.is_one() for u in G.chi[0])


def test_make_cyclic_group_sign_action():
    A = build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)},
                      group_spec=("cyclic", 2, [(-1, 0), (-1, 0)]))
    G = A.group
    assert G.order == 2
    minus_one = A.uni.unit(sign=-1)
    assert G.chi[1][0] == minus_one and G.chi[1][1] == minus_one


def test_make_cyclic_group_rejects_bad_order():
    A = formal_algebra(2)
    with pytest.raises(ValueError):
        # a character of order 3 on a group of order 2 is not well defined
        uni3 = quantum_coefficient_action_algebra(3).uni
        make_cyclic_group(uni3, 2, 2, [uni3.unit(zeta=1), uni3.unit()])


def test_group_table_validation_catches_bad_tables():
    A = formal_algebra(2)
    one = A.uni.one
    with pytest.raises(ValueError):
        Group(((0, 1), (1, 1)), ((one, one), (one, one)))  # not a group law
    with pytest.raises(ValueError):
        # chi not a homomorphism
        Group(((0, 1), (1, 0)),
              ((one, one), (A.uni.unit(sign=-1), one)))


def test_nonabelian_group_conjugation():
    # S3 as a table group with the sign character on both generators
    import itertools
    perms = list(itertools.permutations((0, 1, 2)))
    perms.sort(key=lambda p: (p != (0, 1, 2), p))

    def compose(p, r):
        return tuple(p[r[i]] for i in range(3))
    mult = [[perms.index(compose(p, r)) for r in perms] for p in perms]

    def sign(p):
        s = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    s = -s
        return s
    A = build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)},
                      group_spec=("table", mult,
                                  [[(sign(p), 0), (sign(p), 0)] for p in perms]))
    G = A.group
    assert G.order == 6
    # conjugation permutes the two 3-cycles
    three_cycles = [i for i, p in enumerate(perms) if p in ((1, 2, 0), (2, 0, 1))]
    a, b = three_cycles
    swap = next(i for i, p in enumerate(perms) if sign(p) == -1)
    assert G.conjugate(swap, a) == b
