import hashlib
import random
from itertools import product

import pytest

import qhoch.gerstenhaber
from qhoch import (Cochain, bracket, bracket_oracle, build_algebra, circ,
                   circ_oracle, cup, cup_oracle, g_action_on_cochain,
                   hom_differential, invariant_basis, is_coboundary,
                   is_cocycle, unit_cochain)
from qhoch.gerstenhaber import axiom_suite, product_table
from qhoch.resolution import compositions


def all_keys(A, m):
    return [(a, b, g) for b in compositions(A.n, m)
            for a in product((0, 1), repeat=A.n)
            for g in range(A.group.order)]


def sweep_formula_vs_oracle(A, maxtot, op, oracle):
    for m in range(maxtot + 1):
        for l in range(maxtot + 1 - m):
            for k1 in all_keys(A, m):
                c1 = Cochain.basis(A, *k1)
                for k2 in all_keys(A, l):
                    c2 = Cochain.basis(A, *k2)
                    if not (op(A, c1, c2) == oracle(A, c1, c2)):
                        return (k1, k2)
    return None


# ---------------------------------------------------------------------------
# cup product
# ---------------------------------------------------------------------------

def test_cup_unit_two_sided(A2, Ad3):
    rng = random.Random(3)
    for A in (A2, Ad3):
        u = unit_cochain(A)
        for m in range(4):
            for key in all_keys(A, m):
                c = Cochain.basis(A, *key)
                assert cup(A, c, u) == c
                assert cup(A, u, c) == c


def test_cup_golden_values(A2_Z3):
    A = A2_Z3
    g, h = 1, 2
    left = cup(A, Cochain.basis(A, (0, 1), (0, 1), g),
               Cochain.basis(A, (1, 0), (1, 0), h))
    assert left == Cochain.basis(A, (1, 1), (1, 1), A.group.mult[g][h],
                                 A.uni.from_rational(-1))
    right = cup(A, Cochain.basis(A, (1, 0), (1, 0), h),
                Cochain.basis(A, (0, 1), (0, 1), g))
    assert right == Cochain.basis(A, (1, 1), (1, 1), A.group.mult[h][g])


def test_cup_degree_addition(Ad3):
    rng = random.Random(5)
    for _ in range(40):
        m, l = rng.randrange(3), rng.randrange(3)
        c1 = Cochain.basis(Ad3, *rng.choice(all_keys(Ad3, m)))
        c2 = Cochain.basis(Ad3, *rng.choice(all_keys(Ad3, l)))
        got = cup(Ad3, c1, c2)
        assert got.is_zero() or got.degree == m + l


@pytest.mark.parametrize("fixture,maxtot", [
    ("A2", 4), ("A2_Z3", 3), ("Ad3", 4), ("Ad4", 3), ("A_comm", 4), ("A_ext", 4),
])
def test_cup_equals_oracle(fixture, maxtot, request):
    A = request.getfixturevalue(fixture)
    assert sweep_formula_vs_oracle(A, maxtot, cup, cup_oracle) is None


def test_cup_equals_oracle_three_generators(A3):
    assert sweep_formula_vs_oracle(A3, 3, cup, cup_oracle) is None


# ---------------------------------------------------------------------------
# circle product
# ---------------------------------------------------------------------------

def test_circ_zero_without_inner_generator(A2, Ad3):
    for A in (A2, Ad3):
        outer = Cochain.basis(A, (0, 1), (0, 1), 0)
        inner = Cochain.basis(A, (0, 0), (1, 1), 0)
        assert circ(A, outer, inner).is_zero()


def test_circ_golden_list(A2_Z3):
    """The complete nonzero circle-product list among the positive-degree
    generators and the degree-zero class of the two-generator formal case
    with a trivially-acting group."""
    A = A2_Z3
    g, h = 1, 2
    hg = A.group.mult[h][g]
    gh = A.group.mult[g][h]

    def B(alpha, beta, k):
        return Cochain.basis(A, alpha, beta, k)

    assert circ(A, B((0, 1), (0, 1), h), B((1, 1), (0, 0), g)) == \
        B((1, 1), (0, 0), hg)
    assert circ(A, B((1, 0), (1, 0), h), B((1, 0), (1, 0), g)) == \
        B((1, 0), (1, 0), hg)
    assert circ(A, B((1, 0), (1, 0), h), B((1, 1), (0, 0), g)) == \
        B((1, 1), (0, 0), hg)
    assert circ(A, B((1, 1), (1, 1), h), B((1, 0), (1, 0), g)) == \
        B((1, 1), (1, 1), hg)
    assert circ(A, B((1, 0), (1, 0), g), B((1, 1), (1, 1), h)) == \
        B((1, 1), (1, 1), gh)
    assert circ(A, B((0, 1), (0, 1), h), B((0, 1), (0, 1), g)) == \
        B((0, 1), (0, 1), hg)
    assert circ(A, B((1, 1), (1, 1), h), B((0, 1), (0, 1), g)) == \
        B((1, 1), (1, 1), hg)
    assert circ(A, B((0, 1), (0, 1), g), B((1, 1), (1, 1), h)) == \
        B((1, 1), (1, 1), gh)


@pytest.mark.parametrize("fixture,maxtot", [
    ("A2", 4), ("A2_Z3", 3), ("Ad3", 4), ("Ad4", 3), ("A_comm", 4), ("A_ext", 4),
])
def test_circ_equals_oracle(fixture, maxtot, request):
    A = request.getfixturevalue(fixture)
    assert sweep_formula_vs_oracle(A, maxtot, circ, circ_oracle) is None


def test_circ_equals_oracle_three_generators(A3):
    assert sweep_formula_vs_oracle(A3, 3, circ, circ_oracle) is None


def test_circle_homotopy_identity_trivial_group(A2, A3):
    """delta(f o g) = f o (delta g) - (-1)^l (delta f) o g
                      + (-1)^l [g ^ f - (-1)^{lm} f ^ g]
    holds exactly at chain level when the group is trivial."""
    for A, maxtot in ((A2, 4), (A3, 3)):
        for m in range(maxtot + 1):
            for l in range(maxtot + 1 - m):
                for k1 in all_keys(A, m):
                    f = Cochain.basis(A, *k1)
                    df = hom_differential(A, f)
                    for k2 in all_keys(A, l):
                        g = Cochain.basis(A, *k2)
                        dg = hom_differential(A, g)
                        lhs = hom_differential(A, circ(A, f, g))
                        rhs = circ(A, f, dg) - circ(A, df, g).scale(
                            -1 if l % 2 else 1)
                        cups = cup(A, g, f) - cup(A, f, g).scale(
                            -1 if (l * m) % 2 else 1)
                        rhs = rhs + cups.scale(-1 if l % 2 else 1)
                        assert lhs == rhs, (k1, k2)


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_golden_values(A2_Z3):
    A = A2_Z3
    g, h = 1, 2
    hg = A.group.mult[h][g]
    b1 = bracket(A, Cochain.basis(A, (0, 1), (0, 1), h),
                 Cochain.basis(A, (1, 1), (0, 0), g))
    assert b1 == Cochain.basis(A, (1, 1), (0, 0), hg)
    b2 = bracket(A, Cochain.basis(A, (1, 0), (1, 0), h),
                 Cochain.basis(A, (1, 1), (0, 0), g))
    assert b2 == Cochain.basis(A, (1, 1), (0, 0), hg)


def test_bracket_of_equal_degree_one_elements_vanishes(A2_Z3):
    # commuting group parts: both circle products agree and the signs kill
    A = A2_Z3
    g, h = 1, 2
    b = bracket(A, Cochain.basis(A, (0, 1), (0, 1), h),
                Cochain.basis(A, (0, 1), (0, 1), g))
    assert b.is_zero()


def test_bracket_degree_bookkeeping(Ad3):
    rng = random.Random(7)
    for _ in range(50):
        m, l = rng.randrange(1, 4), rng.randrange(1, 4)
        c1 = Cochain.basis(Ad3, *rng.choice(all_keys(Ad3, m)))
        c2 = Cochain.basis(Ad3, *rng.choice(all_keys(Ad3, l)))
        br = bracket(Ad3, c1, c2)
        assert br.is_zero() or br.degree == m + l - 1


def test_bracket_graded_antisymmetry_exact(Ad3, A2):
    rng = random.Random(9)
    for A in (Ad3, A2):
        for _ in range(60):
            m, l = rng.randrange(4), rng.randrange(4)
            c1 = Cochain.basis(A, *rng.choice(all_keys(A, m)))
            c2 = Cochain.basis(A, *rng.choice(all_keys(A, l)))
            br = bracket(A, c1, c2)
            rev = bracket(A, c2, c1)
            # [a, b] = -(-1)^{(m-1)(l-1)} [b, a]
            s = -1 if ((m - 1) * (l - 1)) % 2 else 1
            assert (br + rev.scale(s)).is_zero()


def test_bracket_matches_oracle_composition(Ad3):
    rng = random.Random(15)
    for _ in range(30):
        m, l = rng.randrange(1, 3), rng.randrange(1, 3)
        c1 = Cochain.basis(Ad3, *rng.choice(all_keys(Ad3, m)))
        c2 = Cochain.basis(Ad3, *rng.choice(all_keys(Ad3, l)))
        assert bracket(Ad3, c1, c2) == bracket_oracle(Ad3, c1, c2)


def test_bracket_with_unit_is_coboundary(Ad3):
    u = unit_cochain(Ad3)
    for m in range(5):
        for c in invariant_basis(Ad3, m).classes:
            br = bracket(Ad3, u, c)
            assert br.is_zero() or is_coboundary(Ad3, br)
            br = bracket(Ad3, c, u)
            assert br.is_zero() or is_coboundary(Ad3, br)


def test_bracket_of_invariant_cocycles_is_invariant_cocycle(Ad3, A2_Z3):
    for A in (Ad3, A2_Z3):
        classes = [c for m in range(6) for c in invariant_basis(A, m).classes]
        for c1 in classes:
            for c2 in classes:
                if c1.degree + c2.degree > 6 or c1.degree + c2.degree == 0:
                    continue
                br = bracket(A, c1, c2)
                assert is_cocycle(A, br)
                for h in range(A.group.order):
                    assert g_action_on_cochain(A, h, br) == br
                cu = cup(A, c1, c2)
                for h in range(A.group.order):
                    assert g_action_on_cochain(A, h, cu) == cu


def test_bracket_descends_to_cohomology(Ad3):
    from qhoch import average
    rng = random.Random(23)
    classes = [c for m in range(1, 5) for c in invariant_basis(Ad3, m).classes]
    for _ in range(20):
        c1, c2 = rng.choice(classes), rng.choice(classes)
        keys = all_keys(Ad3, c1.degree - 1)
        b = Cochain(Ad3, c1.degree - 1)
        for k in rng.sample(keys, min(3, len(keys))):
            b = b + Cochain.basis(Ad3, *k).scale(
                Ad3.uni.from_rational(rng.randint(1, 5)))
        b = average(Ad3, b)
        diff = bracket(Ad3, c1 + hom_differential(Ad3, b), c2) - \
            bracket(Ad3, c1, c2)
        assert is_cocycle(Ad3, diff) and is_coboundary(Ad3, diff)


def test_axiom_suite_small(A2, Ad3):
    assert axiom_suite(A2, 2) == []
    assert axiom_suite(Ad3, 3) == []


def test_bracket_table_entries_equal_bracket(A2_Z3):
    classes = [(f"d{m}#{i}", c) for m in range(4)
               for i, c in enumerate(invariant_basis(A2_Z3, m).classes)]
    table = product_table(A2_Z3, classes, bracket)
    assert len(table) == len(classes) ** 2
    entries = iter(table)
    for la, ca in classes:
        for lb, cb in classes:
            left, right, res = next(entries)
            assert (left, right) == (la, lb)
            assert res == bracket(A2_Z3, ca, cb)


def test_axiom_suite_reports_every_failure_of_a_broken_circ(monkeypatch):
    """With circ scaled by 2 on (outer degree 2, inner degree 1) the suite
    must report the same failures, in the same order, as when every check
    recomputed its products: 108 Jacobi and 28 derivation-rule failures."""
    real_circ = qhoch.gerstenhaber.circ

    def broken(A, outer, inner):
        res = real_circ(A, outer, inner)
        if outer.degree == 2 and inner.degree == 1:
            return res.scale(2)
        return res

    monkeypatch.setattr(qhoch.gerstenhaber, "circ", broken)
    A = build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)})
    failures = axiom_suite(A, 3)
    assert len(failures) == 136
    assert failures[0] == "Jacobi fails: d0#1,d1#0,d2#2"
    assert failures[-1] == "derivation rule fails: d2#3,d1#2,d1#0"
    assert hashlib.sha256("\n".join(failures).encode()).hexdigest() == \
        "8cfa0b8833f10d4e8ea563a57bb2a9f034ac299406a3439c96eeb7279e3e9a91"
