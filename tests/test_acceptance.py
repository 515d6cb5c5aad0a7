"""Acceptance suite: one test per criterion, exact tolerances throughout,
with a pass line and elapsed time printed per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
"""

import time

import pytest

from golden_tables import (display_classes_commutative,
                           display_classes_exterior, display_classes_odd,
                           entries, expected_terms)
from qhoch import (Cochain, bracket, bracket_oracle, build_algebra,
                   class_equal, cup, formal_algebra, invariant_basis,
                   invariant_rank_oracle, is_coboundary, is_cocycle,
                   phi_identity_check,
                   quantum_coefficient_action_algebra, rank_oracle,
                   bar_check)
from qhoch.cohomology import flatness_check, hh_component_basis
from qhoch.gerstenhaber import axiom_suite, product_check
from qhoch.resolution import compositions, differential_check


def report(name, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def zeta_algebra3(d):
    return build_algebra(3, N=d, q_spec={(0, 1): ("zeta", 1),
                                         (0, 2): ("zeta", 1),
                                         (1, 2): ("zeta", 1)})


# ---------------------------------------------------------------------------
# criterion 1: golden reproduction of the two-generator formal example
# ---------------------------------------------------------------------------

def test_criterion_1_two_generator_formal_golden():
    t0 = time.time()
    A = formal_algebra(2)
    assert [len(invariant_basis(A, m).classes) for m in range(7)] == \
        [2, 2, 1, 0, 0, 0, 0]

    AZ = formal_algebra(2, group_spec=("cyclic", 3, [(1, 0), (1, 0)]))
    computed = set()
    for m in range(4):
        for c in invariant_basis(AZ, m).classes:
            (key,) = c.sorted_keys() if len(c.terms) == 1 else (None,)
            computed.add(key)
    listing = {((0, 0), (0, 0), 0)}
    for g in range(3):  # all in Z(G) with trivial character products
        listing.add(((1, 1), (0, 0), g))
        listing.add(((0, 1), (0, 1), g))
        listing.add(((1, 0), (1, 0), g))
        listing.add(((1, 1), (1, 1), g))
    assert listing <= computed
    extras = computed - listing
    # the only additional classes are the identity-coefficient symbols in
    # degree zero for the non-identity group elements
    assert extras == {((0, 0), (0, 0), 1), ((0, 0), (0, 0), 2)}

    # products: over positive-degree generators exactly two nonzero cups
    g, h = 1, 2
    classes = [c for m in range(4) for c in invariant_basis(AZ, m).classes]
    pos = [c for c in classes if c.degree >= 1]
    nonzero_cups = []
    for c1 in pos:
        for c2 in pos:
            r = cup(AZ, c1, c2)
            if not r.is_zero() and not is_coboundary(AZ, r):
                nonzero_cups.append((c1.sorted_keys()[0], c2.sorted_keys()[0], r))
    # (x2)e01 ^ (x1)e10 = -(x1x2)e11 and (x1)e10 ^ (x2)e01 = +(x1x2)e11,
    # for every pair of group components
    assert len(nonzero_cups) == 2 * 9
    for k1, k2, r in nonzero_cups:
        ((alpha, beta, gr), coeff), = r.terms.items()
        assert (alpha, beta) == ((1, 1), (1, 1))
        if k1[0] == (0, 1):
            assert coeff == AZ.uni.from_rational(-1)
        else:
            assert coeff == AZ.uni.one

    # exactly the two listed nonzero brackets among unordered generator
    # pairs (per pair of group components), with coefficient +1
    nonzero_brackets = set()
    for i1, c1 in enumerate(classes):
        for i2, c2 in enumerate(classes):
            if i2 < i1:
                continue
            br = bracket(AZ, c1, c2)
            if br.is_zero() or is_coboundary(AZ, br):
                continue
            k1, k2 = c1.sorted_keys()[0], c2.sorted_keys()[0]
            nonzero_brackets.add(((k1[0], k1[1]), (k2[0], k2[1])))
            ((alpha, beta, gr), coeff), = br.terms.items()
            assert (alpha, beta) == ((1, 1), (0, 0))
            assert coeff == AZ.uni.one or coeff == AZ.uni.from_rational(-1)
    assert nonzero_brackets == {
        (((1, 1), (0, 0)), ((0, 1), (0, 1))),
        (((1, 1), (0, 0)), ((1, 0), (1, 0))),
    }
    report("criterion 1 (two-generator formal golden tables)", t0, 5)


# ---------------------------------------------------------------------------
# criterion 2: equal-parameter cyclic action at d in {3, 5}
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [3, 5])
def test_criterion_2a_dimensions(d):
    t0 = time.time()
    A = quantum_coefficient_action_algebra(d)
    maxdeg = 2 * d + 2
    disp = display_classes_odd(A, d, maxdeg)
    per_disp = [sum(1 for (a, b, g) in disp if sum(b) == m)
                for m in range(maxdeg + 1)]
    per_closed = [len(invariant_basis(A, m).classes) for m in range(maxdeg + 1)]
    per_rank = [invariant_rank_oracle(A, m, seeds=(1, 2, 3))
                for m in range(maxdeg + 1)]
    assert per_disp == per_closed == per_rank
    # the group is abelian, so each invariant class is a single basis
    # symbol; the display and the computed basis agree as sets
    computed = set()
    for m in range(maxdeg + 1):
        for c in invariant_basis(A, m).classes:
            (key,) = c.sorted_keys()
            computed.add(key)
    assert computed == set(disp)
    report(f"criterion 2a (dimensions, d={d})", t0, 120)


@pytest.mark.parametrize("d", [3, 5])
def test_criterion_2b_bracket_entries(d):
    """At least six entries of the transcribed bracket list are reproduced
    exactly, including the displayed degree-raising coefficients
    (2t'd - 1) and 2t'd at t = t' = 1."""
    t0 = time.time()
    A = quantum_coefficient_action_algebra(d)
    matched = set()
    grid = [(1, 1, 1, 1, 1, 1), (1, 1, 1, 1, d, 1), (1, 1, 1, 1, 1, d),
            (1, 1, 1, 1, d, d), (2, 1, 1, 1, 1, d), (1, 2, 1, 1, d, d),
            (1, 1, 1, 1, d, 2), (1, 1, 1, 1, 2, d)]
    for (t, tp, tpp, tppp, i, j) in grid:
        for label, left, right, terms in entries(d, t, tp, tpp, tppp, i, j):
            cl = Cochain.basis(A, left[0], left[1], left[2] % d)
            cr = Cochain.basis(A, right[0], right[1], right[2] % d)
            if cl.terms == cr.terms:
                continue  # degenerate instance (self bracket)
            got = bracket(A, cl, cr)
            if got.terms == expected_terms(A, terms, d):
                matched.add(label)
    assert len(matched) >= 6, f"only {sorted(matched)} matched"

    # the two displayed entries at t = t' = 1
    b1 = bracket(A, Cochain.basis(A, (0, 1), (2 * d - 1, 0), 1),
                 Cochain.basis(A, (1, 0), (0, 2 * d - 1), 1))
    x2_term = b1.terms[((0, 1), (2 * d - 2, 2 * d - 1), 2)]
    assert x2_term == A.uni.from_rational(2 * d - 1)   # (2t'd - 1)
    b2 = bracket(A, Cochain.basis(A, (1, 1), (2 * d, 0), 1),
                 Cochain.basis(A, (1, 0), (0, 2 * d - 1), 1))
    ((key, coeff),) = b2.terms.items()
    assert key == ((1, 1), (2 * d - 1, 2 * d - 1), 2)
    assert coeff == A.uni.from_rational(2 * d)         # 2t'd
    report(f"criterion 2b (bracket entries, d={d})", t0, 120)


@pytest.mark.parametrize("d", [3, 5])
def test_criterion_2b_displayed_x1_coefficient_as_printed(d):
    """The x1 term of [(x2 g) e*_{(2t'd-1,0)}, (x1 g) e*_{(0,2td-1)}]
    (entry E1 of the transcribed table) and the printed errors around it.

    For (t, t') in {(1,1), (1,2), (2,1)} the closed-form bracket equals the
    chain-level oracle and is a cocycle.  Its x2 coefficient is 2t'd - 1,
    as printed; its x1 coefficient is -(2td-1) q^{2-2td}.  The printed x1
    coefficient -(2td-1) q is not another representative of the same
    class: the transcribed E1 right-hand side is a cocycle that is not
    cohomologous to the bracket.

    The printed table is also inconsistent on its own terms.  At
    t = t' = t'' = t''' = i = j = 1, entry E22 is a self-bracket [c, c] of
    a degree-(2d-1) class.  Graded antisymmetry forces it to vanish, and
    the bracket computes zero, yet the table prints a nonzero class on the
    symbol that E1's x1 term lands on.
    """
    t0 = time.time()
    A = quantum_coefficient_action_algebra(d)
    for t, tp in [(1, 1), (1, 2), (2, 1)]:
        left = Cochain.basis(A, (0, 1), (2 * tp * d - 1, 0), 1)
        right = Cochain.basis(A, (1, 0), (0, 2 * t * d - 1), 1)
        b1 = bracket(A, left, right)
        assert b1 == bracket_oracle(A, left, right), (t, tp)
        assert is_cocycle(A, b1), (t, tp)
        x1_key = ((1, 0), (2 * tp * d - 1, 2 * t * d - 2), 2)
        x2_key = ((0, 1), (2 * tp * d - 2, 2 * t * d - 1), 2)
        assert set(b1.terms) == {x1_key, x2_key}, (t, tp)
        derived = (A.uni.unit(zeta=(2 - 2 * t * d) % d)
                   * (-(2 * t * d - 1)))
        assert b1.terms[x1_key] == derived, (t, tp)
        assert b1.terms[x2_key] == A.uni.from_rational(2 * tp * d - 1), (t, tp)

        # the transcribed E1 entry differs only in its x1 coefficient,
        # -(2td-1) q, and names a different class
        (e1,) = [e for e in entries(d, t, tp) if e[0] == "E1"]
        printed = Cochain(A, b1.degree, expected_terms(A, e1[3], d))
        assert set(printed.terms) == {x1_key, x2_key}, (t, tp)
        assert printed.terms[x2_key] == b1.terms[x2_key], (t, tp)
        assert printed.terms[x1_key] == (A.uni.unit(zeta=1)
                                         * (-(2 * t * d - 1))), (t, tp)
        assert not class_equal(A, b1, printed), (t, tp)

    # E22 at all-ones parameters: a self-bracket printed as a nonzero class
    (e22,) = [e for e in entries(d) if e[0] == "E22"]
    _, e22_left, e22_right, e22_terms = e22
    assert e22_left == e22_right
    c = Cochain.basis(A, *e22_left)
    assert c.degree == 2 * d - 1
    assert bracket(A, c, c).is_zero()
    e22_printed = Cochain(A, 2 * c.degree - 1,
                          expected_terms(A, e22_terms, d))
    assert set(e22_printed.terms) == {((1, 0), (2 * d - 1, 2 * d - 2), 2)}
    assert is_cocycle(A, e22_printed)
    assert not is_coboundary(A, e22_printed)
    report(f"criterion 2b (displayed x1 coefficient, d={d})", t0, 10)


# ---------------------------------------------------------------------------
# criterion 3: closed product formulas equal the chain-level oracles
# ---------------------------------------------------------------------------

ORACLE_CONFIGS = [
    ("n2-formal", lambda: formal_algebra(2)),
    ("n2-d2", lambda: quantum_coefficient_action_algebra(2)),
    ("n2-d3", lambda: quantum_coefficient_action_algebra(3)),
    ("n2-d4", lambda: quantum_coefficient_action_algebra(4)),
    ("n2-d6", lambda: quantum_coefficient_action_algebra(6)),
    ("n3-formal", lambda: formal_algebra(3)),
    ("n3-d2", lambda: zeta_algebra3(2)),
    ("n3-d3", lambda: zeta_algebra3(3)),
    ("n3-d4", lambda: zeta_algebra3(4)),
    ("n3-d6", lambda: zeta_algebra3(6)),
]


_CRITERION_3_ELAPSED = []


@pytest.mark.parametrize("label,maker", ORACLE_CONFIGS,
                         ids=[c[0] for c in ORACLE_CONFIGS])
def test_criterion_3_oracle_equivalence(label, maker):
    t0 = time.time()
    witness = product_check(maker(), 5)
    assert witness is None, witness
    elapsed = time.time() - t0
    _CRITERION_3_ELAPSED.append(elapsed)
    total = sum(_CRITERION_3_ELAPSED)
    print(f"ACCEPTANCE criterion 3 (oracle equivalence, {label}): PASS "
          f"({elapsed:.1f}s, cumulative {total:.1f}s of 300s)")
    assert total < 300, "criterion 3 exceeded its total runtime budget"


# ---------------------------------------------------------------------------
# criterion 4: homological invariant suite
# ---------------------------------------------------------------------------

def random_group_data(seed):
    import random
    rng = random.Random(seed)
    d = rng.choice((2, 3, 4, 6))
    k = rng.randrange(d)
    return build_algebra(
        2, N=d,
        q_spec={(0, 1): ("zeta", rng.randrange(1, d) if d > 1 else 0)},
        group_spec=("cyclic", d, [(1, k), (1, (-k) % d)]))


def test_criterion_4_homological_suite():
    t0 = time.time()
    algebras = [formal_algebra(2), formal_algebra(3),
                quantum_coefficient_action_algebra(2),
                quantum_coefficient_action_algebra(3),
                quantum_coefficient_action_algebra(4),
                quantum_coefficient_action_algebra(6),
                random_group_data(41), random_group_data(42),
                random_group_data(43)]
    for A in algebras:
        assert differential_check(A, 5 if A.n == 2 else 3) is None
        # flatness and the contracting homotopy on every subcomplex with
        # entries <= 3
        assert flatness_check(A, 3) is None
        # coassociativity through degree 5, bar agreement through 4
        from test_resolution import coassociativity_holds
        for m in range(6 if A.n == 2 else 5):
            for beta in compositions(A.n, m):
                assert coassociativity_holds(A, beta)
        assert bar_check(A, 4) is None
        assert phi_identity_check(A, 4 if A.n == 2 else 3) is None
    report("criterion 4 (homological invariant suite)", t0, 300)


# ---------------------------------------------------------------------------
# criterion 5: the closed-form count equals the rank oracle
# ---------------------------------------------------------------------------

def test_criterion_5_closed_form_count_vs_rank_oracle():
    t0 = time.time()
    algebras = [formal_algebra(2), formal_algebra(3),
                formal_algebra(2, group_spec=("cyclic", 3, [(1, 0), (1, 0)])),
                quantum_coefficient_action_algebra(3),
                quantum_coefficient_action_algebra(4),
                build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)},
                              group_spec=("cyclic", 2, [(-1, 0), (-1, 0)])),
                zeta_algebra3(3)]
    for A in algebras:
        for m in range(6):
            for g in range(A.group.order):
                count = len(hh_component_basis(A, m, g))
                assert rank_oracle(A, m, g, seeds=(1, 2, 3))[2] == count, \
                    (A.n, m, g)
    report("criterion 5 (closed-form count vs rank oracle)", t0, 300)


# ---------------------------------------------------------------------------
# criterion 6: graded-algebra axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,maker,deg", [
    ("two-generator formal, trivial group", lambda: formal_algebra(2), 6),
    ("two-generator formal, order-3 group",
     lambda: formal_algebra(2, group_spec=("cyclic", 3, [(1, 0), (1, 0)])), 6),
    ("equal-parameter action d=3",
     lambda: quantum_coefficient_action_algebra(3), 6),
    ("commutative case q=-1",
     lambda: build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)}), 6),
])
def test_criterion_6_axioms(label, maker, deg):
    t0 = time.time()
    failures = axiom_suite(maker(), deg)
    assert failures == []
    report(f"criterion 6 (axioms, {label})", t0, 600)


# ---------------------------------------------------------------------------
# criterion 7: specialization sanity
# ---------------------------------------------------------------------------

def test_criterion_7_specializations():
    t0 = time.time()
    A_comm = build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)})
    disp = display_classes_commutative(6)
    got = sorted((a, b, 0) for m in range(7)
                 for (a, b, g) in invariant_basis(A_comm, m).entries)
    assert got == disp
    for m in range(7):
        assert invariant_rank_oracle(A_comm, m) == \
            len(invariant_basis(A_comm, m).classes)

    A_ext = build_algebra(2, N=1, q_spec={(0, 1): ("rational", 1)})
    disp = display_classes_exterior(6)
    got = sorted((a, b, 0) for m in range(7)
                 for (a, b, g) in invariant_basis(A_ext, m).entries)
    assert got == disp
    for m in range(7):
        assert invariant_rank_oracle(A_ext, m) == \
            len(invariant_basis(A_ext, m).classes)
    report("criterion 7 (q=-1 and q=1 specializations)", t0, 120)
