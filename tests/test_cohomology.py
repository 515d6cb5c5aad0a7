import random
from fractions import Fraction
from itertools import product

import pytest

import qhoch.cohomology
import qhoch.resolution
from conftest import (S3_MULT, SESSION_ALGEBRAS, random_scalar,
                      readme_algebra)
from qhoch import (Cochain, Frac, average, axiom_suite, bracket,
                   build_algebra, class_equal, coboundary_oracle, cup,
                   formal_algebra, g_action_on_cochain, hh_component_basis,
                   hom_differential, invariant_basis, invariant_dims, is_flat,
                   invariant_rank_oracle, is_coboundary, is_cocycle,
                   quantum_coefficient_action_algebra, rank_oracle)
from qhoch.cohomology import collect_classes, flatness_check, full_basis
from qhoch.linalg import RowReducer, in_span
from qhoch.resolution import compositions, sub_index
from qhoch.scalars import Unit


def all_keys(A, m):
    return [(a, b, g) for b in compositions(A.n, m)
            for a in product((0, 1), repeat=A.n)
            for g in range(A.group.order)]


def random_cochain(A, m, rng, terms=3):
    out = Cochain(A, m)
    keys = all_keys(A, m)
    for k in rng.sample(keys, min(terms, len(keys))):
        out = out + Cochain.basis(A, *k, coeff=A.uni.from_rational(
            rng.randint(1, 7)))
    return out


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_all_minus_one_is_member(A2):
    assert is_flat(A2, 0, (-1, -1))


def test_zero_gamma_member_iff_trivial_character(A2_Z3, Ad3):
    for g in range(3):
        assert is_flat(A2_Z3, g, (0, 0))
    assert not is_flat(Ad3, 1, (0, 0))
    assert is_flat(Ad3, 0, (0, 0))


def test_formal_q_rejects_mixed_gamma(A2):
    assert not is_flat(A2, 0, (1, 0))


def test_flatness_check_names_each_witness(monkeypatch):
    """On n = 2, q = -1 `flatness_check` passes, and returns its witness
    when either half of the block theorem is broken: a homotopy scaled by
    a wrong norm fails h d + d h = 1 on the first non-flat block, and
    calling every block flat finds a nonzero differential on that same
    block."""
    A = build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)})
    assert flatness_check(A, 2) is None
    real_norm = qhoch.resolution.norm_g
    with monkeypatch.context() as m:
        m.setattr(qhoch.resolution, "norm_g",
                  lambda A, g, gamma: real_norm(A, g, gamma) + 1)
        assert flatness_check(A, 2) == ("homotopy", 0, (-1, 1), (1, 0))
    with monkeypatch.context() as m:
        m.setattr(qhoch.cohomology, "is_flat", lambda A, g, gamma: True)
        assert flatness_check(A, 2) == ("flat", 0, (-1, 1), (1, 0))
    assert flatness_check(A, 2) is None


def test_component_basis_two_generator_formal(A2):
    assert hh_component_basis(A2, 0, 0) == [((0, 0), (0, 0)),
                                            ((1, 1), (0, 0))]
    assert hh_component_basis(A2, 2, 0) == [((1, 1), (1, 1))]
    assert hh_component_basis(A2, 3, 0) == []


def test_every_component_basis_element_is_a_cocycle(A2, Ad3, Ad4):
    for A in (A2, Ad3, Ad4):
        for m in range(6):
            for g in range(A.group.order):
                for alpha, beta in hh_component_basis(A, m, g):
                    assert is_cocycle(A, Cochain.basis(A, alpha, beta, g))


# ---------------------------------------------------------------------------
# the group action on cochains
# ---------------------------------------------------------------------------

def test_identity_acts_trivially(Ad3):
    rng = random.Random(2)
    for m in range(4):
        c = random_cochain(Ad3, m, rng)
        assert g_action_on_cochain(Ad3, 0, c) == c


def test_action_is_chain_map(Ad3, Ad4):
    rng = random.Random(4)
    for A in (Ad3, Ad4):
        for _ in range(30):
            m = rng.randrange(4)
            c = random_cochain(A, m, rng)
            h = rng.randrange(A.group.order)
            assert g_action_on_cochain(A, h, hom_differential(A, c)) == \
                hom_differential(A, g_action_on_cochain(A, h, c))


def test_action_weight_on_basis(Ad3):
    # h.(x1x2 (x) g) e00^* picks up chi_{h,1} chi_{h,2} = 1
    c = Cochain.basis(Ad3, (1, 1), (0, 0), 1)
    assert g_action_on_cochain(Ad3, 1, c) == c
    # h.(1 (x) g) e_{1,0}^* scales by chi_{h,1}^{-1} = q^{-1}
    c = Cochain.basis(Ad3, (0, 0), (1, 0), 1)
    got = g_action_on_cochain(Ad3, 1, c)
    assert got == c.scale(Ad3.uni.unit(zeta=2))


def test_averaging_idempotent(Ad3):
    rng = random.Random(8)
    for _ in range(25):
        c = random_cochain(Ad3, rng.randrange(4), rng)
        assert average(Ad3, average(Ad3, c)) == average(Ad3, c)


@pytest.mark.parametrize("name", ["S3", "Ad3"])
def test_average_is_the_mean_of_the_translates(name, request):
    """The counted unit sums of `average` equal the mean of the
    translates formed one by one, on random cochains whose terms share
    their (alpha, beta) across several group parts, so that on S3 the
    translates of different terms land on one symbol, and share their
    (g, gamma = alpha - beta) across several (alpha, beta), so that they
    read one walk of the group (`_reynolds_walk`, kept per (g, gamma)).
    Every other cochain has Frac coefficients."""
    A = request.getfixturevalue(name)
    order = A.group.order
    rng = random.Random(15)
    seen = set()
    partners = 0
    for trial in range(40):
        m = rng.randrange(4)
        c = Cochain(A, m)
        pairs = sorted({(a, b) for a, b, _ in all_keys(A, m)})
        by_gamma = {}
        for a, b in pairs:
            by_gamma.setdefault(sub_index(a, b), []).append((a, b))
        for alpha, beta in rng.sample(pairs, min(2, len(pairs))):
            partner = rng.choice(by_gamma[sub_index(alpha, beta)])
            partners += partner != (alpha, beta)
            for g in rng.sample(range(order), rng.randint(1, 3)):
                for a, b in dict.fromkeys([(alpha, beta), partner]):
                    coeff = random_scalar(A.uni, rng)
                    if not coeff.is_zero():
                        c = c + Cochain.basis(A, a, b, g, coeff)
        if trial % 2:
            den = A.uni.from_rational(rng.randint(2, 9)) + A.uni.unit(zeta=1)
            c = Cochain(A, m, {k: Frac(v, den) for k, v in c.terms.items()})
        mean = Cochain(A, m)
        for h in range(order):
            mean = mean + g_action_on_cochain(A, h, c)
        assert average(A, c) == mean.scale(Fraction(1, order))
        seen |= {(g, sub_index(a, b)) for a, b, g in c.terms}
    assert partners
    walks = {key[1:] for key in A.caches if key[0] == "_reynolds_walk"}
    assert seen <= walks


def test_invariant_basis_fixed_pointwise(Ad3, A2_Z3):
    for A in (Ad3, A2_Z3):
        for m in range(5):
            for c in invariant_basis(A, m).classes:
                for h in range(A.group.order):
                    assert g_action_on_cochain(A, h, c) == c


def test_trivial_group_invariant_basis_is_component_basis(A2):
    for m in range(5):
        basis = invariant_basis(A2, m)
        expected = hh_component_basis(A2, m, 0)
        got = [(alpha, beta) for (alpha, beta, g) in basis.entries]
        assert got == expected
        assert len(basis.classes) == len(expected)


@pytest.mark.parametrize("name", SESSION_ALGEBRAS + ("S3",))
def test_invariant_class_units_carry_root_tags(name, request):
    """Each invariant class equals the plain Reynolds average of its
    closed-form symbol (the translates summed and scaled by 1/|G|, with no
    retagging), and each of its coefficients that is +-zeta^k * t^e by
    value is that Unit, its coefficient tagged as a root."""
    A = request.getfixturevalue(name)
    tagged = 0
    for m in range(4):
        basis = invariant_basis(A, m)
        red = RowReducer()
        plain = []
        for alpha, beta, g in basis.entries:
            c = Cochain.basis(A, alpha, beta, g)
            avg = Cochain(A, m)
            for h in range(A.group.order):
                avg = avg + g_action_on_cochain(A, h, c)
            avg = avg.scale(Fraction(1, A.group.order))
            if not avg.is_zero() and red.add(
                    {k: v.constant() for k, v in avg.terms.items()}):
                plain.append(avg)
        assert basis.classes == plain
        for cls in basis.classes:
            for v in cls.terms.values():
                if v.as_unit() is not None:
                    (c,) = v.terms.values()
                    assert isinstance(v, Unit) and c.root is not None
                    tagged += 1
    assert tagged


@pytest.mark.parametrize("name", ["S3", "Ad3", "A2_Z3", "readme"])
def test_invariant_basis_takes_one_class_per_orbit(name, request,
                                                   monkeypatch):
    """Through degree 4, `invariant_basis` gives exactly the averages that
    an exact elimination keeps from its symbols in order (equal classes,
    equal coefficient types), while it eliminates nothing itself."""
    A = request.getfixturevalue(name)
    expected = {}
    for m in range(5):
        red = RowReducer()
        expected[m] = []
        for sym in invariant_basis(A, m).entries:
            avg = average(A, Cochain.basis(A, *sym))
            if not avg.is_zero() and red.add(
                    {k: v.constant() for k, v in avg.terms.items()}):
                expected[m].append(avg)

    def refuse(self, row):
        raise AssertionError("invariant_basis eliminated a row")
    monkeypatch.setattr(RowReducer, "add", refuse)
    for m in range(5):
        classes = invariant_basis(A, m).classes
        assert classes == expected[m]
        assert [[(k, repr(v)) for k, v in sorted(c.terms.items())]
                for c in classes] == \
            [[(k, repr(v)) for k, v in sorted(c.terms.items())]
             for c in expected[m]]


def test_degree_one_invariants_two_generator_formal(A2_Z3):
    # exactly (x2 (x) g) e01^* and (x1 (x) g) e10^* for every group element
    basis = invariant_basis(A2_Z3, 1)
    keys = {c.sorted_keys()[0] for c in basis.classes}
    expected = set()
    for g in range(3):
        expected.add(((0, 1), (0, 1), g))
        expected.add(((1, 0), (1, 0), g))
    assert keys == expected


def test_nonabelian_invariants_are_class_sums():
    A = build_algebra(2, N=1, q_spec={(0, 1): ("formal", "q")},
                      group_spec=("table", S3_MULT,
                                  [[(1, 0), (1, 0)] for _ in S3_MULT]))
    # with trivial characters both degree-zero families contribute one
    # invariant per conjugacy class: dim = 2 * #conjugacy classes, which is
    # dim Z(Lambda) * dim Z(kG) for the trivial action
    basis = invariant_basis(A, 0)
    assert len(basis.classes) == 2 * 3
    for c in basis.classes:
        for h in range(6):
            assert g_action_on_cochain(A, h, c) == c


# ---------------------------------------------------------------------------
# the rank oracle
# ---------------------------------------------------------------------------

def test_rank_oracle_formal_dimension_two(A2):
    assert rank_oracle(A2, 1, 0, seeds=(1, 2, 3))[2] == 2
    assert rank_oracle(A2, 3, 0, seeds=(1, 2))[2] == 0


def test_rank_oracle_matches_closed_form_counts(A2, A3, Ad3, Ad4, A_comm):
    for A in (A2, A3, Ad3, Ad4, A_comm):
        top = 5 if A.n == 2 else 3
        for m in range(top + 1):
            for g in range(A.group.order):
                dim = len(hh_component_basis(A, m, g))
                assert rank_oracle(A, m, g, seeds=(1, 2, 3))[2] == dim, (m, g)


def test_invariant_rank_oracle_matches_invariant_basis(Ad3, A2_Z3, S3):
    for A in (Ad3, A2_Z3, S3):
        for m in range(6):
            assert invariant_rank_oracle(A, m, seeds=(1, 2)) == \
                len(invariant_basis(A, m).classes)


def test_single_generator_dims():
    # k[x]/(x^2) in characteristic zero: degree zero is the whole (2-dim)
    # commutative algebra, one class in every positive degree
    A1 = build_algebra(1, N=1)
    assert invariant_dims(A1, 6) == [2] + [1] * 6
    for m in range(7):
        assert invariant_rank_oracle(A1, m) == (2 if m == 0 else 1)


def test_degree_zero_dim_is_center_dimension(Ad3):
    # direct center computation of the skew algebra as a cross-check
    from qhoch import SkewElement
    elems = [((a, b), g) for a in (0, 1) for b in (0, 1) for g in range(3)]
    rows = []
    from qhoch.linalg import RowReducer
    red = RowReducer()
    rank = 0
    gens = [SkewElement.basis(Ad3, (1, 0), 0), SkewElement.basis(Ad3, (0, 1), 0),
            SkewElement.basis(Ad3, (0, 0), 1)]
    # commutant condition rows: for each basis element e and generator y,
    # the coefficients of e*y - y*e
    for mono, g in elems:
        e = SkewElement.basis(Ad3, mono, g)
        row = {}
        for yi, y in enumerate(gens):
            diff = e * y - y * e
            for key, c in diff.terms.items():
                row[(yi,) + key] = c.constant()
        rows.append(((mono, g), row))
    # solve: center = kernel of the commutant map
    cols = sorted({k for _e, row in rows for k in row})
    mat = []
    for _e, row in rows:
        mat.append([row.get(c) for c in cols])
    # compute rank over the cyclotomic field
    red = RowReducer()
    rk = 0
    for _e, row in rows:
        filtered = {k: v for k, v in row.items() if not v.is_zero()}
        if red.add(filtered):
            rk += 1
    center_dim = len(elems) - rk
    assert center_dim == len(invariant_basis(Ad3, 0).classes) == 4


# ---------------------------------------------------------------------------
# equality in cohomology
# ---------------------------------------------------------------------------

def _coboundary_cases(A, top, rng):
    """Cochains of degree <= top on which to decide coboundaries: zero and
    the classes; the cups and brackets of classes; d(x) and d(x) + class for
    seeded x; and non-cocycles, among them random cochains of every degree
    and their parts with no flat term."""
    classes = [c for _, c in collect_classes(A, range(top + 1))]
    by_degree = {m: [c for c in classes if c.degree == m]
                 for m in range(top + 1)}
    cases = [Cochain(A, 0)] + classes
    for a in classes:
        for b in classes:
            if a.degree + b.degree <= top:
                cases.append(cup(A, a, b))
            if 0 < a.degree + b.degree <= top + 1:
                cases.append(bracket(A, a, b))
    for m in range(top + 1):
        for _ in range(3):
            x = random_cochain(A, m, rng)
            cases.append(x)
            cases.append(Cochain(A, m, {
                (alpha, beta, g): coeff
                for (alpha, beta, g), coeff in x.terms.items()
                if not is_flat(A, g, sub_index(beta, alpha))}))
            if m < top:
                dx = hom_differential(A, x)
                cases.append(dx)
                cases.extend(dx + c for c in by_degree[m + 1])
    return cases


@pytest.mark.parametrize("name", ["readme", "A2", "S3", "Aq2",
                                  "rank_oracle_dense"])
def test_is_coboundary_equals_coboundary_oracle(name, request):
    """The block test equals exact elimination on every case of
    `_coboundary_cases`.  The cases reach both answers, and both reasons a
    cocycle test is needed: non-cocycles of degree 0 and of positive degree
    with no flat term."""
    A = (quantum_coefficient_action_algebra(2) if name == "Aq2"
         else request.getfixturevalue(name))
    answers = set()
    hidden = set()
    for c in _coboundary_cases(A, 4, random.Random(11)):
        expected = coboundary_oracle(A, c)
        assert is_coboundary(A, c) is expected, c
        answers.add(expected)
        if not is_cocycle(A, c) and not any(
                is_flat(A, g, sub_index(beta, alpha))
                for alpha, beta, g in c.terms):
            hidden.add(c.degree == 0)
    assert answers == {True, False}
    assert hidden == {True, False}


def test_axiom_suite_builds_no_image_of_the_differential():
    """`axiom_suite` decides its identities by the block test alone: it
    leaves no echelon of the oracle in A.caches."""
    A = readme_algebra()
    assert axiom_suite(A, 3) == []
    assert not [key for key in A.caches if key[0] == "_image_reducer"]


def test_class_equal_reflexive_and_shifted(A2):
    rng = random.Random(17)
    c = Cochain.basis(A2, (1, 1), (1, 1), 0)
    assert class_equal(A2, c, c)
    b = random_cochain(A2, 1, rng)
    shifted = c + hom_differential(A2, b)
    assert class_equal(A2, c, shifted)


def test_class_equal_distinguishes_noncommuting_conjugates():
    import itertools
    perms = list(itertools.permutations((0, 1, 2)))
    perms.sort(key=lambda p: (p != (0, 1, 2), p))

    def compose(p, r):
        return tuple(p[r[i]] for i in range(3))
    mult = [[perms.index(compose(p, r)) for r in perms] for p in perms]
    A = build_algebra(2, N=1, q_spec={(0, 1): ("formal", "q")},
                      group_spec=("table", mult,
                                  [[(1, 0), (1, 0)] for _ in perms]))
    g = next(i for i, p in enumerate(perms) if p == (1, 2, 0))
    h = next(i for i, p in enumerate(perms) if p == (1, 0, 2))
    gh, hg = A.group.mult[g][h], A.group.mult[h][g]
    assert gh != hg
    c1 = Cochain.basis(A, (1, 1), (1, 1), gh)
    c2 = Cochain.basis(A, (1, 1), (1, 1), hg)
    assert is_cocycle(A, c1) and is_cocycle(A, c2)
    assert not class_equal(A, c1, c2)


def test_class_equal_requires_cocycles(A2):
    not_cocycle = Cochain.basis(A2, (0, 0), (1, 0), 0)
    assert not is_cocycle(A2, not_cocycle)
    with pytest.raises(ValueError):
        class_equal(A2, not_cocycle, not_cocycle)


def test_rank_oracle_seed_disagreement_reported():
    """Seed 63 draws q = 1, a non-generic point with different ranks, so
    seeds (5, 63) disagree.  Ranks are kept per (degree, g, seed): after
    the disagreement the same algebra answers each seed alone as a fresh
    algebra does."""
    A = formal_algebra(2)
    with pytest.raises(ArithmeticError, match="disagrees"):
        rank_oracle(A, 1, 0, seeds=(5, 63))
    for seeds in ((5,), (63,)):
        for m in range(4):
            assert rank_oracle(A, m, 0, seeds=seeds) == \
                rank_oracle(formal_algebra(2), m, 0, seeds=seeds), (seeds, m)


# ---------------------------------------------------------------------------
# work kept in A.caches
# ---------------------------------------------------------------------------

def test_coboundary_oracle_cached_image_interleaved_degrees():
    """The oracle's image of the differential is kept per degree;
    interleaving the degrees must not mix them up, and repeat calls answer
    the same."""
    A = quantum_coefficient_action_algebra(3)

    def boundary(m):
        for alpha, beta, g in full_basis(A, m - 1):
            b = hom_differential(A, Cochain.basis(A, alpha, beta, g))
            if not b.is_zero():
                return b

    def span_check(c):
        rows = [hom_differential(A, Cochain.basis(A, *k)).to_frac().terms
                for k in full_basis(A, c.degree - 1)]
        return in_span([r for r in rows if r], c.to_frac().terms)

    cases = []
    for m in (2, 3):
        cases.append((boundary(m), True))
        cases.append((invariant_basis(A, m).classes[0], False))
    order = [cases[0], cases[3], cases[1], cases[2]]
    for _ in range(2):
        for c, expected in order:
            assert coboundary_oracle(A, c) is expected
            assert span_check(c) is expected


def test_invariant_rank_oracle_cache_is_per_seed():
    """Ranks are kept per (degree, seed): answers on one algebra across
    seed lists equal those on fresh algebras.  Seed 63 draws q = 1, a
    non-generic point with different ranks, so a cache that ignored the
    seed would show here."""
    def make():
        return formal_algebra(2, group_spec=("cyclic", 3, [(1, 0), (1, 0)]))

    shared = make()
    for seeds in ((5,), (63,), (7,), (5, 7)):
        for m in range(5):
            assert invariant_rank_oracle(shared, m, seeds=seeds) == \
                invariant_rank_oracle(make(), m, seeds=seeds), (seeds, m)
    assert [invariant_rank_oracle(shared, m, seeds=(63,))
            for m in range(3)] != [invariant_rank_oracle(shared, m, seeds=(5,))
                                   for m in range(3)]
