import hashlib
import random
from itertools import product
from pathlib import Path

import pytest

import qhoch.cohomology
import qhoch.gerstenhaber
from conftest import random_scalar, readme_algebra, s3_algebra
from qhoch import (Cochain, Unit, bracket, bracket_oracle, build_algebra,
                   circ, circ_oracle, cup, cup_oracle, formal_algebra,
                   g_action_on_cochain, hom_differential, invariant_basis,
                   is_coboundary, is_cocycle,
                   quantum_coefficient_action_algebra, unit_cochain)
from qhoch.algebra import Algebra, SkewElement
from qhoch.cli import load_config
from qhoch.cohomology import coboundary_oracle, collect_classes
from qhoch.gerstenhaber import (PairProducts, _circ_inner, _contractions,
                                _cup_swapped, _derivation_terms,
                                _jacobi_terms, axiom_suite, bracket_table,
                                product_check)
from qhoch.resolution import (compositions, diagonal, full_basis,
                              phi_generator, sub_index)


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
# the chain-level oracles as literal walks over every generator and every
# splitting, with nothing kept between calls: the reference the tabled
# oracles are compared against
# ---------------------------------------------------------------------------

def walk_cup_oracle(A, f1, f2):
    total = f1.degree + f2.degree
    out = {}
    for rho in compositions(A.n, total):
        acc = SkewElement(A)
        for b1, b2, u in diagonal(A, rho):
            if sum(b1) != f1.degree:
                continue
            left = {(alpha, g): c for (alpha, beta, g), c in f1.terms.items()
                    if beta == b1}
            if not left:
                continue
            right = {(gamma, h): c for (gamma, kappa, h), c in f2.terms.items()
                     if kappa == b2}
            if not right:
                continue
            acc = acc + (SkewElement(A, left) * SkewElement(A, right)).scale(u)
        for (mono, g), c in acc.terms.items():
            out[(mono, rho, g)] = c
    return Cochain(A, total, out)


def walk_circ_oracle(A, outer, inner):
    m, l = outer.degree, inner.degree
    total = m + l - 1
    out = {}
    if total < 0:
        return Cochain(A, 0)
    outer_by_kappa = {}
    for (gamma, kappa, h), c in outer.terms.items():
        outer_by_kappa.setdefault(kappa, []).append((gamma, h, c))
    for rho in compositions(A.n, total):
        acc = SkewElement(A)
        for rho1, rho2, u_outer in diagonal(A, rho):
            for (alpha, beta, g), c_in in inner.terms.items():
                nu = sub_index(rho1, beta)
                if any(x < 0 for x in nu):
                    continue
                u_inner = A.uni.one
                for t in range(A.n):
                    if nu[t]:
                        for k in range(t):
                            if beta[k]:
                                u_inner = u_inner * (A.q[k][t] ** (beta[k] * nu[t]))
                coeff = u_outer * u_inner * c_in
                if (l * sum(nu)) % 2:
                    coeff = -coeff
                coeff = coeff * A.chi_prod(g, rho2)
                contracted = phi_generator(A, nu, alpha, rho2)
                for (a, kappa, b), pc in contracted.terms.items():
                    hits = outer_by_kappa.get(kappa)
                    if not hits:
                        continue
                    base = coeff * pc
                    left = SkewElement.basis(A, a, 0)
                    park = SkewElement.basis(A, (0,) * A.n, g)
                    for gamma, h, c_out in hits:
                        val = left * SkewElement.basis(A, gamma, h, c_out)
                        val = val * SkewElement.basis(A, b, 0)
                        val = val * park
                        acc = acc + val.scale(base)
        for (mono, gout), c in acc.terms.items():
            out[(mono, rho, gout)] = c
    return Cochain(A, total, out)


def random_cochain(A, m, rng):
    """A multi-term m-cochain with non-unit coefficients: up to two
    generator indices, each carrying two monomials, and each monomial with
    two group elements where the group has them."""
    out = Cochain(A, m)
    betas = list(compositions(A.n, m))
    for beta in rng.sample(betas, min(2, len(betas))):
        for alpha in rng.sample(list(product((0, 1), repeat=A.n)), 2):
            for g in rng.sample(range(A.group.order), min(2, A.group.order)):
                c = A.uni.zero
                while c.is_zero():
                    c = random_scalar(A.uni, rng, terms=2)
                out = out + Cochain.basis(A, alpha, beta, g, c)
    return out


def config_algebra(*parts):
    """The algebra of a checked-in config, read through the CLI, from its
    path relative to the repository root."""
    return load_config(str(Path(__file__).resolve().parent.parent.joinpath(
        *parts)))[0]


def rank_oracle_dense():
    """n = 3 over Q(zeta_60), C6 acting, q13 formal: the algebra of
    `perfbench/configs/rank-oracle-dense.json`, read through the CLI."""
    return config_algebra("perfbench", "configs", "rank-oracle-dense.json")


@pytest.mark.parametrize("fixture, maker, degrees", [
    ("A3", lambda: formal_algebra(3), 4),
    ("Ad3", lambda: quantum_coefficient_action_algebra(3), 4),
    ("S3", s3_algebra, 4),
    (None, rank_oracle_dense, 3),
], ids=["A3", "Ad3", "S3", "rank-oracle-dense"])
def test_tabled_oracles_equal_literal_walk(fixture, maker, degrees,
                                           request):
    """The oracles' tables in A.caches change no answer: on random
    multi-term cochains of degree < degrees they equal the literal walks,
    for degree pairs interleaved on one warm algebra (each inner cochain
    is reused with every outer degree) and on a fresh one.  On the
    nonabelian S3 the group parts of a product do not commute; the dense
    algebra has sixth roots of unity as q entries and characters, and a
    formal q13."""
    rng = random.Random(29)
    warm = request.getfixturevalue(fixture) if fixture else maker()
    for A in (warm, maker()):
        cochains = {m: random_cochain(A, m, rng) for m in range(degrees)}
        pairs = [(m, l) for m in range(degrees) for l in range(degrees)]
        rng.shuffle(pairs)
        nonzero = 0
        for m, l in pairs:
            f1, f2 = cochains[m], cochains[l]
            got = cup_oracle(A, f1, f2), circ_oracle(A, f1, f2)
            assert got == (walk_cup_oracle(A, f1, f2),
                           walk_circ_oracle(A, f1, f2)), (m, l)
            nonzero += sum(not c.is_zero() for c in got)
        assert nonzero >= len(pairs)


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
    # nonabelian: the group part of a product is mult[g][h], not mult[h][g]
    ("S3", 3),
])
def test_cup_equals_oracle(fixture, maxtot, request):
    A = request.getfixturevalue(fixture)
    assert sweep_formula_vs_oracle(A, maxtot, cup, cup_oracle) is None


def test_cup_equals_oracle_three_generators(A3):
    assert sweep_formula_vs_oracle(A3, 3, cup, cup_oracle) is None


@pytest.mark.parametrize("fixture", ["A3", "S3"])
def test_products_hold_only_checked_terms(fixture, request):
    """cup, circ and both oracles hand the map they accumulated to
    `Cochain.from_accumulated`, which skips the constructor's checks; on
    every product of the A3 and S3 sweeps the checked constructor keeps
    every term, so no term is zero and each has the result's degree."""
    A = request.getfixturevalue(fixture)
    for m in range(4):
        for l in range(4 - m):
            for k1 in all_keys(A, m):
                c1 = Cochain.basis(A, *k1)
                for k2 in all_keys(A, l):
                    c2 = Cochain.basis(A, *k2)
                    for op in (cup, cup_oracle, circ, circ_oracle):
                        r = op(A, c1, c2)
                        assert Cochain(A, r.degree,
                                       dict(r.terms)).terms == r.terms


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
    # nonabelian: the group part of a product is mult[h][g], not mult[g][h]
    ("S3", 3),
])
def test_circ_equals_oracle(fixture, maxtot, request):
    A = request.getfixturevalue(fixture)
    assert sweep_formula_vs_oracle(A, maxtot, circ, circ_oracle) is None


def test_circ_equals_oracle_three_generators(A3):
    assert sweep_formula_vs_oracle(A3, 3, circ, circ_oracle) is None


def long_run_pairs(A, top, slots, count, seed=0):
    """count basis pairs (outer, inner) of total degree <= top, drawn with
    the given seed, each with a long splitting run in `circ`: at a slot r
    in slots the inner alpha_r is 1 and the outer kappa_r is at least 3,
    so that rho_r - beta_r = kappa_r - 1 >= 2, and the run passes circ's
    guards (alpha + gamma is at most 1 off r)."""
    rng = random.Random(seed)
    symbols = [k for m in range(top + 1) for k in full_basis(A, m)]
    pairs = set()
    while len(pairs) < count:
        r = rng.choice(slots)
        gamma, kappa, h = rng.choice([k for k in symbols if k[1][r] >= 3])
        inner = rng.choice([
            (alpha, beta, g) for alpha, beta, g in symbols
            if alpha[r] == 1 and sum(beta) + sum(kappa) <= top
            and all(alpha[s] + gamma[s] <= 1 for s in range(A.n) if s != r)])
        pairs.add(((gamma, kappa, h), inner))
    return sorted(pairs)


@pytest.mark.parametrize("fixture, slots, count", [
    # the step is a root of unity: keys repeat, and 1 + zeta + zeta^2
    # cancels
    ("Ad3", (0, 1), 60),
    # the step has a formal exponent
    ("A2", (0, 1), 40),
    # the step is +-1
    ("A_comm", (0, 1), 40),
    # the middle slot: the step has factors from both sides of r
    ("A3", (1,), 40),
])
def test_circ_long_splitting_runs_equal_oracle(fixture, slots, count,
                                                request):
    """The closed form's splitting sums, walked as geometric runs from
    their first unit, equal the oracle on runs of three to ten
    splittings, up to total degree 10."""
    A = request.getfixturevalue(fixture)
    for k1, k2 in long_run_pairs(A, 10, slots, count):
        c1, c2 = Cochain.basis(A, *k1), Cochain.basis(A, *k2)
        assert circ(A, c1, c2) == circ_oracle(A, c1, c2), (k1, k2)


@pytest.mark.parametrize("maker", [
    readme_algebra, s3_algebra, rank_oracle_dense,
    lambda: config_algebra("tests", "formal3.json"),
    lambda: config_algebra("perfbench", "configs",
                           "axioms-commutative.json"),
], ids=["README", "S3", "rank-oracle-dense", "formal3",
        "axioms-commutative"])
def test_circ_splitting_units_equal_contractions(maker):
    """Each splitting's unit, read off `_circ_inner`'s per-index factors as
    K0 + sum_i kappa_i V_i + p step (0 <= p < kappa_r), is the coefficient
    the literal walk `_contractions` gives that splitting: for every inner
    basis symbol with |beta| <= 3, each slot r and each outer kappa with
    |kappa| <= 3 and kappa_r > 0, the run's keys and the keys of the
    walk's entries on (rho = kappa + beta - e_r, alpha above r, alpha below
    r) are the same, counted."""
    A = maker()
    n = A.n
    runs = 0
    for l in range(4):
        for alpha, beta, g in full_basis(A, l):
            for r, K0, V, step, beta_below in _circ_inner(A, alpha, beta, g):
                above = (0,) * (r + 1) + alpha[r + 1:]
                below = alpha[:r] + (0,) * (n - r)
                for m in range(1, 4):
                    table = _contractions(A, (alpha, beta, g), m)
                    for kappa in compositions(n, m):
                        if not kappa[r]:
                            continue
                        first = [(K0, 1)] + [(v, kappa[i]) for v, i in V]
                        run = sorted(A.unit_key(first + [(step, p)])
                                     for p in range(kappa[r]))
                        rho = tuple(k + b for k, b in zip(kappa, beta_below))
                        walk = sorted(
                            factor[0] for rho_w, a, b, factor
                            in table.get(kappa, ())
                            if (rho_w, a, b) == (rho, above, below))
                        assert run == walk, (alpha, beta, g, r, kappa)
                        runs += 1
    assert runs


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


def test_product_check_names_the_broken_pair(A2, monkeypatch):
    """With circ doubled on one basis pair, product_check returns exactly
    that pair as its witness."""
    k1, k2 = ((1, 0), (1, 0), 0), ((1, 1), (1, 1), 0)
    c1, c2 = Cochain.basis(A2, *k1), Cochain.basis(A2, *k2)
    assert not circ(A2, c1, c2).is_zero()
    real_circ = qhoch.gerstenhaber.circ

    def broken(A, outer, inner):
        res = real_circ(A, outer, inner)
        return res.scale(2) if (outer, inner) == (c1, c2) else res

    monkeypatch.setattr(qhoch.gerstenhaber, "circ", broken)
    assert product_check(A2, 3) == ("circle", k1, k2)


def test_product_check_fails_on_a_broken_contraction(monkeypatch):
    """With the sign of one contraction flipped where the circle oracle
    sees it, product_check returns a witness: the first outer symbol on
    e_(1,0) against the inner symbol x1 e_(0,0)^*, whose circle product is
    that one contraction."""
    A = formal_algebra(2)
    target = ((0, 0), (1, 0), (0, 0))
    real_phi = qhoch.gerstenhaber.phi_generator

    def flipped(A, beta, mid, gamma):
        res = real_phi(A, beta, mid, gamma)
        return -res if (beta, mid, gamma) == target else res

    monkeypatch.setattr(qhoch.gerstenhaber, "phi_generator", flipped)
    first = next(k for k in full_basis(A, 1) if k[1] == (1, 0))
    assert product_check(A, 2) == ("circle", first, ((1, 0), (0, 0), 0))


def test_product_check_sees_a_broken_algebra_product(monkeypatch):
    """`circ` and both oracles reorder monomials by `Algebra.mono_mul`,
    while `cup` keeps its own formula, so a wrong algebra product still
    fails product_check: with x2 * x1 = (-q12)^-2 x1 x2 in place of
    (-q12)^-1 x1 x2, the cup of x2 with x1 in degree 0 is the witness."""
    A = formal_algebra(2)
    real_mono_mul = Algebra.mono_mul

    def broken(self, a, b):
        hit = real_mono_mul(self, a, b)
        if (a, b) == ((0, 1), (1, 0)):
            factors, mono = hit
            hit = tuple([(u, 2 * e) for u, e in factors]), mono
        return hit

    monkeypatch.setattr(Algebra, "mono_mul", broken)
    assert product_check(A, 2) == ("cup", ((0, 1), (0, 0), 0),
                                   ((1, 0), (0, 0), 0))


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


def test_axiom_suite_small(A2, Ad3, S3):
    """The suite passes on A2, Ad3 and the nonabelian S3, whose classes are
    orbit sums with several terms: there a product f of classes has more
    than one term, and `PairProducts.add` forms [f, c] from several basis
    brackets."""
    assert axiom_suite(A2, 2) == []
    assert axiom_suite(Ad3, 3) == []
    assert any(len(c.terms) > 1 for m in range(3)
               for c in invariant_basis(S3, m).classes)
    assert axiom_suite(S3, 2) == []


def test_bracket_table_entries_equal_bracket(A2_Z3):
    classes = [(f"d{m}#{i}", c) for m in range(4)
               for i, c in enumerate(invariant_basis(A2_Z3, m).classes)]
    table = bracket_table(A2_Z3, classes)
    assert len(table) == len(classes) ** 2
    entries = iter(table)
    for la, ca in classes:
        for lb, cb in classes:
            left, right, res = next(entries)
            assert (left, right) == (la, lb)
            assert res == bracket(A2_Z3, ca, cb)


@pytest.mark.parametrize("name", ["A2_Z3", "S3"])
def test_pair_products_read_column_major(name, request, monkeypatch):
    """Read column by column (j before i), every bracket entry of a
    `PairProducts` equals `bracket` of its pair, and each unordered pair is
    bracketed once: the other entry is read by antisymmetry."""
    A = request.getfixturevalue(name)
    cochains = [c for m in range(4) for c in invariant_basis(A, m).classes]
    real = qhoch.gerstenhaber.bracket
    calls = []

    def counting(A, f1, f2):
        calls.append((f1, f2))
        return real(A, f1, f2)
    monkeypatch.setattr(qhoch.gerstenhaber, "bracket", counting)
    products = PairProducts(A, cochains)
    k = len(cochains)
    for j in range(k):
        for i in range(k):
            assert products.bracket(i, j) == real(A, cochains[i],
                                                  cochains[j])
    assert len(calls) == k * (k + 1) // 2


def mixed_cochain(A, m, rng):
    """`random_cochain` with every other coefficient replaced by a unit
    sign * zeta^k * t^e, so the terms carry unit coefficients, non-unit
    ones and, where the algebra has formal parameters, Laurent ones."""
    terms = {}
    for i, (key, c) in enumerate(random_cochain(A, m, rng).terms.items()):
        if i % 2:
            c = A.uni.unit(sign=rng.choice((1, -1)),
                           zeta=rng.randrange(A.uni.field.N),
                           exps=[rng.randint(-2, 2)
                                 for _ in range(A.uni.nparams)])
        terms[key] = c
    return Cochain(A, m, terms)


@pytest.mark.parametrize("name", ["S3", "A2", "Ad3", "readme"])
def test_products_equal_oracles_on_mixed_cochains(name, request):
    """cup == cup_oracle and circ == circ_oracle on mixed cochains of total
    degree <= 3.  A term pair of two Units enters the closed forms and the
    cup oracle as two more keys in the unit's sum; a pair with a non-unit
    coefficient as one product.  The basis sweeps only have coefficient 1,
    so they cannot see a key left out of the sum, nor the non-unit
    branch."""
    A = request.getfixturevalue(name)
    rng = random.Random(61)
    cochains = {m: [mixed_cochain(A, m, rng) for _ in range(3)]
                for m in range(4)}
    nonzero = {"cup": 0, "circ": 0}
    for m in range(4):
        for l in range(4 - m):
            for f1 in cochains[m]:
                for f2 in cochains[l]:
                    for name, op, oracle in (("cup", cup, cup_oracle),
                                             ("circ", circ, circ_oracle)):
                        got = op(A, f1, f2)
                        assert got == oracle(A, f1, f2), (name, m, l)
                        nonzero[name] += not got.is_zero()
    coeffs = [c for fs in cochains.values() for f in fs
              for c in f.terms.values()]
    assert sum(type(c) is Unit and not c.is_one() for c in coeffs) > 10
    assert sum(c.as_unit() is None for c in coeffs) > 10
    assert min(nonzero.values()) > 10, nonzero


@pytest.mark.parametrize("name", ["S3", "A2", "readme"])
def test_cochain_arithmetic_keeps_the_constructor_invariants(name, request):
    """Cochain `+`, `-`, negation and `scale` build their result without
    the constructor's checks.  On mixed cochains, with Scalar and Frac
    coefficients and both mixed, each result holds exactly the terms the
    checked constructor keeps, the operations agree with each other, a
    sum that cancels a term drops its key, and mismatched degrees still
    raise."""
    A = request.getfixturevalue(name)
    rng = random.Random(53)
    three = A.uni.from_rational(3)
    for m in range(3):
        f, g = mixed_cochain(A, m, rng), mixed_cochain(A, m, rng)
        for x, y in ((f, g), (f.to_frac(), g.to_frac()), (f, g.to_frac())):
            results = [x + y, x - y, -x, x.scale(three), x.scale(A.uni.zero),
                       x - x, x + (-x), y.scale(three) - x]
            for r in results:
                assert r.degree == m
                assert r.terms == Cochain(A, m, dict(r.terms)).terms
            assert (x + y) - y == x and -(-x) == x
            assert x - y == x + (-y) and x.scale(three) == x + x + x
            assert (x - x).is_zero() and x.scale(A.uni.zero).is_zero()
            (key, c), = list(x.terms.items())[:1]
            for r in (x + Cochain.basis(A, *key, -c),
                      x - Cochain.basis(A, *key, c)):
                assert key not in r.terms
                assert r.terms == {k: v for k, v in x.terms.items()
                                   if k != key}
        higher = mixed_cochain(A, m + 1, rng)
        with pytest.raises(ValueError):
            f + higher
        with pytest.raises(ValueError):
            f - higher


def bilinear_inputs(A, rng):
    """The classes of degree <= 2 and random multi-term cochains f of
    degree <= 2, with unit, non-unit and, where the algebra has formal
    parameters, Laurent coefficients."""
    classes = [c for m in range(3) for c in invariant_basis(A, m).classes]
    fs = [mixed_cochain(A, m, rng) for m in range(3) for _ in range(2)]
    coeffs = [c for f in fs for c in f.terms.values()]
    assert any(type(c) is Unit for c in coeffs)
    assert any(c.as_unit() is None for c in coeffs)
    if A.uni.nparams:
        assert any(min(e) < 0 for c in coeffs for e in c.terms)
    return classes, fs


@pytest.mark.parametrize("name", ["S3", "Ad3", "A2", "readme"])
def test_pair_products_bracket_with_is_bilinear(name, request, monkeypatch):
    """`PairProducts.add(out, bracket, f, k)` adds [f, c_k], `bracket` of f
    with the k-th class, into out: on a fresh map it gives that cochain's
    terms, on random multi-term cochains f, read twice over, and adding it
    again negated gives the empty map.  It calls `bracket` once per (basis
    symbol of f, class) and never for a zero f, which adds nothing."""
    A = request.getfixturevalue(name)
    classes, fs = bilinear_inputs(A, random.Random(43))
    real = qhoch.gerstenhaber.bracket
    calls = []

    def counting(A, f1, f2):
        (t,) = f1.terms
        calls.append((t, next(k for k, c in enumerate(classes) if c is f2)))
        return real(A, f1, f2)
    monkeypatch.setattr(qhoch.gerstenhaber, "bracket", counting)
    products = PairProducts(A, classes)
    nonzero = 0
    for _ in range(2):
        for f in fs:
            for k, ck in enumerate(classes):
                want = real(A, f, ck).terms
                out = {}
                products.add(out, qhoch.gerstenhaber.bracket, f, k)
                assert out == want, (f, k)
                products.add(out, qhoch.gerstenhaber.bracket, f, k,
                             negate=True)
                assert out == {}
                nonzero += bool(want)
        for m in range(3):
            for k in range(len(classes)):
                out = {}
                products.add(out, qhoch.gerstenhaber.bracket, Cochain(A, m), k)
                assert out == {}
    assert nonzero >= len(fs)
    assert sorted(calls) == sorted({(t, k) for f in fs for t in f.terms
                                    for k in range(len(classes))})


@pytest.mark.parametrize("name", ["S3", "Ad3", "A2", "readme"])
def test_pair_products_cup_tables_are_bilinear(name, request, monkeypatch):
    """`PairProducts.add(out, cup, f, k)` adds f ^ c_k and
    `add(out, _cup_swapped, f, k)` adds c_k ^ f, `cup` with the k-th class
    on either side, on the same inputs as the bracket twin above, read twice
    over; negated they cancel.  They call `cup` once per (basis symbol of
    f, class, side) and never for a zero f, which adds nothing."""
    A = request.getfixturevalue(name)
    classes, fs = bilinear_inputs(A, random.Random(47))
    real = qhoch.gerstenhaber.cup
    calls = []

    def position(c):
        return next((k for k, ck in enumerate(classes) if ck is c), None)

    def counting(A, f1, f2):
        k = position(f2)
        if k is not None:
            (t,) = f1.terms
            calls.append((t, k, "left"))
        else:
            (t,) = f2.terms
            calls.append((t, position(f1), "right"))
        return real(A, f1, f2)
    monkeypatch.setattr(qhoch.gerstenhaber, "cup", counting)
    products = PairProducts(A, classes)
    nonzero = 0
    for _ in range(2):
        for f in fs:
            for k, ck in enumerate(classes):
                left, right = real(A, f, ck).terms, real(A, ck, f).terms
                out = {}
                products.add(out, qhoch.gerstenhaber.cup, f, k)
                assert out == left, (f, k)
                products.add(out, qhoch.gerstenhaber.cup, f, k, negate=True)
                assert out == {}
                products.add(out, _cup_swapped, f, k)
                assert out == right, (k, f)
                products.add(out, _cup_swapped, f, k, negate=True)
                assert out == {}
                nonzero += bool(left) + bool(right)
        for m in range(3):
            for k in range(len(classes)):
                out = {}
                products.add(out, qhoch.gerstenhaber.cup, Cochain(A, m), k)
                products.add(out, _cup_swapped, Cochain(A, m), k)
                assert out == {}
    assert nonzero >= len(fs)
    assert sorted(calls) == sorted({(t, k, side) for f in fs for t in f.terms
                                    for k in range(len(classes))
                                    for side in ("left", "right")})


@pytest.mark.parametrize("name, top", [("readme", 3), ("S3", 3), ("A2", 3),
                                       ("Ad3", 3)])
def test_fused_identities_equal_cochain_arithmetic(name, top, request):
    """The maps `axiom_suite` decides, one per Jacobi rotation class and
    one per derivation triple in its degree bound, equal term by term the
    cochains built from `bracket`, `cup` and cochain `+` and `-`, with each
    product of a product formed afresh, the zero ones included."""
    A = request.getfixturevalue(name)
    classes = [c for _, c in collect_classes(A, range(top + 1))]
    products = PairProducts(A, classes)
    deg = [c.degree for c in classes]
    k = len(classes)
    # the products of two classes, each formed once by `bracket` or `cup`
    br = {(i, j): bracket(A, classes[i], classes[j])
          for i in range(k) for j in range(k) if deg[i] + deg[j] <= top + 2}
    cp = {(i, j): cup(A, classes[i], classes[j])
          for i in range(k) for j in range(k) if deg[i] + deg[j] <= top + 1}
    count = {"jacobi": 0, "derivation": 0, "zero inputs": 0}
    for a, b, c in product(range(k), repeat=3):
        if deg[a] + deg[b] + deg[c] - 2 <= top \
                and (a, b, c) == min((a, b, c), (b, c, a), (c, a, b)):
            want = Cochain(A, 0)
            for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
                term = bracket(A, br[p, q], classes[r])
                if ((deg[p] - 1) * (deg[r] - 1)) % 2:
                    term = -term
                want = want + term
            assert _jacobi_terms(products, a, b, c) == want.terms, (a, b, c)
            count["jacobi"] += bool(want.terms)
        if deg[a] + deg[b] + deg[c] - 1 <= top:
            rhs = cup(A, br[b, a], classes[c])
            second = cup(A, classes[b], br[c, a])
            if (deg[b] * (deg[a] - 1)) % 2:
                rhs = rhs - second
            else:
                rhs = rhs + second
            want = bracket(A, cp[b, c], classes[a]) - rhs
            assert _derivation_terms(products, a, b, c) == want.terms, \
                (a, b, c)
            count["derivation"] += bool(want.terms)
            count["zero inputs"] += (cp[b, c].is_zero() and br[b, a].is_zero()
                                     and br[c, a].is_zero())
    assert count["zero inputs"], count
    if name == "S3":
        # on the orbit sums of S3 some identities hold only up to coboundary
        assert count["jacobi"] and count["derivation"], count


def test_axiom_suite_reports_every_failure_of_a_broken_circ(monkeypatch):
    """With circ scaled by 2 on (outer degree 2, inner degree 1) the suite
    reports each failing identity once, in its enumeration order: 36 Jacobi
    failures, each rotation class named by its least rotation, then 28
    derivation-rule failures.  The Jacobi classes named are exactly the
    rotation classes, among all those in the degree bound, whose
    jacobiator the elimination oracle `coboundary_oracle` rejects."""
    real_circ = qhoch.gerstenhaber.circ

    def broken(A, outer, inner):
        res = real_circ(A, outer, inner)
        if outer.degree == 2 and inner.degree == 1:
            return res.scale(2)
        return res

    monkeypatch.setattr(qhoch.gerstenhaber, "circ", broken)
    A = build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)})
    failures = axiom_suite(A, 3)
    assert len(failures) == 64
    assert failures[0] == "Jacobi fails: d0#1,d1#0,d2#2"
    assert failures[-1] == "derivation rule fails: d2#3,d1#2,d1#0"
    assert hashlib.sha256("\n".join(failures).encode()).hexdigest() == \
        "983df17efc584e5029a4c48718a92d6fc980f0c049a8a4510200af6c6674f4b8"
    classes = collect_classes(A, range(4))
    position = {label: i for i, (label, _) in enumerate(classes)}
    jacobi = [tuple(position[label] for label in f.split(": ")[1].split(","))
              for f in failures if f.startswith("Jacobi fails: ")]
    assert len(jacobi) == 36
    assert all(t == min(t, t[1:] + t[:1], t[2:] + t[:2]) for t in jacobi)
    deg = [c.degree for _, c in classes]
    products = PairProducts(A, [c for _, c in classes])
    least = {min(t, t[1:] + t[:1], t[2:] + t[:2])
             for t in product(range(len(classes)), repeat=3)
             if sum(deg[i] for i in t) - 2 <= 3}
    assert len(least) == 1320
    rejected = {t for t in least if not coboundary_oracle(
        A, Cochain.from_accumulated(A, sum(deg[i] for i in t) - 2,
                                    _jacobi_terms(products, *t)))}
    assert rejected == set(jacobi)


def suite_decisions(A, top):
    """Every identity `axiom_suite(A, top)` decides, as the failure it
    reports when the identity fails, in the suite's order: the cup checks
    and the bracket-cocycle check per unordered pair, Jacobi per cyclic
    rotation class at its least rotation, and the derivation rule per
    ordered triple, each within its degree bound; and the least rotations
    themselves."""
    classes = collect_classes(A, range(top + 1))
    labels = [label for label, _ in classes]
    deg = [c.degree for _, c in classes]
    k = len(classes)

    def names(*t):
        return ",".join(labels[i] for i in t)
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    want = []
    for a, b in pairs:
        if deg[a] + deg[b] <= top:
            want += [f"cup of cocycles not a cocycle: {names(a, b)}",
                     f"graded commutativity fails: {names(a, b)}"]
    want += [f"bracket not a cocycle: {names(a, b)}" for a, b in pairs
             if 0 < deg[a] + deg[b] <= top + 1]
    least = sorted({min(t, t[1:] + t[:1], t[2:] + t[:2])
                    for t in product(range(k), repeat=3)
                    if sum(deg[i] for i in t) - 2 <= top})
    want += [f"Jacobi fails: {names(*t)}" for t in least]
    want += [f"derivation rule fails: {names(*t)}"
             for t in product(range(k), repeat=3)
             if sum(deg[i] for i in t) - 1 <= top]
    return want, least


@pytest.mark.parametrize("name, top", [("A2", 2), ("S3", 2), ("readme", 3)])
def test_axiom_suite_decides_each_identity_once(name, top, request,
                                                 monkeypatch):
    """With every cocycle and coboundary test answering no, the suite
    reports each identity it decides: each unordered pair once for the cup
    checks and the bracket-cocycle check (a == b included), each rotation
    class once for Jacobi, whose jacobiator `_jacobi_terms` forms at the
    class's least rotation alone, and each ordered triple once for the
    derivation rule."""
    A = request.getfixturevalue(name)
    real_jacobi = qhoch.gerstenhaber._jacobi_terms
    calls = []

    def recording(products, a, b, c):
        calls.append((a, b, c))
        return real_jacobi(products, a, b, c)
    monkeypatch.setattr(qhoch.gerstenhaber, "_jacobi_terms", recording)
    monkeypatch.setattr(qhoch.gerstenhaber, "is_cocycle", lambda A, c: False)
    monkeypatch.setattr(qhoch.cohomology, "is_coboundary",
                        lambda A, c: False)
    want, least = suite_decisions(A, top)
    assert axiom_suite(A, top) == want
    assert calls == least
    assert any(t[0] == t[1] != t[2] for t in least)


@pytest.mark.parametrize(
    "product_name, degrees, scale, count, first, counts", [
    ("cup", (1, 2), True, 30, "graded commutativity fails: d1#0,d2#0",
     {"graded commutativity fails": 8, "derivation rule fails": 22}),
    ("cup", (1, 1), False, 185, "cup of cocycles not a cocycle: d1#0,d1#0",
     {"cup of cocycles not a cocycle": 10, "graded commutativity fails": 10,
      "derivation rule fails": 165}),
    ("circ", (2, 1), False, 592, "bracket not a cocycle: d1#0,d2#0",
     {"bracket not a cocycle": 20, "Jacobi fails": 354,
      "derivation rule fails": 218}),
    ], ids=["cup-scaled", "cup-not-cocycle", "bracket-not-cocycle"])
def test_axiom_suite_trips_each_pair_check(product_name, degrees, scale,
                                           count, first, counts,
                                           monkeypatch):
    """A product broken on one degree pair, scaled by 2 or plus the
    non-cocycle (x1)e*_(1,1), trips each pair check of the suite on n = 2,
    q = -1 at degree 3: graded commutativity, a cup of cocycles that is
    not a cocycle, and a bracket of cocycles that is not a cocycle, with
    the count per kind and the first failure pinned.  The circle product
    is broken on (2, 1) alone: a term added to both orders of (1, 1)
    cancels in the bracket."""
    A = build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)})
    t = Cochain.basis(A, (1, 0), (1, 1), 0)
    assert not hom_differential(A, t).is_zero()
    real = getattr(qhoch.gerstenhaber, product_name)

    def broken(A, f1, f2):
        res = real(A, f1, f2)
        if (f1.degree, f2.degree) != degrees:
            return res
        return res.scale(2) if scale else res + t
    monkeypatch.setattr(qhoch.gerstenhaber, product_name, broken)
    failures = axiom_suite(A, 3)
    assert len(failures) == count
    assert failures[0] == first
    kinds = {}
    for f in failures:
        kind = f.split(": ")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == counts
