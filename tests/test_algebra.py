import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (S3_MULT, S3_PERMS, SESSION_ALGEBRAS, perm_sign,
                      random_scalar)
from qhoch import (Group, SkewElement, build_algebra, formal_algebra,
                   group_act, make_cyclic_group,
                   quantum_coefficient_action_algebra)
from qhoch.algebra import TableError, cached
from qhoch.linalg import accumulate
from qhoch.scalars import Unit


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


def test_build_algebra_rejects_a_repeated_parameter_name():
    with pytest.raises(ValueError, match="'x' repeats"):
        build_algebra(3, q_spec={(0, 1): ("formal", "x"),
                                 (0, 2): ("formal", "x")})
    # an explicit name that a missing pair takes by default
    with pytest.raises(ValueError, match="'q13' repeats"):
        build_algebra(3, q_spec={(0, 1): ("formal", "q13")})


def test_group_table_validation_catches_bad_tables():
    A = formal_algebra(2)
    one = A.uni.one
    with pytest.raises(ValueError):
        Group(((0, 1), (1, 1)), ((one, one), (one, one)))  # not a group law
    with pytest.raises(ValueError):
        # chi not a homomorphism
        Group(((0, 1), (1, 0)),
              ((one, one), (A.uni.unit(sign=-1), one)))


def loops(order):
    """Every table on range(order) with identity 0 whose rows and columns
    are permutations (a loop), as tuples of rows."""
    table = [[g if h == 0 else h if g == 0 else None for h in range(order)]
             for g in range(order)]
    cells = [(g, h) for g in range(1, order) for h in range(1, order)]

    def fill(i):
        if i == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        g, h = cells[i]
        for v in range(order):
            if v not in table[g] and all(row[h] != v for row in table):
                table[g][h] = v
                yield from fill(i + 1)
                table[g][h] = None
    return list(fill(0))


def associative(mult):
    """The brute-force check over all order^3 triples."""
    rng = range(len(mult))
    return all(mult[mult[a][b]][c] == mult[a][mult[b][c]]
               for a in rng for b in rng for c in rng)


def accepted(mult):
    """Whether Group takes mult as a group law (no characters)."""
    try:
        Group(mult, [()] * len(mult))
    except TableError:
        return False
    return True


def test_associativity_check_on_every_small_loop():
    """Light's test on a generating set decides associativity as the
    brute-force check does on every loop of order at most 5: the 1, 1, 1,
    4 and 56 tables, of which 1, 1, 1, 4 and 6 are groups."""
    groups = []
    for order, count in zip(range(1, 6), (1, 1, 1, 4, 56)):
        tables = loops(order)
        assert len(tables) == count
        for mult in tables:
            assert accepted(mult) == associative(mult), mult
        groups.append(sum(map(associative, tables)))
    assert groups == [1, 1, 1, 4, 6]


@st.composite
def tables_with_inverses(draw):
    """A table on range(order) with identity 0 in which every element has a
    right inverse: random entries, or a relabelled group table (S3 or
    cyclic) with up to two entries changed."""
    order = draw(st.integers(2, 6))
    rng = range(1, order)
    if draw(st.booleans()):
        mult = [[g if h == 0 else h if g == 0 else
                 draw(st.integers(0, order - 1)) for h in range(order)]
                for g in range(order)]
    else:
        base = (S3_MULT if order == 6 and draw(st.booleans()) else
                [[(a + b) % order for b in range(order)]
                 for a in range(order)])
        perm = [0] + draw(st.permutations(list(rng)))
        inv = [perm.index(x) for x in range(order)]
        mult = [[perm[base[inv[g]][inv[h]]] for h in range(order)]
                for g in range(order)]
        for _ in range(draw(st.integers(0, 2))):
            mult[draw(st.sampled_from(rng))][draw(st.sampled_from(rng))] = \
                draw(st.integers(0, order - 1))
    for g in rng:
        if 0 not in mult[g]:
            mult[g][draw(st.sampled_from(rng))] = 0
    return mult


@given(mult=tables_with_inverses())
@settings(max_examples=300, deadline=None)
def test_associativity_check_on_random_tables(mult):
    assert accepted(mult) == associative(mult)


@pytest.mark.parametrize("N, mult", [
    (4, [[(a + b) % 4 for b in range(4)] for a in range(4)]),
    (2, S3_MULT),
    # C2 x C2
    (2, [[a ^ b for b in range(4)] for a in range(4)]),
], ids=["C4", "S3", "C2xC2"])
def test_homomorphism_check_on_every_character_column(N, mult):
    """chi_{gh} = chi_g chi_h checked for h in a generating set decides
    the same as over all pairs, on every column of roots of unity with
    chi_0 = 1."""
    uni = build_algebra(1, N=N).uni
    order = len(mult)
    homomorphisms = 0
    for powers in product(range(N), repeat=order - 1):
        chi = [uni.one] + [uni.unit(zeta=k) for k in powers]
        expected = all(chi[mult[g][h]] == chi[g] * chi[h]
                       for g in range(order) for h in range(order))
        try:
            Group(mult, [(u,) for u in chi])
        except ValueError as exc:
            assert "homomorphism" in str(exc)
            assert not expected, powers
        else:
            assert expected, powers
        homomorphisms += expected
    # the characters of C4 into the 4th roots, and of S3 and C2 x C2 into
    # +-1
    assert homomorphisms == {4: 4, 6: 2}.get(order, 4)


@pytest.mark.parametrize("N, order", [(1, 1), (2, 2), (4, 4), (6, 3),
                                      (12, 12)])
def test_cyclic_group_passes_every_table_check(N, order):
    """`make_cyclic_group` builds a table and characters that pass every
    table-group check, in its own `Group` and when given to a table group
    again."""
    uni = build_algebra(2, N=N, q_spec={(0, 1): ("formal", "q")}).uni
    for sign, k in product((1, -1) if order % 2 == 0 else (1,),
                           range(0, N, N // order)):
        G = make_cyclic_group(uni, 2, order,
                              [uni.unit(sign=sign, zeta=k), uni.one])
        Group(G.mult, G.chi)


def test_nonabelian_group_conjugation(S3):
    # S3 as a table group with the sign character on both generators
    G = S3.group
    assert G.order == 6
    # conjugation permutes the two 3-cycles
    three_cycles = [i for i, p in enumerate(S3_PERMS)
                    if p in ((1, 2, 0), (2, 0, 1))]
    a, b = three_cycles
    swap = next(i for i, p in enumerate(S3_PERMS) if perm_sign(p) == -1)
    assert G.conjugate(swap, a) == b


# ---------------------------------------------------------------------------
# units built from their exponents against the literal unit products
# ---------------------------------------------------------------------------

PAIRS = ((0, 1), (0, 2), (1, 2))


@lru_cache(maxsize=None)
def _mixed_algebra(N, q_kinds, chi_gen):
    """Three generators over Q(zeta_N), one q_spec entry per pair, and the
    cyclic group of order min(N, 6) with generator characters chi_gen."""
    order = min(N, 6)
    return build_algebra(3, N=N, q_spec=dict(zip(PAIRS, q_kinds)),
                         group_spec=("cyclic", order, list(chi_gen)))


@st.composite
def mixed_algebras(draw):
    N = draw(st.sampled_from((1, 2, 3, 4, 6, 60)))
    q_kinds = tuple(draw(st.one_of(
        st.just(("formal", f"q{i + 1}{j + 1}")),
        st.tuples(st.just("zeta"), st.integers(0, N - 1)),
        st.tuples(st.just("rational"), st.sampled_from((1, -1)))))
        for i, j in PAIRS)
    # characters of order dividing min(N, 6); -1 only when N is even
    step = N // min(N, 6)
    signs = (1, -1) if N % 2 == 0 else (1,)
    chi_gen = tuple((draw(st.sampled_from(signs)),
                     step * draw(st.integers(0, min(N, 6) - 1)))
                    for _ in range(3))
    return _mixed_algebra(N, q_kinds, chi_gen)


def _literal(A, sign, factors):
    """(-1)^sign * prod u^e by Unit powers and Scalar products."""
    out = A.uni.unit(sign=-1 if sign % 2 else 1)
    for u, e in factors:
        out = out * (u ** e)
    return out


def _same_unit(got, want):
    """Equal by value, and both carry the same root tag."""
    assert isinstance(got, Unit) and got == want
    (c1,), (c2,) = got.terms.values(), want.terms.values()
    assert c1.root is not None and c1.root == c2.root


@given(A=mixed_algebras(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_unit_matches_literal_product(A, data):
    """Algebra.unit_product sums exponents; the literal product multiplies
    the units of q, nq and the characters one power at a time.  Covers
    negative exponents, even N (where -1 folds into zeta^{N/2}) and formal
    parameters."""
    tables = {"q": (A.q, A.q_exp), "nq": (A.nq, A.nq_exp),
              "chi": (A.group.chi, A.chi_exp)}
    picks = data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(tables)), st.integers(0, A.group.order - 1),
        st.integers(0, 2), st.integers(-5, 5)), max_size=8))
    sign = data.draw(st.integers(-3, 3))
    units, exps = [], []
    for name, i, j, e in picks:
        if name != "chi":
            i %= 3
        units.append((tables[name][0][i][j], e))
        exps.append((tables[name][1][i][j], e))
    _same_unit(A.unit_product(exps, sign), _literal(A, sign, units))


@pytest.mark.parametrize("name", SESSION_ALGEBRAS + ("S3",))
def test_chi_prod_and_mono_mul_match_literal_products(name, request):
    """chi_prod, mono_mul and skew_mono against units multiplied out power
    by power; skew_mono on every pair of basis monomials (x^a (x) g),
    (x^b (x) h), a repeated slot giving None and a zero product."""
    A = request.getfixturevalue(name)
    for g in range(A.group.order):
        for exps in product(range(-2, 3), repeat=A.n):
            _same_unit(A.chi_prod(g, exps), _literal(
                A, 0, [(A.chi(g, i), e) for i, e in enumerate(exps)]))
    for a in product((0, 1), repeat=A.n):
        for b in product((0, 1), repeat=A.n):
            hit = A.mono_mul(a, b)
            if any(x and y for x, y in zip(a, b)):
                assert hit is None
                continue
            # x_l x_k = (-q_{kl})^{-1} x_k x_l for k < l
            want = _literal(A, 0, [(A.nq[k][l], -1) for k in range(A.n)
                                   if b[k] for l in range(k + 1, A.n)
                                   if a[l]])
            _same_unit(A.unit_product(hit[0]), want)
            assert hit[1] == tuple(x | y for x, y in zip(a, b))
    for (a, g), (b, h) in product(product(product((0, 1), repeat=A.n),
                                          range(A.group.order)), repeat=2):
        want = literal_skew_mul(A, SkewElement.basis(A, a, g),
                                SkewElement.basis(A, b, h))
        hit = A.skew_mono(a, g, b)
        if hit is None:
            assert want.is_zero()
            continue
        (key, c), = want.terms.items()
        assert key == (hit[1], A.group.mult[g][h])
        _same_unit(A.unit_product(hit[0]), c)


@pytest.mark.parametrize("name", SESSION_ALGEBRAS + ("S3",))
def test_monomial_factor_lists_are_fresh(name, request):
    """`mono_mul`, `chi_factors` and `skew_mono` hand out the factor tuples
    they cached per argument: tuples, so that no caller can extend the
    cached value in place, and a second call returns the same object."""
    A = request.getfixturevalue(name)
    monos = list(product((0, 1), repeat=A.n))
    for a, b in product(monos, repeat=2):
        hit = A.mono_mul(a, b)
        assert A.mono_mul(a, b) is hit
        if hit is None:
            continue
        assert type(hit) is tuple and type(hit[0]) is tuple
        for g in range(A.group.order):
            skew = A.skew_mono(a, g, b)
            assert type(skew[0]) is tuple and A.skew_mono(a, g, b) is skew
            assert skew == (hit[0] + A.chi_factors(g, b), hit[1])
    for g in range(A.group.order):
        for exps in product(range(-1, 2), repeat=A.n):
            factors = A.chi_factors(g, exps)
            assert type(factors) is tuple
            assert A.chi_factors(g, exps) is factors


@pytest.mark.parametrize("name", SESSION_ALGEBRAS + ("S3",
                                                     "rank_oracle_dense"))
def test_unit_product_reads_the_universe_table(name, request):
    """`unit_product` of one factor is the very Unit the factor was read
    from (q, -q or a character), and a product that cancels is one or -1
    of the universe: the units of the algebra all come from one table."""
    A = request.getfixturevalue(name)
    tables = ((A.q, A.q_exp), (A.nq, A.nq_exp), (A.group.chi, A.chi_exp))
    for units, exps in tables:
        for row, row_exps in zip(units, exps):
            for u, u_exps in zip(row, row_exps):
                assert A.unit_product([(u_exps, 1)]) is u
                assert A.unit_product([(u_exps, 2), (u_exps, -1)]) is u
                assert A.unit_product([(u_exps, 1), (u_exps, -1)], 1) \
                    is -A.one()
                assert A.unit_product([(u_exps, -1)]) is u.inv()


def test_even_N_table_has_one_entry_per_root(rank_oracle_dense):
    """At even N, P = N and -zeta^k is zeta^(k + N/2): both spellings give
    one key (exps, (k + N/2) mod N) and one object, and the table holds N
    units per exponent vector, not 2N."""
    A = rank_oracle_dense
    uni = A.uni
    N = uni.field.N
    assert N % 2 == 0 and uni.field.P == N
    for exps in ((0,) * uni.nparams, (1,) * uni.nparams):
        for k in range(-N, 2 * N):
            z = uni.unit(zeta=k, exps=exps)
            half = uni.unit(zeta=k + N // 2, exps=exps)
            assert z.key == (exps, k % N)
            assert half.key == (exps, (k + N // 2) % N)
            assert -z is half
            assert uni.unit(sign=-1, zeta=k, exps=exps) is half
            assert z * uni.unit(sign=-1) is half
        assert len([key for key in uni.units if key[0] == exps]) == N


def literal_skew_mul(A, s, t):
    """(a (x) g)(b (x) h) = a * (g.b) (x) gh with the reordering unit and
    the character unit each multiplied out power by power, then multiplied
    together."""
    out = {}
    for (a, g), c1 in s.terms.items():
        for (b, h), c2 in t.terms.items():
            if any(x and y for x, y in zip(a, b)):
                continue
            mono_unit = _literal(A, 0, [(A.nq[k][l], -1) for k in range(A.n)
                                        if b[k] for l in range(k + 1, A.n)
                                        if a[l]])
            chi_unit = _literal(A, 0, [(A.chi(g, i), e)
                                       for i, e in enumerate(b)])
            accumulate(out, (tuple(x | y for x, y in zip(a, b)),
                             A.group.mult[g][h]),
                       c1 * c2 * (mono_unit * chi_unit))
    return SkewElement(A, out)


@pytest.mark.parametrize("name", SESSION_ALGEBRAS)
def test_skew_product_matches_literal_unit_product(name, request):
    A = request.getfixturevalue(name)
    rng = random.Random(17)
    nonzero = 0
    for _ in range(40):
        s, t = random_skew(A, rng), random_skew(A, rng)
        want = literal_skew_mul(A, s, t)
        assert s * t == want, (s, t)
        nonzero += not want.is_zero()
    assert nonzero > 10


def test_cached_memo_per_function_and_arguments():
    """`cached` keeps one entry per (function, arguments) in A.caches,
    returns the stored object on a repeat without running the body again,
    and stores a falsy result like any other."""
    A = build_algebra(1)
    runs = []

    @cached
    def probe_empty(A, m):
        runs.append(("empty", m))
        return {}

    @cached
    def probe_list(A, m):
        runs.append(("list", m))
        return [m]

    first = probe_empty(A, 1)
    listed = probe_list(A, 1)
    assert listed == [1]
    assert runs == [("empty", 1), ("list", 1)]
    assert probe_empty(A, 1) is first
    assert probe_list(A, 1) is listed
    assert runs == [("empty", 1), ("list", 1)]
    probe_empty(A, 2)
    assert runs[-1] == ("empty", 2)
    assert len(A.caches) == 3
