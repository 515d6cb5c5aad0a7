import random
from itertools import product

import pytest

import qhoch.resolution
from conftest import SESSION_ALGEBRAS, all_keys, random_scalar, s3_algebra
from qhoch import (Cochain, Tensor, Tensor2, bar_check, diagonal,
                   f_beta_expand, formal_algebra, hom_differential, homotopy,
                   is_flat, norm_g, omega_big, omega_small, phi_generator,
                   phi_identity_check, quantum_coefficient_action_algebra,
                   resolution_differential, build_algebra)
from qhoch.linalg import accumulate
from qhoch.resolution import (add_index, bump, compositions,
                              differential_check, phi_tensor, sub_index,
                              tensor_delta)


# ---------------------------------------------------------------------------
# rejected readings of the printed formulas, for the regression tests: each
# test puts one in place of the operator it replaces with monkeypatch
# ---------------------------------------------------------------------------

def unsigned_omega(A, g, alpha, beta, l):
    """omega_big without the leading alternating sign (-1)^{|beta_{<l}|};
    it breaks d.d = 0 outright."""
    w = omega_big(A, g, alpha, beta, l)
    return -w if sum(beta[:l]) % 2 else w


def flipped_boundary(A, beta):
    """resolution_differential with every right-hand term e_{beta-[j]} x_j
    negated."""
    d = resolution_differential(A, beta)
    z = (0,) * A.n
    return Tensor(A, {key: -c if key[0] == z else c
                      for key, c in d.terms.items()})


def boxed_omega(A, g, alpha, beta, l):
    """omega_big with the k > l exponents negated; d.d = 0 still holds, but
    the flat subcomplexes at roots of unity are no longer flat."""
    if alpha[l] == 1:
        return A.uni.zero
    sign = A.uni.unit(sign=-1 if sum(beta[:l]) % 2 else 1)
    t1 = sign
    for k in range(l):
        e = beta[k] - alpha[k]
        if e:
            t1 = t1 * (A.nq[k][l] ** e)
    t2 = sign * A.uni.unit(sign=-1 if beta[l] % 2 else 1) * A.group.chi[g][l]
    for k in range(l + 1, A.n):
        e = alpha[k] - beta[k]
        if e:
            t2 = t2 * (A.nq[l][k] ** e)
    if t1 == t2:
        return A.uni.zero
    return t1 - t2


def printed_phi_generator(A, beta, mid, gamma):
    """The published reading of the contraction: the boundary exponents
    swapped (gamma_l + 1 above slot l, beta_l + 1 below it) and the mixed
    product over every pair r < s avoiding l.  Uncached, so it leaves
    A.caches to the verified reading.  It fails d(phi) = F."""
    n = A.n
    out = {}
    sign_beta = -1 if sum(beta) % 2 else 1
    for l in range(n):
        if mid[l] != 1 or any(beta[l + 1:]) or any(gamma[:l]):
            continue
        u = A.uni.unit(sign=sign_beta)
        for k in range(l + 1, n):
            if mid[k]:
                u = u * (A.nq[l][k] ** (gamma[l] + 1))
        for k in range(l):
            if mid[k]:
                u = u * (A.nq[k][l] ** (beta[l] + 1))
        for r in range(n):
            for s in range(r + 1, n):
                e = mid[r] * (mid[s] + gamma[s]) + mid[s] * beta[r]
                if e and l not in (r, s):
                    u = u * (A.nq[r][s] ** e)
        left = tuple(mid[i] if i > l else 0 for i in range(n))
        right = tuple(mid[i] if i < l else 0 for i in range(n))
        accumulate(out, (left, bump(add_index(beta, gamma), l), right), u)
    return Tensor(A, out)


# ---------------------------------------------------------------------------
# the boundary map on the complex itself
# ---------------------------------------------------------------------------

def test_differential_one_generator():
    A1 = build_algebra(1, N=1)
    d1 = resolution_differential(A1, (1,))
    x, z = (1,), (0,)
    assert d1.terms == {(x, (0,), z): A1.uni.one, (z, (0,), x): -A1.uni.one}
    d2 = resolution_differential(A1, (2,))
    assert d2.terms == {(x, (1,), z): A1.uni.one, (z, (1,), x): A1.uni.one}


def test_differential_squares_to_zero_on_bimodule(A2, A3, Ad3):
    for A in (A2, A3, Ad3):
        for m in range(1, 6):
            for beta in compositions(A.n, m):
                t = Tensor.generator(A, beta)
                assert tensor_delta(A, tensor_delta(A, t)).is_zero(), beta


def test_differential_drops_negative_indices(A2):
    d = resolution_differential(A2, (1, 0))
    assert all(min(beta) >= 0 for (_a, beta, _b) in d.terms)
    assert len(d.terms) == 2


# ---------------------------------------------------------------------------
# the induced differential on cochains
# ---------------------------------------------------------------------------

def test_omega_alpha_one_vanishes(A2):
    assert omega_big(A2, 0, (1, 0), (2, 0), 0).is_zero()


def test_omega_vanishing_condition_trivial_character(A2_Z3):
    # chi = 1: at alpha = beta = 0 both membership conditions hold
    for l in range(2):
        assert omega_big(A2_Z3, 1, (0, 0), (0, 0), l).is_zero()


def test_omega_nonzero_value_with_nontrivial_character(Ad3):
    # chi_{g,1} = zeta != 1 at alpha = beta = 0: value 1 - zeta
    w = omega_big(Ad3, 1, (0, 0), (0, 0), 0)
    expected = Ad3.uni.one - Ad3.uni.unit(zeta=1)
    assert w == expected


@pytest.mark.parametrize("fixture", ["A2", "A3", "Ad3", "Ad4", "A_comm", "A_ext"])
def test_hom_differential_squares_to_zero(fixture, request):
    A = request.getfixturevalue(fixture)
    top = 6 if A.n == 2 else 4
    for m in range(top):
        for key in all_keys(A, m):
            c = Cochain.basis(A, *key)
            assert hom_differential(A, hom_differential(A, c)).is_zero(), key


def test_hom_differential_random_group_data():
    rng = random.Random(13)
    for trial in range(3):
        d = rng.choice((2, 3, 4, 6))
        k = rng.randrange(d)
        A = build_algebra(2, N=d, q_spec={(0, 1): ("zeta", rng.randrange(1, d) if d > 1 else 0)},
                          group_spec=("cyclic", d, [(1, k), (1, (-k) % d)]))
        for m in range(4):
            for key in all_keys(A, m):
                c = Cochain.basis(A, *key)
                assert hom_differential(A, hom_differential(A, c)).is_zero()


def test_subcomplex_preservation(Ad3):
    # beta - alpha is constant on the image of the differential
    for m in range(5):
        for key in all_keys(Ad3, m):
            alpha, beta, g = key
            img = hom_differential(Ad3, Cochain.basis(Ad3, *key))
            gammas = {sub_index(b, a) for a, b, _ in img.terms}
            assert gammas <= {sub_index(beta, alpha)}


def test_corrupted_sign_regression(A2, monkeypatch):
    # dropping the alternating sign breaks d.d = 0
    assert differential_check(A2, 3) is None
    monkeypatch.setattr(qhoch.resolution, "omega_big", unsigned_omega)
    assert differential_check(A2, 3) is not None


def test_boxed_exponent_regression(Ad3, monkeypatch):
    # the other printed exponent reading keeps d.d = 0 but ruins the flat
    # subcomplexes at roots of unity
    monkeypatch.setattr(qhoch.resolution, "omega_big", boxed_omega)
    assert differential_check(Ad3, 3) is None
    bad = None
    for g in range(Ad3.group.order):
        for gamma in product(range(-1, 3), repeat=2):
            if not is_flat(Ad3, g, gamma):
                continue
            for alpha in product((0, 1), repeat=2):
                beta = add_index(gamma, alpha)
                if min(beta) < 0:
                    continue
                img = hom_differential(Ad3, Cochain.basis(Ad3, alpha, beta, g))
                if not img.is_zero():
                    bad = (g, gamma, alpha)
    assert bad is not None


# ---------------------------------------------------------------------------
# flatness and the contracting homotopy
# ---------------------------------------------------------------------------

def test_norm_examples(A2):
    assert norm_g(A2, 0, (-1, -1)) == 0
    assert norm_g(A2, 0, (0, 0)) == 0       # member slots do not count
    assert norm_g(A2, 0, (1, 0)) == 2


def test_omega_small_zero_cases(A2):
    zero = omega_small(A2, 0, (0, 1), (1, 1), 0)
    assert zero.is_zero()                    # alpha_l = 0
    assert omega_small(A2, 0, (1, 0), (0, 1), 0).is_zero()  # beta_l = 0


def slot_product(A, parity, gamma, l):
    """(-1)^parity prod_{k != l} (-q_{kl})^{gamma_k}, multiplied out here
    factor by factor from the quantum matrix."""
    u = A.uni.unit(sign=-1 if parity % 2 else 1)
    for k in range(A.n):
        if k != l:
            for _ in range(abs(gamma[k])):
                u = u * (A.nq[k][l] if gamma[k] > 0 else A.nq[l][k])
    return u


@pytest.mark.parametrize("fixture", ["A2", "A3", "A2_Z3", "Ad3", "Ad4",
                                     "A_comm", "A_ext", "rank_oracle_dense"])
def test_omega_small_and_norm_follow_the_slot_condition(fixture, request):
    """With gamma = beta - alpha: norm_g counts the slots l with
    gamma_l != -1 and slot_product(gamma_l) != chi_{g,l}, is_flat holds
    when there is none, and omega_small vanishes exactly when alpha_l = 0,
    beta_l = 0 or slot_product(beta_l) == -chi_{g,l}, the slot unit
    rebuilt with the parity of beta_l.  All follow slot_condition_holds,
    which compares unit keys on the field's tagged roots; Ad4 and
    rank_oracle_dense have even N, where -zeta^k and zeta^(k + N/2) are
    one root."""
    A = request.getfixturevalue(fixture)
    for g in range(A.group.order):
        for m in range(6):
            for beta in compositions(A.n, m):
                for alpha in product((0, 1), repeat=A.n):
                    gamma = sub_index(beta, alpha)
                    failing = [l for l in range(A.n) if gamma[l] != -1 and
                               slot_product(A, gamma[l], gamma, l)
                               != A.group.chi[g][l]]
                    assert norm_g(A, g, gamma) == len(failing), (g, gamma)
                    assert is_flat(A, g, gamma) == (not failing), (g, gamma)
                    for l in range(A.n):
                        vanishes = (alpha[l] == 0 or beta[l] == 0
                                    or slot_product(A, beta[l], gamma, l)
                                    == -A.group.chi[g][l])
                        assert omega_small(A, g, alpha, beta, l).is_zero() \
                            == vanishes, (g, alpha, beta, l)


@pytest.mark.parametrize("maker", [
    s3_algebra, lambda: formal_algebra(2),
    lambda: quantum_coefficient_action_algebra(3)], ids=["S3", "A2", "Ad3"])
def test_is_flat_cached_per_block(maker):
    """is_flat is cached per (g, gamma): on a fresh algebra, every block
    with each gamma_l in -1..3 gets one entry in A.caches, and the answer,
    on the call that fills it and on a later one in reverse order, is the
    direct evaluation of every slot condition."""
    A = maker()
    blocks = [(g, gamma) for g in range(A.group.order)
              for gamma in product(range(-1, 4), repeat=A.n)]
    direct = {(g, gamma): all(qhoch.resolution.slot_condition_holds(
        A, g, gamma, l) for l in range(A.n)) for g, gamma in blocks}
    assert any(direct.values()) and not all(direct.values())
    for order in (blocks, blocks[::-1]):
        for g, gamma in order:
            assert is_flat(A, g, gamma) is direct[(g, gamma)], (g, gamma)
    assert sum(key[0] == "is_flat" for key in A.caches) == len(blocks)


@pytest.mark.parametrize("fixture", ["A2", "Ad3", "Ad4", "A_comm", "A_ext"])
def test_homotopy_identity(fixture, request):
    A = request.getfixturevalue(fixture)
    for g in range(A.group.order):
        for gamma in product(range(-1, 4), repeat=A.n):
            if is_flat(A, g, gamma):
                continue
            for alpha in product((0, 1), repeat=A.n):
                beta = add_index(gamma, alpha)
                if min(beta) < 0:
                    continue
                c = Cochain.basis(A, alpha, beta, g).to_frac()
                res = homotopy(A, hom_differential(A, c)) + \
                    hom_differential(A, homotopy(A, c))
                assert res == c, (g, gamma, alpha)


@pytest.mark.parametrize("fixture", ["A2", "Ad3", "Ad4"])
def test_homotopy_is_linear_across_blocks(fixture, request):
    """On random cochains whose terms lie in several non-flat blocks
    K_{g,gamma}, the homotopy is the sum of its values on the blocks, and
    h d + d h = 1 holds on the whole cochain."""
    A = request.getfixturevalue(fixture)
    rng = random.Random(31)
    for m in range(1, 4):
        keys = [(a, b, g) for a, b, g in all_keys(A, m)
                if not is_flat(A, g, sub_index(b, a))]
        for _ in range(20):
            blocks = {}
            for alpha, beta, g in rng.sample(keys, min(5, len(keys))):
                coeff = A.uni.from_rational(rng.choice((-3, -2, -1, 1, 2, 3)))
                blocks.setdefault((g, sub_index(beta, alpha)), {})[
                    (alpha, beta, g)] = coeff
            assert len(blocks) > 1
            parts = [Cochain(A, m, terms).to_frac()
                     for terms in blocks.values()]
            c = Cochain(A, m)
            for part in parts:
                c = c + part
            expected = Cochain(A, m - 1)
            for part in parts:
                expected = expected + homotopy(A, part)
            assert homotopy(A, c) == expected
            assert homotopy(A, hom_differential(A, c)) + \
                hom_differential(A, homotopy(A, c)) == c


def test_flatness_on_member_subcomplexes(A2, Ad3, Ad4):
    for A in (A2, Ad3, Ad4):
        for g in range(A.group.order):
            for gamma in product(range(-1, 4), repeat=A.n):
                if not is_flat(A, g, gamma):
                    continue
                for alpha in product((0, 1), repeat=A.n):
                    beta = add_index(gamma, alpha)
                    if min(beta) < 0:
                        continue
                    c = Cochain.basis(A, alpha, beta, g)
                    assert hom_differential(A, c).is_zero(), (g, gamma, alpha)


def test_homotopy_rejects_member_subcomplex(A2):
    c = Cochain.basis(A2, (0, 0), (0, 0), 0)
    with pytest.raises(ValueError):
        homotopy(A2, c)


# ---------------------------------------------------------------------------
# the diagonal
# ---------------------------------------------------------------------------

def test_diagonal_unit_index(A2):
    got = {(b1, b2): u for b1, b2, u in diagonal(A2, (1, 0))}
    assert set(got) == {((1, 0), (0, 0)), ((0, 0), (1, 0))}
    assert all(u.is_one() for u in got.values())


def test_diagonal_one_one(A2):
    got = {(b1, b2): u for b1, b2, u in diagonal(A2, (1, 1))}
    assert got[((1, 1), (0, 0))].is_one()
    assert got[((0, 0), (1, 1))].is_one()
    assert got[((1, 0), (0, 1))].is_one()
    assert got[((0, 1), (1, 0))] == A2.q[0][1]


def coassociativity_holds(A, beta):
    lhs, rhs = {}, {}
    for b1, b2, u in diagonal(A, beta):
        for c1, c2, v in diagonal(A, b1):
            k = (c1, c2, b2)
            cur = lhs.get(k)
            w = u * v
            lhs[k] = w if cur is None else cur + w
        for c1, c2, v in diagonal(A, b2):
            k = (b1, c1, c2)
            cur = rhs.get(k)
            w = u * v
            rhs[k] = w if cur is None else cur + w
    return lhs == rhs


def test_diagonal_coassociative(A2, A3, Ad3):
    for A, top in ((A2, 5), (A3, 5), (Ad3, 5)):
        for m in range(top + 1):
            for beta in compositions(A.n, m):
                assert coassociativity_holds(A, beta), beta


def test_diagonal_counital(A2, A3):
    for A in (A2, A3):
        for m in range(5):
            for beta in compositions(A.n, m):
                left = [(b2, u) for b1, b2, u in diagonal(A, beta) if sum(b1) == 0]
                right = [(b1, u) for b1, b2, u in diagonal(A, beta) if sum(b2) == 0]
                assert left == [(beta, A.uni.one)]
                assert right == [(beta, A.uni.one)]


# ---------------------------------------------------------------------------
# the word expansions and the bar boundary
# ---------------------------------------------------------------------------

def test_f_beta_base_cases(A3):
    assert f_beta_expand(A3, (0, 0, 0)) == {(): A3.uni.one}
    assert f_beta_expand(A3, (0, 1, 0)) == {(1,): A3.uni.one}


def test_f_beta_golden_021(A3):
    fb = f_beta_expand(A3, (0, 2, 1))
    q23 = A3.q[1][2]
    assert fb[(1, 1, 2)].is_one()
    assert fb[(1, 2, 1)] == q23
    assert fb[(2, 1, 1)] == q23 ** 2
    assert len(fb) == 3


def test_f_beta_matches_diagonal_splitting(A2, A3, Ad3):
    # f_beta = sum over splittings with the diagonal coefficients
    for A, top in ((A2, 4), (A3, 4), (Ad3, 4)):
        for m in range(top + 1):
            for beta in compositions(A.n, m):
                full = {w: u
                        for w, u in f_beta_expand(A, beta).items()}
                for t in range(m + 1):
                    acc = {}
                    for b1, b2, u in diagonal(A, beta):
                        if sum(b1) != t:
                            continue
                        for w1, u1 in f_beta_expand(A, b1).items():
                            for w2, u2 in f_beta_expand(A, b2).items():
                                k = w1 + w2
                                cur = acc.get(k)
                                v = u * u1 * u2
                                acc[k] = v if cur is None else cur + v
                    acc = {k: v for k, v in acc.items() if not v.is_zero()}
                    assert acc == full, (beta, t)


def test_bar_check(A2, A3, Ad3):
    for A in (A2, A3, Ad3):
        assert bar_check(A, 4) is None


def test_bar_check_reads_the_production_boundary(A2, monkeypatch):
    # the check compares against the boundary that tensor_delta uses, so a
    # sign error there is caught
    monkeypatch.setattr(qhoch.resolution, "resolution_differential",
                        flipped_boundary)
    assert bar_check(A2, 2) is not None


# ---------------------------------------------------------------------------
# the contraction
# ---------------------------------------------------------------------------

def test_phi_alpha_zero_vanishes(A2):
    assert phi_generator(A2, (1, 0), (0, 0), (0, 2)).is_zero()


def test_phi_single_generator_base_case():
    A1 = build_algebra(1, N=1)
    for b in range(3):
        for c in range(3):
            t = phi_generator(A1, (b,), (1,), (c,))
            sign = -1 if b % 2 else 1
            assert t.terms == {((0,), (b + c + 1,), (0,)): A1.uni.one * sign}


@pytest.mark.parametrize("fixture,deg", [("A2", 5), ("A3", 4), ("Ad3", 5),
                                         ("Ad4", 4), ("A_comm", 5), ("A_ext", 4)])
def test_phi_identity(fixture, deg, request):
    A = request.getfixturevalue(fixture)
    assert phi_identity_check(A, deg) is None


def test_phi_identity_n4():
    A4 = formal_algebra(4)
    assert phi_identity_check(A4, 2) is None


def test_phi_printed_reading_fails(A2, monkeypatch):
    # the printed closed form swaps the boundary exponents and over-counts
    # the mixed product; it does not satisfy d(phi) = F
    monkeypatch.setattr(qhoch.resolution, "phi_generator",
                        printed_phi_generator)
    assert phi_identity_check(A2, 3) is not None


# ---------------------------------------------------------------------------
# the bimodule extensions against literal loops: each monomial product
# multiplied in separately, its unit built factor by factor
# ---------------------------------------------------------------------------

def literal_mono_mul(A, a, b):
    """x^a * x^b as None or (unit, a | b), the unit multiplied out from
    x_l x_k = (-q_{kl})^{-1} x_k x_l one pair at a time."""
    if any(x and y for x, y in zip(a, b)):
        return None
    u = A.uni.one
    for k in range(A.n):
        for l in range(k + 1, A.n):
            if b[k] and a[l]:
                u = u * A.nq[k][l].inv()
    return u, tuple(x | y for x, y in zip(a, b))


def literal_tensor_delta(A, t):
    out = {}
    for (a, beta, b), c in t.terms.items():
        base = resolution_differential(A, beta)
        for (da, dbeta, db), dc in base.terms.items():
            coeff = c * dc
            la = literal_mono_mul(A, a, da)
            if la is None:
                continue
            u1, mono_a = la
            rb = literal_mono_mul(A, db, b)
            if rb is None:
                continue
            u2, mono_b = rb
            accumulate(out, (mono_a, dbeta, mono_b), coeff * u1 * u2)
    return Tensor(A, out)


def literal_tensor2_delta(A, t):
    """(d (x) 1) + (-1)^{|beta|} (1 (x) d), one loop per factor."""
    out = {}
    for (a, beta, mid, gamma, b), c in t.terms.items():
        base = resolution_differential(A, beta)
        for (da, dbeta, db), dc in base.terms.items():
            coeff = c * dc
            la = literal_mono_mul(A, a, da)
            if la is None:
                continue
            u1, mono_a = la
            rm = literal_mono_mul(A, db, mid)
            if rm is None:
                continue
            u2, mono_m = rm
            accumulate(out, (mono_a, dbeta, mono_m, gamma, b), coeff * u1 * u2)
        sign = -1 if sum(beta) % 2 else 1
        base = resolution_differential(A, gamma)
        for (da, dgamma, db), dc in base.terms.items():
            coeff = (c * dc) * sign
            lm = literal_mono_mul(A, mid, da)
            if lm is None:
                continue
            u1, mono_m = lm
            rb = literal_mono_mul(A, db, b)
            if rb is None:
                continue
            u2, mono_b = rb
            accumulate(out, (a, beta, mono_m, dgamma, mono_b), coeff * u1 * u2)
    return Tensor2(A, out)


def literal_phi_tensor(A, t):
    out = {}
    for (a, beta, mid, gamma, b), c in t.terms.items():
        base = phi_generator(A, beta, mid, gamma)
        for (pa, pbeta, pb), pc in base.terms.items():
            la = literal_mono_mul(A, a, pa)
            if la is None:
                continue
            u1, mono_a = la
            rb = literal_mono_mul(A, pb, b)
            if rb is None:
                continue
            u2, mono_b = rb
            accumulate(out, (mono_a, pbeta, mono_b), (c * pc) * (u1 * u2))
    return Tensor(A, out)


def random_tensor(A, rng, slots):
    """Three terms x^a e_beta x^b (one slot) or x^a e_beta x^mid e_gamma
    x^b (two slots) with nonzero monomials, generator indices of degree at
    most 3 and nonzero random coefficients."""
    nonzero = [m for m in product((0, 1), repeat=A.n) if any(m)]
    terms = {}
    while len(terms) < 3:
        word = (rng.choice(nonzero),)
        for _ in range(slots):
            index = rng.choice(list(compositions(A.n, rng.randint(0, 3))))
            word += (index, rng.choice(nonzero))
        c = random_scalar(A.uni, rng, terms=2)
        if not c.is_zero():
            terms[word] = c
    return (Tensor if slots == 1 else Tensor2)(A, terms)


@pytest.mark.parametrize("name", SESSION_ALGEBRAS)
def test_bimodule_extensions_match_literal_loops(name, request):
    """tensor_delta on one- and two-tensors and phi_tensor equal the loops
    that multiply each outer monomial in separately, on random multi-term
    tensors whose outer and middle monomials are nonzero."""
    A = request.getfixturevalue(name)
    rng = random.Random(31)
    nonzero = [0, 0, 0]
    for _ in range(25):
        t1, t2 = random_tensor(A, rng, 1), random_tensor(A, rng, 2)
        for k, (got, want) in enumerate((
                (tensor_delta(A, t1), literal_tensor_delta(A, t1)),
                (tensor_delta(A, t2), literal_tensor2_delta(A, t2)),
                (phi_tensor(A, t2), literal_phi_tensor(A, t2)))):
            assert got == want, (k, t1, t2)
            nonzero[k] += not want.is_zero()
    assert min(nonzero) > 0, nonzero
