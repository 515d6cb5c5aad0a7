"""Cup product, circle product, and Gerstenhaber bracket on cochains, each
in two independent implementations: a closed-form coefficient formula and a
chain-level pipeline through the diagonal (and, for the circle product, the
contraction).

Conventions.  circ(outer, inner) evaluates the composition in which the
inner cochain is applied to the middle tensor leg; the result's group part
is (outer group) * (inner group).  When the inner cochain's value crosses
the remaining right-hand generator leg e_{rho2}, its group element g acts
on that leg through its characters, a factor chi_prod(g, rho2) in both
implementations.  This is what makes the middle insertion well defined
over the skew group algebra: without it the bracket of two invariant
cocycles is no longer invariant
(tests/test_gerstenhaber.py::test_bracket_of_invariant_cocycles_is_invariant_cocycle).
"""

from __future__ import annotations

from .algebra import SkewElement
from .cohomology import is_cocycle
from .linalg import accumulate
from .resolution import Cochain, add_index, diagonal, phi_generator, sub_index


# ---------------------------------------------------------------------------
# cup product
# ---------------------------------------------------------------------------

def cup(A, f1, f2):
    """Closed-form cup product, extended bilinearly."""
    out = {}
    for (alpha, beta, g), c1 in f1.terms.items():
        for (gamma, kappa, h), c2 in f2.terms.items():
            if any(a and b for a, b in zip(alpha, gamma)):
                continue
            u = A.chi_prod(g, gamma)
            for l in range(A.n):
                for k in range(l):
                    e = kappa[k] * beta[l] - gamma[k] * alpha[l]
                    if e:
                        u = u * (A.q[k][l] ** e)
                    if gamma[k] * alpha[l] % 2:
                        u = -u
            key = (add_index(alpha, gamma), add_index(beta, kappa),
                   A.group.mult[g][h])
            accumulate(out, key, (c1 * c2) * u)
    return Cochain(A, f1.degree + f2.degree, out)


def cup_oracle(A, f1, f2):
    """Cup product evaluated as multiply-after-diagonal on every generator
    of the appropriate degree; independent of the closed form."""
    from .resolution import compositions
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


# ---------------------------------------------------------------------------
# circle product
# ---------------------------------------------------------------------------

def circ_oracle(A, outer, inner):
    """Circle product as the literal pipeline: split a generator twice by
    the diagonal, apply the inner cochain to the middle leg with the Koszul
    sign, park its group part across the right leg, contract, then apply
    the outer cochain and multiply the parked group element back in."""
    from .resolution import compositions
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
                # coefficient of e_nu (x) e_beta in the diagonal of e_rho1
                u_inner = A.uni.unit_one
                for t in range(A.n):
                    if nu[t]:
                        for k in range(t):
                            if beta[k]:
                                u_inner = u_inner * (A.q[k][t] ** (beta[k] * nu[t]))
                coeff = A.scalar(u_outer * u_inner) * c_in
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


def circ(A, outer, inner):
    """Closed-form circle product: one flat coefficient per surviving
    splitting.  The splitting sum is univariate once the vanishing guards
    are imposed (the right index is zero below the active slot r and the
    left one matches the inner index above it)."""
    m, l = outer.degree, inner.degree
    if m + l - 1 < 0:
        return Cochain(A, 0)
    out = {}
    n = A.n
    for (gamma, kappa, h), c_out in outer.terms.items():
        for (alpha, beta, g), c_in in inner.terms.items():
            base = c_out * c_in
            for r in range(n):
                if alpha[r] != 1:
                    continue
                mono = list(add_index(alpha, gamma))
                mono[r] -= 1
                if any(x > 1 for x in mono):
                    continue
                mono = tuple(mono)
                rho = list(add_index(kappa, beta))
                rho[r] -= 1
                if any(x < 0 for x in rho):
                    continue
                rho = tuple(rho)
                if any(rho[s] < beta[s] for s in range(n)):
                    continue
                group_key = A.group.mult[h][g]
                for p in range(beta[r], rho[r] + 1):
                    rho1 = tuple(rho[s] if s < r else (p if s == r else beta[s])
                                 for s in range(n))
                    rho2 = sub_index(rho, rho1)
                    nu = sub_index(rho1, beta)
                    u = A.uni.unit(sign=-1 if (sum(nu) * (l + 1)) % 2 else 1)
                    # diagonal coefficients (both stages)
                    for k in range(n):
                        for t in range(k + 1, n):
                            e = rho2[k] * rho1[t] + beta[k] * nu[t]
                            if e:
                                u = u * (A.q[k][t] ** e)
                    # contraction coefficients at the active slot
                    for s in range(r + 1, n):
                        if alpha[s]:
                            u = u * (A.nq[r][s] ** (nu[r] + 1))
                    for s in range(r):
                        if alpha[s]:
                            u = u * (A.nq[s][r] ** (rho2[r] + 1))
                    for t in range(r):
                        for s2 in range(r + 1, n):
                            e = alpha[t] * (alpha[s2] + rho2[s2]) \
                                + alpha[s2] * nu[t]
                            if e:
                                u = u * (A.nq[t][s2] ** e)
                    # outer characters on the generators moved past it
                    for s in range(r):
                        if alpha[s]:
                            u = u * A.chi(h, s)
                    # reordering the three generator blocks into normal form
                    for s in range(r):
                        if alpha[s]:
                            for v in range(s + 1, n):
                                if gamma[v]:
                                    u = u * (A.nq[s][v] ** (-1))
                    for v in range(r):
                        if gamma[v] + alpha[v]:
                            for s in range(r + 1, n):
                                if alpha[s]:
                                    u = u * (A.nq[v][s]
                                             ** (-(gamma[v] + alpha[v])))
                    for s in range(r + 1, n):
                        if alpha[s]:
                            for v in range(r, s):
                                if gamma[v]:
                                    u = u * (A.nq[v][s] ** (-1))
                    # the inner group element passes the right-hand
                    # generator leg e_{rho2}
                    u = u * A.chi_prod(g, rho2)
                    accumulate(out, (mono, rho, group_key), base * u)
    return Cochain(A, m + l - 1, out)


def bracket(A, f1, f2):
    """Graded bracket [f1, f2] = f1 o f2 - (-1)^{(m-1)(l-1)} f2 o f1."""
    m, l = f1.degree, f2.degree
    first = circ(A, f1, f2)
    second = circ(A, f2, f1)
    if ((m - 1) * (l - 1)) % 2:
        return first + second
    return first - second


def bracket_oracle(A, f1, f2):
    m, l = f1.degree, f2.degree
    first = circ_oracle(A, f1, f2)
    second = circ_oracle(A, f2, f1)
    if ((m - 1) * (l - 1)) % 2:
        return first + second
    return first - second


# ---------------------------------------------------------------------------
# product tables and the axiom suite
# ---------------------------------------------------------------------------

def unit_cochain(A):
    return Cochain.basis(A, (0,) * A.n, (0,) * A.n, 0)


def product_table(A, classes, op):
    """Ordered pairwise table over a list of (label, Cochain)."""
    table = []
    for la, ca in classes:
        for lb, cb in classes:
            res = op(A, ca, cb)
            table.append((la, lb, res))
    return table


def axiom_suite(A, max_degree, up_to=None):
    """Check the graded-algebra axioms on the invariant classes up to the
    given degree; every identity is asserted up to coboundary.  Returns a
    list of human-readable failure descriptions (empty = pass)."""
    from .cohomology import invariant_basis
    failures = []
    classes = []
    for m in range(max_degree + 1):
        for i, c in enumerate(invariant_basis(A, m).classes):
            classes.append((f"d{m}#{i}", c))
    limit = max_degree if up_to is None else up_to

    from .cohomology import is_coboundary

    def check(cond, text):
        if not cond:
            failures.append(text)

    # graded commutativity of the cup product
    for la, ca in classes:
        for lb, cb in classes:
            if ca.degree + cb.degree > limit:
                continue
            ab = cup(A, ca, cb)
            ba = cup(A, cb, ca)
            if (ca.degree * cb.degree) % 2:
                diff = ab + ba
            else:
                diff = ab - ba
            check(is_cocycle(A, ab) and is_cocycle(A, ba),
                  f"cup of cocycles not a cocycle: {la},{lb}")
            check(is_coboundary(A, diff),
                  f"graded commutativity fails: {la},{lb}")
    # bracket lands in degree m+l-1, is a cocycle on cocycles, and the
    # graded antisymmetry holds exactly at chain level
    for la, ca in classes:
        for lb, cb in classes:
            if ca.degree + cb.degree - 1 > limit or ca.degree + cb.degree == 0:
                continue
            br = bracket(A, ca, cb)
            check(br.is_zero() or br.degree == ca.degree + cb.degree - 1,
                  f"bracket degree off: {la},{lb}")
            check(is_cocycle(A, br), f"bracket not a cocycle: {la},{lb}")
            # [a,b] = -(-1)^{(|a|-1)(|b|-1)}[b,a], exactly at chain level
            rev = bracket(A, cb, ca)
            check(_chain_antisymmetric(A, br, rev, ca.degree, cb.degree),
                  f"graded antisymmetry fails: {la},{lb}")
    # graded Jacobi, up to coboundary
    for la, ca in classes:
        for lb, cb in classes:
            for lc, cc in classes:
                if ca.degree + cb.degree + cc.degree - 2 > limit:
                    continue
                jac = _jacobiator(A, ca, cb, cc)
                check(jac.is_zero() or is_coboundary(A, jac),
                      f"Jacobi fails: {la},{lb},{lc}")
    # [-, a] is a graded derivation of the cup product:
    # [b ^ c, a] = [b, a] ^ c + (-1)^{|b| (|a|-1)} b ^ [c, a]
    for la, ca in classes:
        for lb, cb in classes:
            for lc, cc in classes:
                if ca.degree + cb.degree + cc.degree - 1 > limit:
                    continue
                lhs = bracket(A, cup(A, cb, cc), ca)
                rhs = cup(A, bracket(A, cb, ca), cc)
                second = cup(A, cb, bracket(A, cc, ca))
                if (cb.degree * (ca.degree - 1)) % 2:
                    rhs = rhs - second
                else:
                    rhs = rhs + second
                check(is_coboundary(A, lhs - rhs),
                      f"derivation rule fails: {la},{lb},{lc}")
    return failures


def _chain_antisymmetric(A, br, rev, m, l):
    sign = -1 if ((m - 1) * (l - 1)) % 2 else 1
    return (br + rev.scale(sign)).is_zero()


def _jacobiator(A, ca, cb, cc):
    """(-1)^{(|a|-1)(|c|-1)}[[a,b],c] + cyclic, degrees shifted by one."""
    m1, m2, m3 = ca.degree, cb.degree, cc.degree
    t1 = bracket(A, bracket(A, ca, cb), cc).scale(
        -1 if ((m1 - 1) * (m3 - 1)) % 2 else 1)
    t2 = bracket(A, bracket(A, cb, cc), ca).scale(
        -1 if ((m2 - 1) * (m1 - 1)) % 2 else 1)
    t3 = bracket(A, bracket(A, cc, ca), cb).scale(
        -1 if ((m3 - 1) * (m2 - 1)) % 2 else 1)
    return t1 + t2 + t3
