"""Batch front end: read a problem description, compute graded bases,
cup-product and bracket tables over the invariant classes, and run the
verification suites.

Exit codes: 0 on success, 2 for configuration errors, 1 for verification
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import Group, build_algebra
from .cohomology import invariant_basis, invariant_rank_oracle
from .gerstenhaber import axiom_suite, bracket, circ, circ_oracle, cup, cup_oracle
from .resolution import (Cochain, bar_check, compositions, hom_differential,
                         homotopy, phi_identity_check)
from .scalars import scalar_str


class ConfigError(Exception):
    pass


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(raw)


def _is_int(value, minimum=None):
    """A JSON integer (true/false are not) that is at least minimum."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum))


def _chi_pair(entry, where):
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: character entries must be objects")
    sign = entry.get("sign", 1)
    zeta = entry.get("zeta", 0)
    if not (_is_int(sign) and sign in (1, -1) and _is_int(zeta)):
        raise ConfigError(f"{where}: character must have sign +-1 and an "
                          "integer zeta power")
    return (sign, zeta)


def parse_config(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    try:
        n = raw["n"]
    except KeyError:
        raise ConfigError("config.n: missing")
    if not _is_int(n, 1):
        raise ConfigError("config.n: must be a positive integer")
    N = raw.get("N", 1)
    if not _is_int(N, 1):
        raise ConfigError("config.N: must be a positive integer")
    q_items = raw.get("q", [])
    if not isinstance(q_items, list):
        raise ConfigError("config.q: must be a list of entries")
    q_spec = {}
    for idx, item in enumerate(q_items):
        where = f"config.q[{idx}]"
        try:
            i, j, kind = item["i"], item["j"], item["kind"]
        except (KeyError, TypeError):
            raise ConfigError(f"{where}: needs fields i, j, kind")
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= n):
            raise ConfigError(f"{where}: require 1 <= i < j <= n "
                              "(other entries are determined)")
        if kind == "formal":
            name = item.get("name", f"q{i}{j}")
            if not (isinstance(name, str) and name):
                raise ConfigError(f"{where}.name: non-empty string required")
            q_spec[(i - 1, j - 1)] = ("formal", name)
        elif kind == "zeta":
            power = item.get("power", 1)
            if not _is_int(power):
                raise ConfigError(f"{where}.power: integer required")
            q_spec[(i - 1, j - 1)] = ("zeta", power)
        elif kind == "rational":
            value = item.get("value")
            if not (_is_int(value) and value in (1, -1)):
                raise ConfigError(f"{where}.value: must be 1 or -1")
            q_spec[(i - 1, j - 1)] = ("rational", value)
        else:
            raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    group = raw.get("group", {"kind": "trivial"})
    if not isinstance(group, dict):
        raise ConfigError("config.group: must be an object")
    kind = group.get("kind", "trivial")
    if kind == "trivial":
        group_spec = None
    elif kind == "cyclic":
        order = group.get("order")
        if not _is_int(order, 1):
            raise ConfigError("config.group.order: positive integer required")
        chi = group.get("chi")
        if not isinstance(chi, list) or len(chi) != n:
            raise ConfigError("config.group.chi: one character per generator")
        group_spec = ("cyclic", order,
                      [_chi_pair(c, f"config.group.chi[{k}]")
                       for k, c in enumerate(chi)])
    elif kind == "table":
        mult = group.get("mult")
        chi = group.get("chi")
        if not isinstance(mult, list) or not isinstance(chi, list):
            raise ConfigError("config.group: table groups need mult and chi")
        order = len(mult)
        if not order or not all(
                isinstance(row, list) and len(row) == order
                and all(_is_int(x, 0) and x < order for x in row)
                for row in mult):
            raise ConfigError("config.group.mult: square table of element "
                              "indices required")
        try:
            Group(mult, [()] * order)
        except ValueError as exc:
            raise ConfigError(f"config.group.mult: {exc}")
        if len(chi) != order or not all(
                isinstance(row, list) and len(row) == n for row in chi):
            raise ConfigError("config.group.chi: one row of n characters "
                              "per group element")
        group_spec = ("table", mult,
                      [[_chi_pair(c, f"config.group.chi[{r}][{k}]")
                        for k, c in enumerate(row)] for r, row in enumerate(chi)])
    else:
        raise ConfigError(f"config.group.kind: unknown kind {kind!r}")
    try:
        A = build_algebra(n, N=N, q_spec=q_spec, group_spec=group_spec)
    except ValueError as exc:
        raise ConfigError(str(exc))
    max_degree = raw.get("max_degree")
    if not _is_int(max_degree, 0):
        raise ConfigError("config.max_degree: required nonnegative integer "
                          "(the cohomology is infinite dimensional)")
    seeds = raw.get("seeds", [1, 2, 3])
    if (not isinstance(seeds, list) or not seeds
            or not all(_is_int(s) for s in seeds)):
        raise ConfigError("config.seeds: nonempty list of integers")
    return A, max_degree, seeds


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def scalar_json(s):
    """Exact, diffable rendering: one record per term with the Laurent
    exponents and the cyclotomic coefficient vector as rational strings."""
    out = []
    for exps in sorted(s.terms):
        c = s.terms[exps]
        out.append({
            "formal_exponents": list(exps),
            "zeta_power_terms": [[str(Fraction(a).numerator),
                                  str(Fraction(a).denominator)]
                                 for a in c.coeffs],
        })
    return out


def cochain_json(c):
    return [{
        "alpha": list(alpha),
        "beta": list(beta),
        "g": g,
        "coefficient": scalar_json(c.terms[(alpha, beta, g)]),
        "coefficient_str": scalar_str(c.terms[(alpha, beta, g)]),
    } for (alpha, beta, g) in c.sorted_keys()]


def class_label(m, idx):
    return f"d{m}#{idx}"


def collect_classes(A, max_degree):
    labelled = []
    for m in range(max_degree + 1):
        for idx, c in enumerate(invariant_basis(A, m).classes):
            labelled.append((class_label(m, idx), c))
    return labelled


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_dims(A, max_degree, seeds, verify):
    rows = []
    for m in range(max_degree + 1):
        dim = len(invariant_basis(A, m).classes)
        row = {"degree": m, "dim": dim}
        if verify:
            oracle = invariant_rank_oracle(A, m, seeds=tuple(seeds))
            row["rank_oracle"] = oracle
            if oracle != dim:
                raise VerificationFailure(
                    f"dimension mismatch in degree {m}: closed form {dim}, "
                    f"rank oracle {oracle}")
        rows.append(row)
    return {"command": "dims", "dims": rows}


def cmd_basis(A, max_degree, degree=None):
    degrees = [degree] if degree is not None else list(range(max_degree + 1))
    out = []
    for m in degrees:
        basis = invariant_basis(A, m)
        for idx, c in enumerate(basis.classes):
            out.append({"id": class_label(m, idx), "degree": m,
                        "terms": cochain_json(c)})
    return {"command": "basis", "classes": out}


def cmd_products(A, max_degree, which):
    from .gerstenhaber import product_table
    classes = collect_classes(A, max_degree)
    op = cup if which == "cup" else bracket
    table = []
    for la, lb, res in product_table(A, classes, op):
        if res.is_zero():
            continue
        if which == "cup" and res.degree > max_degree:
            continue
        table.append({"left": la, "right": lb,
                      "degree": res.degree, "terms": cochain_json(res)})
    return {"command": which, "classes": [
        {"id": la, "degree": ca.degree, "terms": cochain_json(ca)}
        for la, ca in classes], "table": table}


class VerificationFailure(Exception):
    pass


def cmd_verify(A, max_degree, seeds, corrupt=None):
    """Run the invariant suites; raises VerificationFailure with a witness
    on the first violated identity."""
    from itertools import product as iproduct
    report = []
    omega_variant = "unsigned" if corrupt == "omega-sign" else "derivation"

    def record(name, bound, witness):
        if witness is None:
            report.append(f"PASS {name} ({bound})")
        else:
            report.append(f"FAIL {name} ({bound}): witness {witness}")
            raise VerificationFailure("\n".join(report))

    # d . d = 0
    witness = None
    top = min(max_degree, 6)
    for m in range(top + 1):
        for beta in compositions(A.n, m):
            for alpha in iproduct((0, 1), repeat=A.n):
                for g in range(A.group.order):
                    c = Cochain.basis(A, alpha, beta, g)
                    dd = hom_differential(
                        A, hom_differential(A, c, omega_variant), omega_variant)
                    if not dd.is_zero():
                        witness = (alpha, beta, g)
                        break
    record("differential squares to zero", f"degree <= {top}", witness)
    # flat subcomplexes + contracting homotopy
    from .cohomology import in_C_g
    witness = None
    for g in range(A.group.order):
        for gamma in iproduct(range(-1, 3), repeat=A.n):
            member = in_C_g(A, gamma, g) is not None
            for alpha in iproduct((0, 1), repeat=A.n):
                beta = tuple(gg + aa for gg, aa in zip(gamma, alpha))
                if any(b < 0 for b in beta):
                    continue
                c = Cochain.basis(A, alpha, beta, g)
                if member:
                    if not hom_differential(A, c).is_zero():
                        witness = ("flat", g, gamma, alpha)
                else:
                    cf = c.to_frac()
                    res = homotopy(A, hom_differential(A, cf)) + \
                        hom_differential(A, homotopy(A, cf))
                    if not (res == cf):
                        witness = ("homotopy", g, gamma, alpha)
    record("flatness and contracting homotopy", "each beta_l <= 3", witness)
    # diagonal / bar / contraction identities
    limit = min(max_degree, 4)
    witness = phi_identity_check(A, limit)
    record("contraction identity", f"degree <= {limit}", witness)
    witness = None
    for m in range(limit + 1):
        for beta in compositions(A.n, m):
            if not bar_check(A, beta):
                witness = beta
    record("bar-resolution boundary agreement", f"degree <= {limit}", witness)
    # closed formulas against the chain-level oracles
    witness = None
    keys = []
    for m in range(limit + 1):
        for beta in compositions(A.n, m):
            for alpha in iproduct((0, 1), repeat=A.n):
                for g in range(A.group.order):
                    keys.append((alpha, beta, g))
    for k1 in keys:
        c1 = Cochain.basis(A, *k1)
        for k2 in keys:
            if sum(k1[1]) + sum(k2[1]) > limit:
                continue
            c2 = Cochain.basis(A, *k2)
            if not (cup(A, c1, c2) == cup_oracle(A, c1, c2)):
                witness = ("cup", k1, k2)
                break
            if not (circ(A, c1, c2) == circ_oracle(A, c1, c2)):
                witness = ("circle", k1, k2)
                break
        if witness:
            break
    record("product formulas equal chain-level oracles",
           f"total degree <= {limit}", witness)
    # graded-algebra axioms on the invariant classes
    failures = axiom_suite(A, limit)
    record("graded algebra axioms", f"degree <= {limit}",
           failures[0] if failures else None)
    return {"command": "verify", "report": report}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_text(result):
    cmd = result["command"]
    lines = []
    if cmd == "dims":
        lines.append("degree\tdim" + ("\trank_oracle"
                                      if "rank_oracle" in result["dims"][0]
                                      else ""))
        for row in result["dims"]:
            extra = f"\t{row['rank_oracle']}" if "rank_oracle" in row else ""
            lines.append(f"{row['degree']}\t{row['dim']}{extra}")
    elif cmd == "basis":
        lines.append("id\tdegree\tterms")
        for rec in result["classes"]:
            terms = " + ".join(
                f"({t['coefficient_str']})*"
                f"(x^{tuple(t['alpha'])}(x)g{t['g']})e{tuple(t['beta'])}^*"
                for t in rec["terms"])
            lines.append(f"{rec['id']}\t{rec['degree']}\t{terms}")
    elif cmd in ("cup", "bracket"):
        lines.append("left\tright\tdegree\tresult")
        for rec in result["table"]:
            terms = " + ".join(
                f"({t['coefficient_str']})*"
                f"(x^{tuple(t['alpha'])}(x)g{t['g']})e{tuple(t['beta'])}^*"
                for t in rec["terms"])
            lines.append(f"{rec['left']}\t{rec['right']}\t{rec['degree']}\t{terms}")
    elif cmd == "verify":
        lines.extend(result["report"])
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qhoch",
        description="Gerstenhaber structure of Hochschild cohomology for "
                    "quantum exterior algebras with diagonal group actions")
    parser.add_argument("command",
                        choices=["dims", "basis", "cup", "bracket", "verify"])
    parser.add_argument("--config", required=True, help="JSON problem file")
    parser.add_argument("--max-degree", type=int, default=None,
                        help="override the config's degree bound")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="rank-oracle seed (repeatable)")
    parser.add_argument("--format", choices=["json", "text"], default="text")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check dims against the rank oracle")
    parser.add_argument("--degree", type=int, default=None,
                        help="restrict basis output to one degree")
    parser.add_argument("--corrupt", choices=["omega-sign"], default=None,
                        help=argparse.SUPPRESS)  # regression hook
    args = parser.parse_args(argv)
    try:
        A, max_degree, seeds = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.max_degree is not None:
        max_degree = args.max_degree
    if args.seed:
        seeds = args.seed
    try:
        if args.command == "dims":
            result = cmd_dims(A, max_degree, seeds, args.verify)
        elif args.command == "basis":
            result = cmd_basis(A, max_degree, args.degree)
        elif args.command in ("cup", "bracket"):
            result = cmd_products(A, max_degree, args.command)
        else:
            result = cmd_verify(A, max_degree, seeds, corrupt=args.corrupt)
    except VerificationFailure as exc:
        print(f"verification failed:\n{exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_text(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
