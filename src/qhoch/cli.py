"""Batch front end: read a problem description, compute graded bases,
cup-product and bracket tables over the invariant classes, and run the
verification suites.

A command returns its result as a dict whose cochains stay `Cochain`s
(under "terms"); no record is built per term.  `write_json` writes the
result as indented JSON, each list or dict whose values are str, int or
`Cochain` in one piece, with the text `cochain_json` builds for each
cochain at its own indentation; `render_text` writes it as tab-separated
lines.
Each writes through one memo per command, so each distinct coefficient,
and in JSON each distinct alpha or beta vector, is rendered once.

Exit codes: 0 on success, 1 for verification failures, 2 for configuration
errors, 3 for any other error (an internal fault, or output that could not
be written, such as to a pipe its reader closed), reported in one line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from math import comb

from .algebra import TableError, build_algebra
from .cohomology import (collect_classes, flatness_check, invariant_basis,
                         invariant_rank_oracle)
from .gerstenhaber import axiom_suite, bracket_table, cup, product_check
from .resolution import (Cochain, bar_check, differential_check,
                         phi_identity_check)
from .scalars import scalar_str


class ConfigError(Exception):
    pass


# Size limits, checked before anything is built.  Measured on a 2 vCPU Xeon
# with Python 3.11: `dims --max-degree 1` takes 0.45 s at n = 12 and 11 s at
# n = 16; building Q(zeta_N) takes 0.02 s at N = 1000 and 0.24 s at
# N = 5040, but inverting an element with all 996 coordinates nonzero in
# Q(zeta_997) takes 105 s; `dims --max-degree 1` with a cyclic group acting
# trivially takes 0.37 s at group order 128 and 0.94 s at 256, and with
# `--verify` 0.3 s at 128; `bracket --format json` on the README config
# takes 6.3 s and writes 71 MB at degree 30, with a 118 MB peak.
MAX_N = 12
MAX_CYCLOTOMIC_ORDER = 1000
MAX_GROUP_ORDER = 128
MAX_DEGREE = 32

# Work limits, checked before any command runs, on counts of n, |G| and the
# degrees in force alone: basis symbols (alpha, beta, g), |G| 2^n
# C(m+n-1, n-1) of them in degree m; for `verify`, the |G| 7^n cochains of
# its flatness check and the basis pairs its product check compares.  The
# counts cannot see how many symbols are classes, so each limit comes from
# the slowest configuration measured for its count (README table): `dims`
# takes 22 s at 372,736 symbols, `basis --format json` 12 s and a 238 MB
# peak at 372,736, `dims --verify` 45 s at 4096, `cup` 8.5 s at 1792 and
# `bracket --format json` 13 s and a 204 MB peak at 1120.  The pair limit
# admits every checked-in config, and `verify` takes 11-15 s and a 53 MB
# peak at 54,880 pairs where every symbol is a class.
MAX_SYMBOLS = {"dims": 400_000, "basis": 100_000, "dims --verify": 2500,
               "cup": 2000, "bracket": 1000}
MAX_FLATNESS_COCHAINS = 5000
MAX_PRODUCT_PAIRS = 65_000

# Degree caps of `verify`'s suites: d . d = 0 is checked up to degree
# VERIFY_DIFFERENTIAL_TOP and the other identities up to VERIFY_SUITE_TOP;
# the flatness check takes each gamma_l in -1..VERIFY_FLATNESS_TOP.
VERIFY_DIFFERENTIAL_TOP = 6
VERIFY_SUITE_TOP = 4
VERIFY_FLATNESS_TOP = 2


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError("config is not valid JSON: nested too deeply")
    except ValueError as exc:
        # an integer longer than the interpreter converts (4300 digits)
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(raw)


def _is_int(value, minimum=None):
    """A JSON integer (true/false are not) that is at least minimum."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum))


def _at_most(value, limit, where):
    if value > limit:
        raise ConfigError(f"{where}: must be at most {limit}")


def basis_symbols(n, order, m):
    """The number of basis symbols (alpha, beta, g) in degree m."""
    return order * 2 ** n * comb(m + n - 1, n - 1)


def check_work(command, n, order, degrees):
    """Raise ConfigError when the work of command over the given degrees,
    counted from n and the group order alone, is above its limit."""
    if command == "verify":
        top = min(max(degrees), VERIFY_SUITE_TOP)
        sym = [basis_symbols(n, order, m) for m in range(top + 1)]
        # per slot: gamma_l = -1 with alpha_l = 1, or gamma_l in
        # 0..VERIFY_FLATNESS_TOP with either alpha_l
        counts = [("flatness cochains",
                   order * (2 * VERIFY_FLATNESS_TOP + 3) ** n,
                   MAX_FLATNESS_COCHAINS),
                  (f"basis pairs of total degree <= {top}",
                   sum(sym[m] * sym[l] for m in range(top + 1)
                       for l in range(top + 1 - m)), MAX_PRODUCT_PAIRS)]
    else:
        lo, hi = min(degrees), max(degrees)
        where = f"degree {lo}" if lo == hi else f"degrees {lo}..{hi}"
        counts = [(f"basis symbols in {where}",
                   sum(basis_symbols(n, order, m) for m in degrees),
                   MAX_SYMBOLS[command])]
    for what, count, limit in counts:
        if count > limit:
            raise ConfigError(f"{command}: {count} {what} (n = {n}, group "
                              f"order {order}); must be at most {limit}")


def _known_fields(obj, fields, where):
    """Reject the first key of obj not in fields: nothing would read it."""
    for name in obj:
        if name not in fields:
            raise ConfigError(f"{where}: unknown field {name!r}")


def _chi_pair(entry, where):
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: character entries must be objects")
    _known_fields(entry, ("sign", "zeta"), where)
    sign = entry.get("sign", 1)
    zeta = entry.get("zeta", 0)
    if not (_is_int(sign) and sign in (1, -1) and _is_int(zeta)):
        raise ConfigError(f"{where}: character must have sign +-1 and an "
                          "integer zeta power")
    return (sign, zeta)


def parse_config(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _known_fields(raw, ("n", "N", "q", "group", "max_degree", "seeds"),
                  "config")
    try:
        n = raw["n"]
    except KeyError:
        raise ConfigError("config.n: missing")
    if not _is_int(n, 1):
        raise ConfigError("config.n: must be a positive integer")
    _at_most(n, MAX_N, "config.n")
    N = raw.get("N", 1)
    if not _is_int(N, 1):
        raise ConfigError("config.N: must be a positive integer")
    _at_most(N, MAX_CYCLOTOMIC_ORDER, "config.N")
    max_degree = raw.get("max_degree")
    if not _is_int(max_degree, 0):
        raise ConfigError("config.max_degree: required nonnegative integer "
                          "(the cohomology is infinite dimensional)")
    _at_most(max_degree, MAX_DEGREE, "config.max_degree")
    seeds = raw.get("seeds", [1, 2, 3])
    if (not isinstance(seeds, list) or not seeds
            or not all(_is_int(s) for s in seeds)):
        raise ConfigError("config.seeds: nonempty list of integers")
    q_items = raw.get("q", [])
    if not isinstance(q_items, list):
        raise ConfigError("config.q: must be a list of entries")
    q_spec = {}
    first = {}  # (i, j) pair or formal name -> where it was first given
    for idx, item in enumerate(q_items):
        where = f"config.q[{idx}]"
        try:
            i, j, kind = item["i"], item["j"], item["kind"]
        except (KeyError, TypeError):
            raise ConfigError(f"{where}: needs fields i, j, kind")
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= n):
            raise ConfigError(f"{where}: require 1 <= i < j <= n "
                              "(other entries are determined)")
        if (i, j) in first:
            raise ConfigError(f"{where}: pair ({i}, {j}) is already given "
                              f"by {first[(i, j)]}")
        first[(i, j)] = where
        if kind == "formal":
            _known_fields(item, ("i", "j", "kind", "name"), where)
            name = item.get("name", f"q{i}{j}")
            if not (isinstance(name, str) and name):
                raise ConfigError(f"{where}.name: non-empty string required")
            if name in first:
                raise ConfigError(f"{where}.name: {name!r} already names the "
                                  f"parameter of {first[name]}")
            first[name] = where
            q_spec[(i - 1, j - 1)] = ("formal", name)
        elif kind == "zeta":
            _known_fields(item, ("i", "j", "kind", "power"), where)
            power = item.get("power", 1)
            if not _is_int(power):
                raise ConfigError(f"{where}.power: integer required")
            q_spec[(i - 1, j - 1)] = ("zeta", power)
        elif kind == "rational":
            _known_fields(item, ("i", "j", "kind", "value"), where)
            value = item.get("value")
            if not (_is_int(value) and value in (1, -1)):
                raise ConfigError(f"{where}.value: must be 1 or -1")
            q_spec[(i - 1, j - 1)] = ("rational", value)
        else:
            raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # a missing pair gets the formal parameter q<i><j>
            name = f"q{i}{j}"
            if (i, j) not in first and name in first:
                raise ConfigError(f"{first[name]}.name: {name!r} already "
                                  f"names the parameter of the missing pair "
                                  f"({i}, {j})")
    group = raw.get("group", {"kind": "trivial"})
    if not isinstance(group, dict):
        raise ConfigError("config.group: must be an object")
    kind = group.get("kind", "trivial")
    if kind == "trivial":
        _known_fields(group, ("kind",), "config.group")
        group_spec = None
    elif kind == "cyclic":
        _known_fields(group, ("kind", "order", "chi"), "config.group")
        order = group.get("order")
        if not _is_int(order, 1):
            raise ConfigError("config.group.order: positive integer required")
        _at_most(order, MAX_GROUP_ORDER, "config.group.order")
        chi = group.get("chi")
        if not isinstance(chi, list) or len(chi) != n:
            raise ConfigError("config.group.chi: one character per generator")
        group_spec = ("cyclic", order,
                      [_chi_pair(c, f"config.group.chi[{k}]")
                       for k, c in enumerate(chi)])
    elif kind == "table":
        _known_fields(group, ("kind", "mult", "chi"), "config.group")
        mult = group.get("mult")
        chi = group.get("chi")
        if not isinstance(mult, list) or not isinstance(chi, list):
            raise ConfigError("config.group: table groups need mult and chi")
        order = len(mult)
        _at_most(order, MAX_GROUP_ORDER, "config.group.mult")
        if not order or not all(
                isinstance(row, list) and len(row) == order
                and all(_is_int(x, 0) and x < order for x in row)
                for row in mult):
            raise ConfigError("config.group.mult: square table of element "
                              "indices required")
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
    except TableError as exc:
        raise ConfigError(f"config.group.mult: {exc}")
    except ValueError as exc:
        # everything else build_algebra checks is validated above
        raise ConfigError(f"config.group.chi: {exc}")
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
            "zeta_power_terms": [[str(a.numerator), str(a.denominator)]
                                 for a in c.coeffs],
        })
    return out


def _json_text(obj, nl):
    """obj as `write_json` writes it on a line that nl starts."""
    parts = []
    _write_json("", obj, parts.append, nl, None)
    return "".join(parts)


def cochain_json(c, memo, nl):
    """The JSON text of the terms of the cochain c, as `write_json` writes
    it on a line that nl starts: a list, in the order of c.sorted_keys(),
    of one record per term, {"alpha", "beta", "coefficient" (scalar_json),
    "coefficient_str" (scalar_str), "g"}, each record built at its own
    indentation.  memo belongs to one command and maps each line start nl
    to the texts of record fields at that indentation: one per index
    vector (an alpha or a beta) and one pair per coefficient, found by its
    `Scalar.value_key`, so each is rendered once, however many terms share
    it.  The cochains of one command all start on lines of one
    indentation, and memory grows with the distinct vectors and
    coefficients, not with the basis symbols."""
    if not c.terms:
        return "[]"
    texts = memo.get(nl)
    if texts is None:
        texts = memo[nl] = {}
    item = nl + "  "
    field = item + "  "
    records = []
    for key in c.sorted_keys():
        alpha, beta, g = key
        alpha_text = texts.get(alpha)
        if alpha_text is None:
            alpha_text = texts[alpha] = _json_text(list(alpha), field)
        beta_text = texts.get(beta)
        if beta_text is None:
            beta_text = texts[beta] = _json_text(list(beta), field)
        s = c.terms[key]
        value = s.value_key()
        coefficient = texts.get(value)
        if coefficient is None:
            coefficient = texts[value] = (_json_text(scalar_json(s), field),
                                          _json_text(scalar_str(s), field))
        records.append(
            f'{{{field}"alpha": {alpha_text},{field}"beta": {beta_text},'
            f'{field}"coefficient": {coefficient[0]},{field}'
            f'"coefficient_str": {coefficient[1]},{field}"g": {g}{item}}}')
    return "[" + item + ("," + item).join(records) + nl + "]"


def write_json(obj, write):
    """Write obj through ``write`` piece by piece, exactly as
    ``json.dumps(obj, indent=2, sort_keys=True)`` renders it with each
    `Cochain` in obj replaced by the list of term records of
    `cochain_json`.  obj is built of dicts with str keys, lists, str, int
    and Cochain; any other type (bool, float and None included) raises
    TypeError.  Each cochain is written in one piece, and one memo serves
    every cochain of obj."""
    _write_json("", obj, write, "\n", {})


def _write_json(head, obj, write, nl, memo):
    """Write head and then obj; nl is a newline followed by the indentation
    of the line obj starts on.  Each leaf, and each cochain, goes out in
    one piece with the punctuation before it."""
    kind = type(obj)
    if kind is str:
        write(head + _quote(obj))
    elif kind is int:
        write(head + int.__repr__(obj))
    elif kind is Cochain:
        write(head + cochain_json(obj, memo, nl))
    elif kind is list or kind is dict:
        if not obj:
            write(head + ("[]" if kind is list else "{}"))
            return
        inner = nl + "  "
        if kind is list:
            head += "[" + inner
            for value in obj:
                _write_json(head, value, write, inner, memo)
                head = "," + inner
            write(nl + "]")
        else:
            head += "{" + inner
            for key in sorted(obj):
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not "
                                    f"{type(key).__name__}")
                _write_json(head + _quote(key) + ": ", obj[key], write,
                            inner, memo)
                head = "," + inner
            write(nl + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not written "
                        "as JSON")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_dims(A, max_degree, seeds, verify):
    rows = []
    for m in range(max_degree + 1):
        dim = len(invariant_basis(A, m).classes)
        row = {"degree": m, "dim": dim}
        if verify:
            try:
                oracle = invariant_rank_oracle(A, m, seeds=tuple(seeds))
            except ArithmeticError as exc:
                raise VerificationFailure(f"degree {m}: {exc}")
            row["rank_oracle"] = oracle
            if oracle != dim:
                raise VerificationFailure(
                    f"dimension mismatch in degree {m}: closed form {dim}, "
                    f"rank oracle {oracle}")
        rows.append(row)
    return {"command": "dims", "dims": rows}


def cmd_basis(A, degrees):
    return {"command": "basis", "classes": [
        {"id": label, "degree": c.degree, "terms": c}
        for label, c in collect_classes(A, degrees)]}


def cmd_products(A, max_degree, which):
    classes = collect_classes(A, range(max_degree + 1))
    if which == "cup":
        # a cup product lies in the sum of its factors' degrees; only those
        # within the bound are printed
        products = [(la, lb, cup(A, ca, cb)) for la, ca in classes
                    for lb, cb in classes
                    if ca.degree + cb.degree <= max_degree]
    else:
        products = bracket_table(A, classes)
    table = [{"left": la, "right": lb, "degree": res.degree, "terms": res}
             for la, lb, res in products if not res.is_zero()]
    return {"command": which, "classes": [
        {"id": la, "degree": ca.degree, "terms": ca}
        for la, ca in classes], "table": table}


class VerificationFailure(Exception):
    pass


def cmd_verify(A, max_degree):
    """Run the identity suites in order; raises VerificationFailure with a
    witness on the first violated identity."""
    top = min(max_degree, VERIFY_DIFFERENTIAL_TOP)
    limit = min(max_degree, VERIFY_SUITE_TOP)

    def axiom_failure():
        failures = axiom_suite(A, limit)
        return failures[0] if failures else None

    suites = [
        ("differential squares to zero", f"degree <= {top}",
         lambda: differential_check(A, top)),
        # beta_l = gamma_l + alpha_l with alpha_l <= 1
        ("flatness and contracting homotopy",
         f"each beta_l <= {VERIFY_FLATNESS_TOP + 1}",
         lambda: flatness_check(A, VERIFY_FLATNESS_TOP)),
        ("contraction identity", f"degree <= {limit}",
         lambda: phi_identity_check(A, limit)),
        ("bar-resolution boundary agreement", f"degree <= {limit}",
         lambda: bar_check(A, limit)),
        ("product formulas equal chain-level oracles",
         f"total degree <= {limit}", lambda: product_check(A, limit)),
        ("graded algebra axioms", f"degree <= {limit}", axiom_failure),
    ]
    report = []
    for name, bound, check in suites:
        witness = check()
        if witness is not None:
            report.append(f"FAIL {name} ({bound}): witness {witness}")
            raise VerificationFailure("\n".join(report))
        report.append(f"PASS {name} ({bound})")
    return {"command": "verify", "report": report}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _terms_text(c, memo):
    """One line for the terms of the cochain c; memo maps each coefficient,
    by its `Scalar.value_key`, to its scalar_str."""
    parts = []
    for key in c.sorted_keys():
        s = c.terms[key]
        value = s.value_key()
        text = memo.get(value)
        if text is None:
            text = memo[value] = scalar_str(s)
        alpha, beta, g = key
        parts.append(f"({text})*(x^{alpha}(x)g{g})e{beta}^*")
    return " + ".join(parts)


def render_text(result, write):
    """Write result as text through ``write``, each line as it is formed;
    each distinct coefficient is rendered once."""
    cmd = result["command"]
    memo = {}
    if cmd == "dims":
        write("degree\tdim" + ("\trank_oracle"
                                if "rank_oracle" in result["dims"][0]
                                else "") + "\n")
        for row in result["dims"]:
            extra = f"\t{row['rank_oracle']}" if "rank_oracle" in row else ""
            write(f"{row['degree']}\t{row['dim']}{extra}\n")
    elif cmd == "basis":
        write("id\tdegree\tterms\n")
        for rec in result["classes"]:
            write(f"{rec['id']}\t{rec['degree']}\t"
                  f"{_terms_text(rec['terms'], memo)}\n")
    elif cmd in ("cup", "bracket"):
        write("left\tright\tdegree\tresult\n")
        for rec in result["table"]:
            write(f"{rec['left']}\t{rec['right']}\t{rec['degree']}\t"
                  f"{_terms_text(rec['terms'], memo)}\n")
    elif cmd == "verify":
        for line in result["report"]:
            write(line + "\n")


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
    args = parser.parse_args(argv)
    try:
        for flag, given, reader in (("--verify", args.verify, "dims"),
                                    ("--degree", args.degree is not None,
                                     "basis")):
            if given and args.command != reader:
                raise ConfigError(f"{flag}: only {reader} reads this flag")
        for flag, value in (("--max-degree", args.max_degree),
                            ("--degree", args.degree)):
            if value is not None and value < 0:
                raise ConfigError(f"{flag}: must be a nonnegative integer")
            if value is not None:
                _at_most(value, MAX_DEGREE, flag)
        A, max_degree, seeds = load_config(args.config)
        if args.max_degree is not None:
            max_degree = args.max_degree
        if args.seed:
            seeds = args.seed
        command = "dims --verify" if args.verify else args.command
        degrees = range(max_degree + 1)
        if args.degree is not None:
            degrees = [args.degree]
        check_work(command, A.n, A.group.order, degrees)
        if args.command == "dims":
            result = cmd_dims(A, max_degree, seeds, args.verify)
        elif args.command == "basis":
            result = cmd_basis(A, degrees)
        elif args.command in ("cup", "bracket"):
            result = cmd_products(A, max_degree, args.command)
        else:
            result = cmd_verify(A, max_degree)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failed:\n{exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # exit 1 must mean only that a verification failed
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    stdout = sys.stdout
    try:
        if args.format == "json":
            write_json(result, stdout.write)
            stdout.write("\n")
        else:
            render_text(result, stdout.write)
        stdout.flush()
    except OSError as exc:
        # Typically a reader that closed the pipe early.  Point stdout at
        # the null device so that the interpreter's flush at exit does not
        # fail on the bytes still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
