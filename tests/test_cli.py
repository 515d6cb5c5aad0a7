import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qhoch.algebra
import qhoch.cli
import qhoch.gerstenhaber
import qhoch.resolution
from qhoch import Group, build_algebra
from qhoch.cli import (ConfigError, basis_symbols, check_work, load_config,
                       main, parse_config, scalar_json, write_json)
from qhoch.resolution import full_basis
from qhoch.scalars import scalar_str
from test_resolution import unsigned_omega


CFG_FORMAL = {
    "n": 2, "N": 1,
    "q": [{"i": 1, "j": 2, "kind": "formal", "name": "q"}],
    "group": {"kind": "trivial"},
    "max_degree": 4, "seeds": [1, 2, 3],
}

CFG_ACTION_D3 = {
    "n": 2, "N": 3,
    "q": [{"i": 1, "j": 2, "kind": "zeta", "power": 1}],
    "group": {"kind": "cyclic", "order": 3,
              "chi": [{"zeta": 1}, {"zeta": 2}]},
    "max_degree": 5, "seeds": [1, 2],
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_text_and_json_agree(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, err = run(capsys, ["dims", "--config", path])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    text_dims = [(int(a), int(b)) for a, b in rows]
    code, out, err = run(capsys, ["dims", "--config", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    json_dims = [(r["degree"], r["dim"]) for r in data["dims"]]
    assert text_dims == json_dims == [(0, 2), (1, 2), (2, 1), (3, 0), (4, 0)]


def test_dims_with_rank_verification(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_ACTION_D3)
    code, out, err = run(capsys, ["dims", "--config", path, "--verify",
                                  "--format", "json", "--max-degree", "4"])
    assert code == 0
    data = json.loads(out)
    for row in data["dims"]:
        assert row["dim"] == row["rank_oracle"]


def test_basis_round_trip(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, _ = run(capsys, ["basis", "--config", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    ids = [rec["id"] for rec in data["classes"]]
    assert ids == ["d0#0", "d0#1", "d1#0", "d1#1", "d2#0"]
    code, text_out, _ = run(capsys, ["basis", "--config", path])
    lines = text_out.strip().splitlines()[1:]
    assert [ln.split("\t")[0] for ln in lines] == ids


def test_bracket_table_formal(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, _ = run(capsys, ["bracket", "--config", path,
                                "--max-degree", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    pairs = {(rec["left"], rec["right"]) for rec in data["table"]}
    # the two listed brackets plus their antisymmetric partners
    assert pairs == {("d0#1", "d1#0"), ("d0#1", "d1#1"),
                     ("d1#0", "d0#1"), ("d1#1", "d0#1")}


def test_cup_table_contains_golden_sign(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, _ = run(capsys, ["cup", "--config", path,
                                "--max-degree", "2", "--format", "json"])
    data = json.loads(out)
    lookup = {(rec["left"], rec["right"]):
              rec["terms"][0]["coefficient_str"] for rec in data["table"]
              if rec["degree"] == 2}
    # degree-1 classes are ordered (x2)e01 then (x1)e10
    assert lookup[("d1#0", "d1#1")] == "-1"
    assert lookup[("d1#1", "d1#0")] == "1"


def test_cup_table_computes_only_the_degrees_it_prints(monkeypatch):
    """`cup` forms the product of a class pair only when the pair's total
    degree is within the bound, and then of every such pair once."""
    A, _, _ = parse_config(CFG_ACTION_D3)
    real_cup = qhoch.gerstenhaber.cup
    degrees = []

    def counting(A, a, b):
        degrees.append(a.degree + b.degree)
        return real_cup(A, a, b)
    monkeypatch.setattr(qhoch.gerstenhaber, "cup", counting)
    qhoch.cli.cmd_products(A, 3, "cup")
    classes = qhoch.cli.collect_classes(A, range(4))
    assert len(degrees) == sum(1 for _, a in classes for _, b in classes
                               if a.degree + b.degree <= 3)
    assert degrees and max(degrees) <= 3


def test_empty_degree_exits_zero(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, _ = run(capsys, ["basis", "--config", path, "--degree", "4",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["classes"] == []


def test_verify_pass_and_regression(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, _ = run(capsys, ["verify", "--config", path, "--max-degree", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[0] == "PASS differential squares to zero (degree <= 3)"
    assert lines[-1] == "PASS graded algebra axioms (degree <= 3)"
    # above the caps each line names the bound its suite actually used
    code, out, _ = run(capsys, ["verify", "--config", path, "--max-degree", "9"])
    assert code == 0
    assert out.strip().splitlines() == [
        "PASS differential squares to zero (degree <= 6)",
        "PASS flatness and contracting homotopy (each beta_l <= 3)",
        "PASS contraction identity (degree <= 4)",
        "PASS bar-resolution boundary agreement (degree <= 4)",
        "PASS product formulas equal chain-level oracles (total degree <= 4)",
        "PASS graded algebra axioms (degree <= 4)",
    ]
    monkeypatch.setattr(qhoch.resolution, "omega_big", unsigned_omega)
    code, out, err = run(capsys, ["verify", "--config", path,
                                  "--max-degree", "3"])
    assert code == 1
    assert "differential squares to zero" in err and "witness" in err


def test_verify_has_no_corrupt_option(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_FORMAL)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", path, "--corrupt", "omega-sign"])
    assert exc.value.code == 2
    assert "--corrupt" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dims", "--max-degree", "-2"],
    ["verify", "--max-degree", "-2"],
    ["basis", "--degree", "-1"],
], ids=["dims", "verify", "basis"])
def test_negative_degree_override_exits_two(tmp_path, capsys, argv):
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, err = run(capsys, argv + ["--config", path])
    assert code == 2 and out == ""
    assert err == f"config error: {argv[1]}: must be a nonnegative integer\n"


@pytest.mark.parametrize("argv", [
    ["bracket", "--verify"], ["verify", "--verify"], ["basis", "--verify"],
    ["cup", "--degree", "1"], ["dims", "--degree", "1"],
], ids=["bracket-verify", "verify-verify", "basis-verify", "cup-degree",
        "dims-degree"])
def test_flag_the_command_does_not_read_exits_two(tmp_path, capsys,
                                                  monkeypatch, argv):
    """`--verify` is read by `dims` alone and `--degree` by `basis` alone;
    given to another command, either is a configuration error that names
    the flag, raised before the config is read."""
    def load(path):
        raise AssertionError("read the config past a flag check")
    monkeypatch.setattr(qhoch.cli, "load_config", load)
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, err = run(capsys, argv + ["--config", path])
    reader = {"--verify": "dims", "--degree": "basis"}[argv[1]]
    assert code == 2 and out == ""
    assert err == f"config error: {argv[1]}: only {reader} reads this flag\n"


def test_seed_is_accepted_by_every_command(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_FORMAL)
    for command in ("dims", "basis", "cup", "bracket", "verify"):
        code, _, err = run(capsys, [command, "--config", path, "--seed", "5",
                                    "--max-degree", "1"])
        assert code == 0, err


def test_dims_seed_disagreement_is_verification_failure(tmp_path, capsys):
    path = write_cfg(tmp_path, {**CFG_FORMAL, "seeds": [5, 63]})
    code, out, err = run(capsys, ["dims", "--config", path, "--verify"])
    assert code == 1 and out == ""
    assert "rank oracle disagrees across seeds" in err
    assert "Traceback" not in err


def test_dims_verify_reports_a_dimension_mismatch(capsys, monkeypatch):
    """A rank oracle that disagrees with the closed form fails `dims
    --verify` with exit 1, naming the first degree and both dimensions,
    and prints no table."""
    real = qhoch.cli.invariant_rank_oracle
    monkeypatch.setattr(qhoch.cli, "invariant_rank_oracle",
                        lambda *args, **kwargs: real(*args, **kwargs) + 1)
    code, out, err = run(capsys, ["dims", "--config", BENCH_CONFIG,
                                  "--verify"])
    assert code == 1 and out == ""
    assert err == ("verification failed:\ndimension mismatch in degree 0: "
                   "closed form 4, rank oracle 5\n")


def test_verify_action_datum(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_ACTION_D3)
    code, out, _ = run(capsys, ["verify", "--config", path, "--max-degree", "3"])
    assert code == 0


def test_config_errors_exit_two(tmp_path, capsys):
    bad = dict(CFG_FORMAL)
    bad["q"] = [{"i": 2, "j": 1, "kind": "formal"}]
    path = write_cfg(tmp_path, bad)
    code, out, err = run(capsys, ["dims", "--config", path])
    assert code == 2 and "config.q[0]" in err

    bad = dict(CFG_FORMAL)
    del bad["max_degree"]
    path = write_cfg(tmp_path, bad, "bad2.json")
    code, out, err = run(capsys, ["dims", "--config", path])
    assert code == 2 and "max_degree" in err

    path = tmp_path / "nonexistent.json"
    code, out, err = run(capsys, ["dims", "--config", str(path)])
    assert code == 2


@pytest.mark.parametrize("override, field", [
    ({"group": [1]}, "config.group"),
    ({"group": {"kind": "table", "mult": [[0, 1], [1]],
                "chi": [[{}, {}], [{}, {}]]}}, "config.group.mult"),
    ({"q": 5}, "config.q"),
    ({"n": True}, "config.n"),
    ({"max_degree": True}, "config.max_degree"),
    ({"q": [{"i": 1, "j": 2, "kind": "zeta", "power": True}]},
     "config.q[0].power"),
    ({"group": {"kind": "table", "mult": [[1, 0], [0, 1]],
                "chi": [[{}, {}], [{}, {}]]}}, "config.group.mult"),
    # identity and inverses, but (1*1)*2 = 2 while 1*(1*2) = 1
    ({"group": {"kind": "table", "mult": [[0, 1, 2], [1, 0, 0], [2, 0, 0]],
                "chi": [[{}, {}], [{}, {}], [{}, {}]]}}, "config.group.mult"),
    ({"q": [{"i": 1, "j": 2, "kind": "formal", "name": ["a"]}]},
     "config.q[0].name"),
    ({"q": [{"i": 1, "j": 2, "kind": "formal", "name": ""}]},
     "config.q[0].name"),
    ({"group": {"kind": "table", "mult": [[0, 1], [1, 0]],
                "chi": [[{"sign": -1}, {}], [{}, {}]]}}, "config.group.chi"),
    ({"N": 2, "group": {"kind": "table",
                        "mult": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                        "chi": [[{}, {}], [{"sign": -1}, {}], [{}, {}]]}},
     "config.group.chi"),
    ({"group": {"kind": "table", "mult": [[0, 1], [1, 0]],
                "chi": [[{}, {}], [{"sign": -1}, {}]]}}, "config.group.chi"),
    ({"N": 3, "group": {"kind": "cyclic", "order": 2,
                        "chi": [{"zeta": 1}, {}]}}, "config.group.chi"),
    ({"group": {"kind": "cyclic", "order": 2,
                "chi": [{"sign": -1}, {}]}}, "config.group.chi"),
    ({"q": [{"i": 1, "j": 2, "kind": "formal"},
            {"i": 1, "j": 2, "kind": "zeta"}]}, "config.q[1]"),
    ({"n": 3, "q": [{"i": 1, "j": 2, "kind": "formal", "name": "x"},
                    {"i": 1, "j": 3, "kind": "formal", "name": "x"}]},
     "config.q[1].name"),
    ({"n": 3, "q": [{"i": 1, "j": 2, "kind": "formal", "name": "q13"}]},
     "config.q[0].name"),
    # a field that nothing reads: at the root, in a q entry by its kind,
    # in the group by its kind, and in a character
    ({"grup": {"kind": "cyclic", "order": 2, "chi": [{}, {}]}}, "config"),
    ({"q": [{"i": 1, "j": 2, "kind": "zeta", "value": 2}]}, "config.q[0]"),
    ({"q": [{"i": 1, "j": 2, "kind": "rational", "valu": -1}]},
     "config.q[0]"),
    ({"q": [{"i": 1, "j": 2, "kind": "formal", "power": 1}]},
     "config.q[0]"),
    ({"group": {"kind": "trivial", "order": 2}}, "config.group"),
    ({"group": {"kind": "cyclic", "ordr": 2, "chi": [{}, {}]}},
     "config.group"),
    ({"group": {"kind": "table", "mult": [[0]], "chi": [[{}, {}]],
                "order": 1}}, "config.group"),
    ({"group": {"kind": "cyclic", "order": 2,
                "chi": [{"zta": 2}, {}]}}, "config.group.chi[0]"),
    ({"group": {"kind": "table", "mult": [[0, 1], [1, 0]],
                "chi": [[{}, {}], [{}, {"sgn": -1}]]}},
     "config.group.chi[1][1]"),
    ({"group": {"kind": "cyclic", "order": 2, "chi": [1, {}]}},
     "config.group.chi[0]"),
    ({"q": [{"i": 1, "j": 2, "kind": "complex"}]}, "config.q[0].kind"),
    ({"group": {"kind": "cyclic", "order": 0, "chi": [{}, {}]}},
     "config.group.order"),
    ({"group": {"kind": "cyclic", "order": 2, "chi": [{}]}},
     "config.group.chi"),
    ({"group": {"kind": "table", "mult": [[0, 1], [1, 0]],
                "chi": [[{}, {}]]}}, "config.group.chi"),
], ids=["group-list", "ragged-mult", "q-int", "n-bool", "max-degree-bool",
        "power-bool", "mult-identity", "mult-associativity", "name-list",
        "name-empty",
        "chi-identity", "chi-homomorphism", "chi-order-N",
        "cyclic-chi-order", "cyclic-chi-order-N", "q-duplicate-pair",
        "q-duplicate-name", "q-default-name", "unknown-root",
        "unknown-zeta", "unknown-rational", "unknown-formal",
        "unknown-trivial", "unknown-cyclic", "unknown-table",
        "unknown-cyclic-chi", "unknown-table-chi", "chi-not-object",
        "q-kind", "cyclic-order-zero", "cyclic-chi-count",
        "table-chi-rows"])
def test_malformed_config_exits_two(tmp_path, capsys, override, field):
    path = write_cfg(tmp_path, {**CFG_FORMAL, **override})
    code, out, err = run(capsys, ["dims", "--config", path])
    assert code == 2
    assert f"config error: {field}:" in err


def test_integer_too_long_to_convert_is_a_config_error(tmp_path):
    """An integer longer than the interpreter converts is a ConfigError
    naming the JSON, not a ValueError out of the parser."""
    path = tmp_path / "long.json"
    path.write_text('{"n": ' + "9" * 5000 + ', "max_degree": 1}')
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    if hasattr(sys, "get_int_max_str_digits"):
        assert str(info.value).startswith(
            "config is not valid JSON: Exceeds the limit")


def test_unknown_field_is_named(tmp_path, capsys):
    """A misspelled field is the one stderr line that names it, not a run
    of the default it leaves in force (here the trivial group)."""
    path = write_cfg(tmp_path, {**CFG_FORMAL, "grup": {"kind": "trivial"}})
    code, out, err = run(capsys, ["dims", "--config", path])
    assert (code, out) == (2, "")
    assert err == "config error: config: unknown field 'grup'\n"


def _refuse_to_build(monkeypatch):
    """Make any algebra or group construction inside parse_config fail."""
    def build(*args, **kwargs):
        raise AssertionError("built past a size check")
    monkeypatch.setattr(qhoch.cli, "build_algebra", build)
    monkeypatch.setattr(qhoch.algebra, "Group", build)


def _cyclic_table(order):
    return {"kind": "table",
            "mult": [[(a + b) % order for b in range(order)]
                     for a in range(order)],
            "chi": [[{}, {}] for _ in range(order)]}


@pytest.mark.parametrize("override, field, limit", [
    ({"n": qhoch.cli.MAX_N + 1}, "config.n", qhoch.cli.MAX_N),
    ({"N": qhoch.cli.MAX_CYCLOTOMIC_ORDER + 1}, "config.N",
     qhoch.cli.MAX_CYCLOTOMIC_ORDER),
    ({"max_degree": qhoch.cli.MAX_DEGREE + 1}, "config.max_degree",
     qhoch.cli.MAX_DEGREE),
    ({"group": {"kind": "cyclic", "order": qhoch.cli.MAX_GROUP_ORDER + 1,
                "chi": [{}, {}]}}, "config.group.order",
     qhoch.cli.MAX_GROUP_ORDER),
    ({"group": _cyclic_table(qhoch.cli.MAX_GROUP_ORDER + 1)},
     "config.group.mult", qhoch.cli.MAX_GROUP_ORDER),
], ids=["n", "N", "max-degree", "cyclic-order", "table-order"])
def test_size_above_limit_exits_two(tmp_path, capsys, monkeypatch, override,
                                    field, limit):
    """One past each size limit is a configuration error raised before any
    field, group or algebra is built."""
    _refuse_to_build(monkeypatch)
    path = write_cfg(tmp_path, {**CFG_FORMAL, **override})
    code, out, err = run(capsys, ["dims", "--config", path])
    assert code == 2 and out == ""
    assert err == f"config error: {field}: must be at most {limit}\n"


@pytest.mark.parametrize("override", [
    {"n": qhoch.cli.MAX_N},
    {"N": qhoch.cli.MAX_CYCLOTOMIC_ORDER},
    {"max_degree": qhoch.cli.MAX_DEGREE},
    {"group": {"kind": "cyclic", "order": qhoch.cli.MAX_GROUP_ORDER,
               "chi": [{}, {}]}},
    {"group": _cyclic_table(qhoch.cli.MAX_GROUP_ORDER)},
], ids=["n", "N", "max-degree", "cyclic-order", "table-order"])
def test_size_at_limit_is_accepted(monkeypatch, override):
    """Each size limit itself passes the front end's checks: the algebra is
    requested (here from a stand-in that builds nothing)."""
    monkeypatch.setattr(qhoch.cli, "build_algebra",
                        lambda *args, **kwargs: "algebra")
    cfg = {**CFG_FORMAL, **override}
    if "n" in override:
        cfg["q"] = []
    assert parse_config(cfg)[0] == "algebra"


def test_table_group_is_validated_once(monkeypatch):
    """A `kind: table` multiplication table is checked once, by the Group
    that build_algebra builds."""
    validated = []
    validate = Group._validate

    def counting(self):
        validated.append(self.order)
        validate(self)
    monkeypatch.setattr(Group, "_validate", counting)
    parse_config({**CFG_FORMAL, "group": _cyclic_table(4)})
    assert validated == [4]


@pytest.mark.parametrize("argv", [
    ["dims", "--max-degree"], ["verify", "--max-degree"],
    ["basis", "--degree"],
], ids=["dims", "verify", "basis"])
def test_degree_override_above_limit_exits_two(tmp_path, capsys, monkeypatch,
                                               argv):
    def load(path):
        raise AssertionError("read the config past a size check")
    monkeypatch.setattr(qhoch.cli, "load_config", load)
    path = write_cfg(tmp_path, CFG_FORMAL)
    limit = qhoch.cli.MAX_DEGREE
    code, out, err = run(capsys, argv + [str(limit + 1), "--config", path])
    assert code == 2 and out == ""
    assert err == f"config error: {argv[1]}: must be at most {limit}\n"


# ---------------------------------------------------------------------------
# work limits: n, the group order and the degree bound together
# ---------------------------------------------------------------------------

def test_work_counts_match_enumeration():
    """basis_symbols counts full_basis, so verify's pair count is the
    number of pairs product_check compares; its flatness count is the
    number of cochains flatness_check visits."""
    for n, group in ((1, None), (2, ("cyclic", 3, [(1, 1), (1, 2)])),
                     (3, None)):
        A = build_algebra(n, N=3, group_spec=group)
        sym = [basis_symbols(n, A.group.order, m) for m in range(5)]
        assert sym == [len(full_basis(A, m)) for m in range(5)]
        top = qhoch.cli.VERIFY_FLATNESS_TOP
        visited = sum(1 for g in range(A.group.order)
                      for gamma in product(range(-1, top + 1), repeat=n)
                      for alpha in product((0, 1), repeat=n)
                      if min(a + c for a, c in zip(alpha, gamma)) >= 0)
        assert visited == A.group.order * (2 * top + 3) ** n


def _trivial_action(order, n):
    return {"kind": "cyclic", "order": order, "chi": [{}] * n}


def _stub_commands(monkeypatch):
    """Make every command fail loudly once it starts, so that a test can
    tell an accepted run from a rejected one without doing the work."""
    class Started(Exception):
        pass

    def start(*args):
        raise Started("ran")
    for name in ("cmd_dims", "cmd_basis", "cmd_products", "cmd_verify"):
        monkeypatch.setattr(qhoch.cli, name, start)


# (command, accepted run, run one step past a limit, what the error counts);
# a run is (config, extra arguments)
WORK_LIMITS = [
    ("dims", ({"n": 12, "max_degree": 2}, []),
     ({"n": 12, "max_degree": 3}, []), "basis symbols in degrees 0..3"),
    ("basis", ({"n": 12, "max_degree": 1}, []),
     ({"n": 12, "max_degree": 2}, []), "basis symbols in degrees 0..2"),
    ("basis", ({"n": 12, "max_degree": 3}, ["--degree", "1"]),
     ({"n": 12, "max_degree": 3}, ["--degree", "2"]),
     "basis symbols in degree 2 "),
    ("dims --verify", ({"n": 8, "max_degree": 1}, []),
     ({"n": 8, "max_degree": 2}, []), "basis symbols in degrees 0..2"),
    ("cup", ({"n": 4, "max_degree": 4}, []),
     ({"n": 4, "max_degree": 5}, []), "basis symbols in degrees 0..5"),
    ("bracket", ({"n": 4, "max_degree": 3}, []),
     ({"n": 4, "max_degree": 4}, []), "basis symbols in degrees 0..4"),
    ("verify", ({"n": 2, "max_degree": 3, "group": _trivial_action(8, 2)}, []),
     ({"n": 2, "max_degree": 4, "group": _trivial_action(8, 2)}, []),
     "basis pairs of total degree <= 4"),
    ("verify", ({"n": 4, "max_degree": 0, "group": _trivial_action(2, 4)}, []),
     ({"n": 4, "max_degree": 0, "group": _trivial_action(3, 4)}, []),
     "7203 flatness cochains (n = 4, group order 3)"),
]


@pytest.mark.parametrize("command, ok, over, what", WORK_LIMITS,
                         ids=["dims", "basis", "basis-degree", "dims-verify",
                              "cup", "bracket", "verify-pairs",
                              "verify-flatness"])
def test_work_above_limit_exits_two(tmp_path, capsys, monkeypatch, command,
                                    ok, over, what):
    """The work of a command is counted from n, |G| and the degrees in
    force: the accepted run starts the command, and one step more (a
    degree or a group element) is a configuration error naming the command,
    with nothing run."""
    _stub_commands(monkeypatch)
    for (cfg, extra), expected in ((ok, 3), (over, 2)):
        path = write_cfg(tmp_path, cfg)
        code, out, err = run(capsys, command.split() + ["--config", path]
                             + extra)
        assert code == expected and out == "", err
    assert err.startswith(f"config error: {command}: ")
    assert what in err and "must be at most" in err


def test_checked_in_configs_within_work_limits():
    """Every command runs on the README and benchmark configs at their own
    degree bounds."""
    root = Path(__file__).resolve().parent.parent
    readme = re.search(r"^```json\n(.*?)^```$",
                       (root / "README.md").read_text(), re.M | re.S)
    configs = [json.loads(readme.group(1))] + [
        json.loads(p.read_text())
        for p in sorted((root / "perfbench" / "configs").glob("*.json"))]
    for cfg in configs + [CFG_FORMAL, CFG_ACTION_D3]:
        A, max_degree, _ = parse_config(cfg)
        for command in ("dims", "dims --verify", "basis", "cup", "bracket",
                        "verify"):
            check_work(command, A.n, A.group.order, range(max_degree + 1))


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "config error: config is not UTF-8 text"),
    (b"[" * 100000 + b"]" * 100000,
     "config error: config is not valid JSON: nested too deeply"),
    (b'{"n": ' + b"1" * 5000 + b"}",
     "config error: config is not valid JSON: Exceeds the limit"),
], ids=["not-utf8", "nested-100000", "int-5000-digits"])
def test_unreadable_config_exits_two(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["dims", "--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(message) and len(err.splitlines()) == 1


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise KeyError("lost")

    monkeypatch.setattr(qhoch.cli, "cmd_dims", broken)
    path = write_cfg(tmp_path, CFG_FORMAL)
    code, out, err = run(capsys, ["dims", "--config", path])
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: 'lost'\n"


def test_config_rejects_bad_rational(tmp_path):
    bad = dict(CFG_FORMAL)
    bad["q"] = [{"i": 1, "j": 2, "kind": "rational", "value": 2}]
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_config_rejects_mismatched_character_order(tmp_path):
    bad = dict(CFG_ACTION_D3)
    bad["group"] = {"kind": "cyclic", "order": 2,
                    "chi": [{"zeta": 1}, {"zeta": 2}]}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_runs_deterministic(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_ACTION_D3)
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["bracket", "--config", path,
                                    "--max-degree", "3", "--format", "json"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_scalar_json_exact(A2):
    s = A2.uni.one - A2.uni.param_unit(0) ** -2
    rec = scalar_json(s)
    assert rec == [
        {"formal_exponents": [-2], "zeta_power_terms": [["-1", "1"]]},
        {"formal_exponents": [0], "zeta_power_terms": [["1", "1"]]},
    ]


# ---------------------------------------------------------------------------
# output: the JSON writer, the coefficient memo and a real stdout
# ---------------------------------------------------------------------------

# str with non-ASCII text, quotes, backslashes and control characters
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t'),
                              st.characters()), max_size=6)
JSON_TREES = st.recursive(
    st.one_of(st.integers(), st.integers(min_value=2 ** 64),
              st.integers(max_value=-2 ** 64), JSON_TEXT),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(JSON_TEXT, kids, max_size=4)),
    max_leaves=20)


def written(obj):
    out = io.StringIO()
    write_json(obj, out.write)
    return out.getvalue()


@given(obj=JSON_TREES)
@settings(max_examples=300, deadline=None)
def test_write_json_matches_json_dumps(obj):
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    1.5, None, True, [0, False], {"a": {"b": [None]}}, {"a": [1, 2.0]},
    {1: "one"}, (1, 2),
], ids=["float", "none", "bool", "nested-bool", "nested-none",
        "nested-float", "int-key", "tuple"])
def test_write_json_rejects_other_types(obj):
    with pytest.raises(TypeError):
        written(obj)


# Cochains to write: two algebras, one with a single formal parameter over
# Q and one with two formal parameters over Q(zeta_6) and a group of order 2.
RENDER_ALGEBRAS = (
    build_algebra(2, N=1),
    build_algebra(3, N=6, q_spec={(0, 1): ("zeta", 1)},
                  group_spec=("cyclic", 2, [(-1, 0), (1, 0), (1, 3)])),
)


@st.composite
def scalars(draw, uni):
    """A Laurent polynomial of up to three terms, with negative exponents
    and rational, often non-unit, cyclotomic coordinates."""
    s = uni.zero
    for _ in range(draw(st.integers(1, 3))):
        coords = draw(st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=9),
            min_size=uni.field.degree, max_size=uni.field.degree))
        exps = draw(st.tuples(*[st.integers(-3, 3)] * uni.nparams))
        s = s + uni.monomial(uni.field.element(coords), exps)
    return s


@st.composite
def cochains(draw, A, pool):
    """A cochain of degree at most 3 whose coefficients come from pool, so
    that terms and cochains share coefficients."""
    m = draw(st.integers(0, 3))
    keys = draw(st.lists(st.sampled_from(full_basis(A, m)), max_size=4,
                         unique=True))
    return qhoch.resolution.Cochain(
        A, m, {key: draw(st.sampled_from(pool)) for key in keys})


@st.composite
def cochain_pools(draw):
    A = draw(st.sampled_from(RENDER_ALGEBRAS))
    return A, draw(st.lists(scalars(A.uni).filter(lambda s: not s.is_zero()),
                            min_size=1, max_size=3))


@st.composite
def cochain_trees(draw):
    """A JSON tree with random cochains of one algebra at several depths."""
    A, pool = draw(cochain_pools())
    return draw(st.recursive(
        st.one_of(cochains(A, pool), st.integers(), JSON_TEXT),
        lambda kids: st.one_of(st.lists(kids, max_size=3),
                               st.dictionaries(JSON_TEXT, kids, max_size=3)),
        max_leaves=8))


def reference_records(c):
    """The term records of a cochain, built whole, one dict per term."""
    out = []
    for key in c.sorted_keys():
        s = c.terms[key]
        alpha, beta, g = key
        out.append({"alpha": list(alpha), "beta": list(beta), "g": g,
                    "coefficient": scalar_json(s),
                    "coefficient_str": scalar_str(s)})
    return out


def with_records(obj):
    """obj with each cochain replaced by its reference records."""
    if isinstance(obj, qhoch.resolution.Cochain):
        return reference_records(obj)
    if isinstance(obj, list):
        return [with_records(value) for value in obj]
    if isinstance(obj, dict):
        return {key: with_records(value) for key, value in obj.items()}
    return obj


def reference_terms_text(terms):
    """One text line for the reference records of a cochain."""
    return " + ".join(
        f"({t['coefficient_str']})*"
        f"(x^{tuple(t['alpha'])}(x)g{t['g']})e{tuple(t['beta'])}^*"
        for t in terms)


@given(obj=cochain_trees())
@settings(max_examples=200, deadline=None)
def test_write_json_writes_cochains_as_their_records(obj):
    assert written(obj) == json.dumps(with_records(obj), indent=2,
                                      sort_keys=True)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_render_text_writes_cochains_as_their_records(data):
    A, pool = data.draw(cochain_pools())
    terms = data.draw(st.lists(cochains(A, pool), min_size=1, max_size=4))
    for command in ("basis", "bracket"):
        if command == "basis":
            result = {"command": command, "classes": [
                {"id": f"c{i}", "degree": c.degree, "terms": c}
                for i, c in enumerate(terms)]}
            expected = "id\tdegree\tterms\n" + "".join(
                f"c{i}\t{c.degree}\t"
                f"{reference_terms_text(reference_records(c))}\n"
                for i, c in enumerate(terms))
        else:
            result = {"command": command, "table": [
                {"left": f"a{i}", "right": f"b{i}", "degree": c.degree,
                 "terms": c} for i, c in enumerate(terms)]}
            expected = "left\tright\tdegree\tresult\n" + "".join(
                f"a{i}\tb{i}\t{c.degree}\t"
                f"{reference_terms_text(reference_records(c))}\n"
                for i, c in enumerate(terms))
        out = io.StringIO()
        qhoch.cli.render_text(result, out.write)
        assert out.getvalue() == expected


def test_one_coefficient_memo_per_command(monkeypatch):
    """Every cochain a command writes goes through one memo, which starts
    empty for each command; scalar_json is called once per distinct
    coefficient, and a cochain written through the shared memo reads as
    through a fresh one."""
    A, _, _ = parse_config(CFG_ACTION_D3)
    real, real_scalar_json = qhoch.cli.cochain_json, qhoch.cli.scalar_json
    calls = []  # (memo, its size before the call, cochain, nl, text)
    rendered = []

    def spy(c, memo, nl):
        size = len(memo)
        out = real(c, memo, nl)
        calls.append((memo, size, c, nl, out))
        return out

    def counting(s):
        rendered.append(s)
        return real_scalar_json(s)
    monkeypatch.setattr(qhoch.cli, "cochain_json", spy)
    monkeypatch.setattr(qhoch.cli, "scalar_json", counting)
    used = []
    for _ in range(2):
        calls.clear()
        rendered.clear()
        result = qhoch.cli.cmd_products(A, 4, "bracket")
        written(result)
        # in the order written: "classes" sorts before "table"
        cochains = [rec["terms"] for rec in result["classes"]
                    + result["table"]]
        assert [c for _, _, c, _, _ in calls] == cochains
        memo = calls[0][0]
        assert calls[0][1] == 0 and all(m is memo for m, *_ in calls)
        distinct = {s for c in cochains for s in c.terms.values()}
        assert len(rendered) == len(set(rendered)) == len(distinct)
        used.append(memo)
    assert used[0] is not used[1]
    # the memo is hit: fewer distinct coefficients than terms
    assert 0 < len(distinct) < sum(len(c.terms) for c in cochains)
    assert all(out == real(c, {}, nl) for _, _, c, nl, out in calls)


ROOT = Path(__file__).resolve().parent.parent
BENCH_CONFIG = str(ROOT / "perfbench" / "configs" / "bracket-table.json")


def qhoch_module(argv, **kwargs):
    """``python -m qhoch.cli`` on src/, with the default block-buffered
    stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "qhoch.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


def test_real_stdout_bytes_match_the_benchmark_golden():
    """The bytes written to a real pipe are the ones the benchmark pins
    (captured there in memory)."""
    golden = json.loads(
        (ROOT / "perfbench" / "golden" / "bracket-table.json").read_text())
    with qhoch_module(["bracket", "--config", BENCH_CONFIG, "--format",
                       "json"], stdout=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert hashlib.sha256(out).hexdigest() == golden["10"]["sha256"]


def reader_stops_after_one_byte():
    """`qhoch bracket ... | head -c 1`: the 1.2 MB table is larger than a
    pipe buffer, so a write fails every time."""
    with qhoch_module(["bracket", "--config", BENCH_CONFIG, "--format",
                       "json"], stdout=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    return proc.returncode, err


def reader_gone_before_start():
    """`dims` into a pipe with no reader: its few lines fit the buffer, so
    the final flush is the write that fails."""
    read, write = os.pipe()
    os.close(read)
    try:
        with qhoch_module(["dims", "--config", BENCH_CONFIG, "--format",
                           "json"], stdout=write) as proc:
            _, err = proc.communicate(timeout=120)
    finally:
        os.close(write)
    return proc.returncode, err


@pytest.mark.parametrize("closed_pipe", [reader_stops_after_one_byte,
                                         reader_gone_before_start],
                         ids=["stops-early", "gone"])
def test_closed_pipe_exits_three_without_traceback(closed_pipe):
    """Output that cannot be written is exit 3 with one stderr line: no
    traceback, and no second error from the interpreter's flush at exit."""
    code, err = closed_pipe()
    err = err.decode()
    assert code == 3, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "output error: [Errno 32] Broken pipe\n"


def test_cold_import_leaves_out_dataclasses():
    """``import qhoch, qhoch.cli`` in a fresh isolated interpreter does not
    load `dataclasses`, which imports inspect, ast and dis and about
    doubles the start-up time of every command."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import qhoch, qhoch.cli; print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-c", code,
                           str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_console_script_and_module_exit_codes(tmp_path):
    """The pyproject entry point is ``qhoch.cli.main``, and ``python -m
    qhoch.cli`` exits with its return value through ``sys.exit(main())``."""
    root = Path(__file__).resolve().parent.parent
    module, func = re.search(r'^qhoch = "([\w.]+):(\w+)"$',
                             (root / "pyproject.toml").read_text(),
                             re.M).groups()
    assert getattr(importlib.import_module(module), func) is main
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def qhoch(*argv):
        return subprocess.run([sys.executable, "-m", "qhoch.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    ok = qhoch("verify", "--config", write_cfg(tmp_path, CFG_ACTION_D3),
               "--max-degree", "2")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.count("PASS") == 6 and "FAIL" not in ok.stdout
    bad = qhoch("verify", "--config", str(tmp_path / "missing.json"))
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("config error: cannot read config")


def test_readme_library_example_runs():
    """The README's ``python`` block runs as written against src/."""
    root = Path(__file__).resolve().parent.parent
    block, = re.findall(r"^```python\n(.*?)^```$",
                        (root / "README.md").read_text(), re.M | re.S)
    proc = subprocess.run([sys.executable, "-c", block],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the config front end on random JSON trees shaped like configs
# ---------------------------------------------------------------------------

JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=4), kids,
                                           max_size=3)),
    max_leaves=6)


# huge, negative or junk values for any field
BAD = st.one_of(st.integers(min_value=1001), st.integers(max_value=-1), JUNK)


def spoil(draw, record):
    """Remove up to two fields of record or replace them with BAD values;
    often none, so that most examples reach the later checks."""
    keys = draw(st.lists(st.sampled_from(sorted(record)), max_size=2,
                         unique=True))
    for key in keys:
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(BAD)
    return record


@st.composite
def characters(draw):
    return spoil(draw, {"sign": draw(st.sampled_from((1, -1))),
                        "zeta": draw(st.integers(-3, 12))})


@st.composite
def q_entries(draw, n):
    i = draw(st.integers(1, n))
    entry = {"i": i, "j": draw(st.integers(i, n + 1)),
             "kind": draw(st.sampled_from(("formal", "zeta", "rational"))),
             "name": draw(st.sampled_from(("q", "q12", "q13", "x"))),
             "power": draw(st.integers(-5, 5)),
             "value": draw(st.sampled_from((1, -1, 2)))}
    return spoil(draw, entry)


@st.composite
def groups(draw, n):
    order = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("trivial", "cyclic", "table")))
    if kind == "table":
        # the cyclic group's table, or a random square of indices
        mult = draw(st.one_of(
            st.just([[(a + b) % order for b in range(order)]
                     for a in range(order)]),
            st.lists(st.lists(st.integers(0, order - 1), min_size=order,
                              max_size=order), min_size=order,
                     max_size=order)))
        group = {"kind": kind, "mult": mult,
                 "chi": [[draw(characters()) for _ in range(n)]
                         for _ in range(order)]}
    else:
        group = {"kind": kind, "order": order,
                 "chi": [draw(characters()) for _ in range(n)]}
    return spoil(draw, group)


@st.composite
def configs(draw):
    """A JSON tree shaped like a config: small fields of the right kinds,
    then some fields removed or spoilt at every level; one in ten is junk
    from the root."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    n = draw(st.integers(1, 3))
    config = {"n": n, "N": draw(st.sampled_from((1, 2, 3, 4, 6, 12))),
              "q": draw(st.lists(q_entries(n), max_size=3)),
              "group": draw(groups(n)),
              "max_degree": draw(st.integers(0, 3)),
              "seeds": draw(st.lists(st.integers(), min_size=1, max_size=3))}
    return spoil(draw, config)


CONFIGS = configs()


@given(raw=CONFIGS)
@settings(max_examples=200, deadline=None)
def test_parse_config_returns_or_raises_config_error(raw):
    try:
        parse_config(raw)
    except ConfigError:
        pass


@given(raw=CONFIGS)
@settings(max_examples=100, deadline=None)
def test_main_on_random_config_exits_cleanly(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["dims", "--config", path, "--max-degree", "1"])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
