"""The benchmark's four workloads.

Each workload is a checked-in config under ``configs/`` plus the work one
iteration does on the ``Algebra`` that ``qhoch.cli.load_config`` builds from
it.  The work returns a *record*, which the run compares with the golden
reference under ``golden/`` (keyed by the config's degree bound), and the
number of checks the work itself attempted and saw fail.

This module must not import ``qhoch`` at load time: the traced run installs
its wrappers after the import, and every call here looks the function up
through its module when it runs, so the wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
GOLDEN = HERE / "golden"

# The seeded rank oracle substitutes num/den, both drawn from 2..97, for the
# formal parameter.  Seed 63 draws num == den, so q13 becomes 1; at that
# non-generic point the oracle reports a dimension mismatch in degree 2 that
# is not there for generic q13.  This is the oracle's known weakness (it is
# probabilistic), not a property of the timing, so the benchmark never draws
# this seed; test_perfbench keeps the mismatch visible.
NON_GENERIC_ORACLE_SEEDS = (63,)
ORACLE_SEED_COUNT = 3


def oracle_seeds(seed):
    """The rank-oracle ``seeds`` for one run, drawn from 2..97."""
    pool = [s for s in range(2, 98) if s not in NON_GENERIC_ORACLE_SEEDS]
    return sorted(random.Random(seed).sample(pool, ORACLE_SEED_COUNT))


def run_config(name, seed, degree=None):
    """The config one run hands to the program: the checked-in config, with
    the rank-oracle seeds drawn from the workload seed where the workload
    uses them, and the degree bound overridden when ``degree`` is given."""
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    if name == "rank-oracle-dense":
        config["seeds"] = oracle_seeds(seed)
    if degree is not None:
        config["max_degree"] = degree
    return config


def golden_failures(name, degree, record):
    """1 if the record differs from the golden record of the workload at
    this degree bound, else 0."""
    table = json.loads((GOLDEN / f"{name}.json").read_text())
    return 0 if record == table[str(degree)] else 1


# ---------------------------------------------------------------------------
# the work of one iteration: (A, max_degree, config_path, seed) ->
# (record, checks attempted, checks failed, bytes the CLI wrote)
# ---------------------------------------------------------------------------

def oracle_sweep(A, max_degree, config_path, seed):
    """cup == cup_oracle and circ == circ_oracle on every ordered pair of
    basis cochains of total degree <= max_degree, in seed-shuffled order."""
    import qhoch
    from qhoch.resolution import compositions
    keys = {m: [(alpha, beta, g) for beta in compositions(A.n, m)
                for alpha in product((0, 1), repeat=A.n)
                for g in range(A.group.order)]
            for m in range(max_degree + 1)}
    pairs = [(k1, k2) for m in range(max_degree + 1)
             for l in range(max_degree + 1 - m)
             for k1 in keys[m] for k2 in keys[l]]
    random.Random(seed).shuffle(pairs)
    mismatches = 0
    for k1, k2 in pairs:
        c1 = qhoch.Cochain.basis(A, *k1)
        c2 = qhoch.Cochain.basis(A, *k2)
        if not qhoch.cup(A, c1, c2) == qhoch.cup_oracle(A, c1, c2):
            mismatches += 1
        if not qhoch.circ(A, c1, c2) == qhoch.circ_oracle(A, c1, c2):
            mismatches += 1
    record = {"pairs": len(pairs), "mismatches": mismatches}
    return record, 2 * len(pairs), mismatches, 0


def axioms(A, max_degree, config_path, seed):
    """The graded-algebra axiom suite on the invariant classes."""
    import qhoch
    failures = qhoch.axiom_suite(A, max_degree)
    return {"failures": failures}, 1, 1 if failures else 0, 0


def _cli(argv):
    """Run ``qhoch.cli.main`` with stdout captured; returns (exit code,
    output bytes)."""
    import qhoch.cli
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = qhoch.cli.main(argv)
    return code, sink.getvalue().encode()


def dims_verify(A, max_degree, config_path, seed):
    """``qhoch dims --verify --format json``; exit code 1 is a dims
    disagreement between the closed form and the rank oracle."""
    code, out = _cli(["dims", "--config", config_path, "--verify",
                      "--format", "json"])
    record = {"exit": code, "stdout": out.decode()}
    return record, 1, 0 if code == 0 else 1, len(out)


def bracket_table(A, max_degree, config_path, seed):
    """``qhoch bracket --format json``; the golden pins the output by its
    sha256."""
    code, out = _cli(["bracket", "--config", config_path, "--format", "json"])
    record = {"exit": code, "bytes": len(out),
              "sha256": hashlib.sha256(out).hexdigest()}
    return record, 1, 0 if code == 0 else 1, len(out)


WORK = {
    "oracle-sweep": oracle_sweep,
    "axioms-commutative": axioms,
    "rank-oracle-dense": dims_verify,
    "bracket-table": bracket_table,
}
