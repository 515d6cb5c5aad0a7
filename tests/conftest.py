import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qhoch import (build_algebra, formal_algebra,
                   quantum_coefficient_action_algebra)
from qhoch.cli import load_config


# Names of the session algebra fixtures below, for tests that run on each.
SESSION_ALGEBRAS = ("A2", "A3", "A2_Z3", "Ad3", "Ad4", "A_comm", "A_ext")


@pytest.fixture(scope="session")
def A2():
    """Two generators, one formal quantum parameter, trivial group."""
    return formal_algebra(2)


@pytest.fixture(scope="session")
def A3():
    """Three generators, three formal parameters, trivial group."""
    return formal_algebra(3)


@pytest.fixture(scope="session")
def A2_Z3():
    """Two generators, formal parameter, cyclic order-3 group acting
    trivially (chi = 1)."""
    return formal_algebra(2, group_spec=("cyclic", 3, [(1, 0), (1, 0)]))


@pytest.fixture(scope="session")
def Ad3():
    """q = zeta_3 with the cyclic order-3 group acting by the quantum
    coefficient."""
    return quantum_coefficient_action_algebra(3)


@pytest.fixture(scope="session")
def Ad4():
    return quantum_coefficient_action_algebra(4)


@pytest.fixture(scope="session")
def A_comm():
    """q = -1: the commutative truncated polynomial case, trivial group."""
    return build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)})


@pytest.fixture(scope="session")
def A_ext():
    """q = 1: the exterior-algebra case, trivial group."""
    return build_algebra(2, N=1, q_spec={(0, 1): ("rational", 1)})


def readme_algebra():
    """The README's example config, `perfbench/configs/bracket-table.json`,
    read through the CLI: q = zeta_3, C3 acting by the two cube roots."""
    path = (Path(__file__).resolve().parent.parent / "perfbench" / "configs"
            / "bracket-table.json")
    return load_config(str(path))[0]


@pytest.fixture(scope="session")
def readme():
    """The session copy of `readme_algebra`."""
    return readme_algebra()


@pytest.fixture(scope="session")
def rank_oracle_dense():
    """The benchmark config `perfbench/configs/rank-oracle-dense.json` read
    through the CLI: N = 60, q13 formal, C6 acting by zeta^10, zeta^50 and
    -1."""
    path = (Path(__file__).resolve().parent.parent / "perfbench" / "configs"
            / "rank-oracle-dense.json")
    return load_config(str(path))[0]


# S3 as permutations of (0, 1, 2), the identity first, and its
# multiplication table: S3_MULT[a][b] is the index of S3_PERMS[a] composed
# after S3_PERMS[b].
S3_PERMS = sorted(permutations(range(3)), key=lambda p: (p != (0, 1, 2), p))
S3_MULT = [[S3_PERMS.index(tuple(p[r[i]] for i in range(3)))
            for r in S3_PERMS] for p in S3_PERMS]


def perm_sign(p):
    """The sign of a permutation, +1 or -1."""
    inversions = sum(p[i] > p[j] for i in range(len(p))
                     for j in range(i + 1, len(p)))
    return -1 if inversions % 2 else 1


def s3_algebra():
    """q = -1 with the table group S3 acting by the sign character on both
    generators: nonabelian, so conjugation moves the group parts."""
    return build_algebra(2, N=2, q_spec={(0, 1): ("rational", -1)},
                         group_spec=("table", S3_MULT,
                                     [[(perm_sign(p), 0)] * 2
                                      for p in S3_PERMS]))


@pytest.fixture(scope="session")
def S3():
    """The session copy of `s3_algebra`."""
    return s3_algebra()


def random_cyclo(field, rng, height=9):
    return field.element([Fraction(rng.randint(-height, height),
                                   rng.randint(1, height))
                          for _ in range(field.degree)])


def random_scalar(uni, rng, terms=3, span=2, height=7):
    s = uni.zero
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(uni.nparams))
        s = s + uni.monomial(random_cyclo(uni.field, rng, height), exps)
    return s
