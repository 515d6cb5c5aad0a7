"""Sparse vectors and sparse exact Gaussian elimination over a field.

Every formal sum in the package (cochains, skew group algebra elements,
one- and two-tensor elements of the resolution) is a map key -> coefficient
that never stores a zero coefficient; `SparseVector` holds the arithmetic
they share and `accumulate` is the one place a term is added into such a
map.  Elimination rows are plain dicts of the same shape: column key ->
element, where elements need +, -, *, is_zero and inv (both the cyclotomic
field elements and the scalar quotients qualify).  The matrices here are
tiny but extremely sparse (the differential has at most n nonzero entries
per row), so elimination keeps rows as dicts.
"""

from __future__ import annotations


def accumulate(terms, key, value):
    """terms[key] += value, dropping the key when the sum vanishes."""
    old = terms.get(key)
    if old is not None:
        value = old + value
    if value.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = value


class SparseVector:
    """Formal sum over an algebra: a map key -> nonzero coefficient.

    Subclasses fix what the keys mean; `_like` builds a result of the same
    kind from new terms.  Elements of different classes never compare
    equal, even when their terms do.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms=None):
        self.alg = alg
        self.terms = {} if terms is None else terms

    def _like(self, terms):
        return self.__class__(self.alg, terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, -c)
        return self._like(out)

    def scale(self, c):
        out = {}
        for k, s in self.terms.items():
            v = s * c
            if not v.is_zero():
                out[k] = v
        return self._like(out)


class RowReducer:
    """Incremental row-echelon accumulator; deterministic pivot choice
    (smallest column key)."""

    def __init__(self):
        self.pivots = {}  # column key -> reduced row with 1 in that column

    def reduce(self, row):
        """Reduce a row against the current echelon; returns the residue."""
        row = dict(row)
        while row:
            col = min(row)
            piv = self.pivots.get(col)
            if piv is None:
                return row, col
            c = -row.pop(col)
            for k, v in piv.items():
                if k != col:
                    accumulate(row, k, c * v)
        return row, None

    def add(self, row):
        """Insert a row; returns True if it enlarged the span."""
        residue, col = self.reduce(row)
        if col is None:
            return False
        lead = residue[col]
        inv = lead.inv()
        self.pivots[col] = {k: v * inv for k, v in residue.items()}
        return True

    def contains(self, row):
        residue, col = self.reduce(row)
        return col is None

    @property
    def rank(self):
        return len(self.pivots)


def in_span(rows, target):
    red = RowReducer()
    for row in rows:
        red.add(row)
    return red.contains(target)

