"""Latin squares and rectangles, and the balanced binary matrices they induce.

A k1 x k Latin rectangle over symbols 1..k yields a k x k incidence matrix
with exactly k1 ones in every row and column.  For odd k1 such matrices are
usually (not always) nonsingular over GF(2), which makes them the seed
material for balanced XOR coding matrices.
"""

from __future__ import annotations

import numpy as np

from .gf2 import BinaryMatrix, is_nonsingular

__all__ = [
    "LatinSquare",
    "LatinRectangle",
    "random_latin_square",
    "top_rectangle",
    "incidence_matrix",
    "random_nonsingular_rectangle",
    "random_balanced_nonsingular",
]


class LatinRectangle:
    """k1 x k array over symbols 1..k: each symbol once per row, at most once per column."""

    __slots__ = ("_cells",)

    def __init__(self, cells):
        c = np.asarray(cells, dtype=np.int64)
        if c.ndim != 2:
            raise ValueError("cells must be 2-d")
        k1, k = c.shape
        if not 1 <= k1 <= k:
            raise ValueError(f"need 1 <= height <= width, got {k1}x{k}")
        full = frozenset(range(1, k + 1))
        for i in range(k1):
            if frozenset(c[i].tolist()) != full:
                raise ValueError(f"row {i + 1} is not a permutation of 1..{k}")
        for j in range(k):
            col = c[:, j].tolist()
            if len(set(col)) != len(col):
                raise ValueError(f"column {j + 1} repeats a symbol")
        c = c.copy()
        c.flags.writeable = False
        self._cells = c

    @property
    def height(self) -> int:
        return self._cells.shape[0]

    @property
    def width(self) -> int:
        return self._cells.shape[1]

    @property
    def cells(self) -> np.ndarray:
        return self._cells

    def __eq__(self, other):
        if not isinstance(other, LatinRectangle):
            return NotImplemented
        return self._cells.shape == other._cells.shape and bool((self._cells == other._cells).all())

    def __repr__(self) -> str:
        return f"LatinRectangle({self.height}x{self.width})"


class LatinSquare(LatinRectangle):
    """Latin rectangle of full height: every row and every column is a permutation of 1..k."""

    __slots__ = ()

    def __init__(self, cells):
        c = np.asarray(cells)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("cells must be square")
        super().__init__(c)

    @property
    def order(self) -> int:
        return self.width

    def __repr__(self) -> str:
        return f"LatinSquare(order={self.order})"


_ROW_RETRIES = 500
_BUILD_RETRIES = 50
_MAX_TRIES = 1000


def _random_rows(k: int, n_rows: int, rng) -> np.ndarray:
    """Build n_rows rows of a Latin rectangle by randomized greedy extension.

    Each row is filled column by column with a uniform pick from the symbols
    still legal there; a dead end restarts the row, a row that keeps dead-ending
    restarts the whole build.  An extension row always exists, so this
    terminates with overwhelming probability at any practical size.
    """
    for _ in range(_BUILD_RETRIES):
        rows: list[list[int]] = []
        col_used: list[set[int]] = [set() for _ in range(k)]
        failed = False
        for _r in range(n_rows):
            for _try in range(_ROW_RETRIES):
                remaining = set(range(1, k + 1))
                row: list[int] = []
                for c in range(k):
                    choices = sorted(remaining - col_used[c])
                    if not choices:
                        break
                    pick = choices[rng.integers(len(choices))]
                    row.append(pick)
                    remaining.discard(pick)
                if len(row) == k:
                    break
            else:
                failed = True
                break
            rows.append(row)
            for c, s in enumerate(row):
                col_used[c].add(s)
        if not failed:
            return np.array(rows, dtype=np.int64)
    raise RuntimeError(f"failed to build a {n_rows}x{k} Latin rectangle after {_BUILD_RETRIES} restarts")


def random_latin_square(k: int, rng) -> LatinSquare:
    """Random Latin square of order k; deterministic per seed, validity-only distribution."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    gen = np.random.default_rng(rng)
    return LatinSquare(_random_rows(k, k, gen))


def top_rectangle(L: LatinSquare, k1: int) -> LatinRectangle:
    """First k1 rows of a Latin square, always a valid Latin rectangle."""
    if not 1 <= k1 <= L.order:
        raise ValueError(f"k1 must be in 1..{L.order}, got {k1}")
    return LatinRectangle(L.cells[:k1])


def incidence_matrix(R: LatinRectangle) -> BinaryMatrix:
    """k x k binary matrix: entry (i, j) = 1 iff symbol j+1 occurs in column i+1 of R.

    Every row and column of the result has exactly ``R.height`` ones.
    """
    k = R.width
    M = np.zeros((k, k), dtype=np.uint8)
    cells = R.cells
    for r in range(R.height):
        for c in range(k):
            M[c, cells[r, c] - 1] = 1
    return BinaryMatrix(M)


def random_nonsingular_rectangle(k: int, k1: int, rng) -> LatinRectangle:
    """Random k1 x k Latin rectangle whose incidence matrix is nonsingular over GF(2).

    Odd k1 is required: it is a necessary (not sufficient) condition, so
    rectangles are redrawn until one passes or ``_MAX_TRIES`` are spent.
    """
    if k1 % 2 == 0:
        raise ValueError(f"k1 must be odd, got {k1}")
    if not 1 <= k1 <= k:
        raise ValueError(f"need 1 <= k1 <= k, got k1={k1}, k={k}")
    if k1 == k and k > 1:
        # a full square mentions every symbol in every column: all-ones matrix
        raise ValueError(f"k1 = k = {k} forces the all-ones incidence matrix, which is singular")
    gen = np.random.default_rng(rng)
    for _ in range(_MAX_TRIES):
        R = LatinRectangle(_random_rows(k, k1, gen))
        if is_nonsingular(incidence_matrix(R)):
            return R
    raise RuntimeError(f"no nonsingular incidence matrix found in {_MAX_TRIES} tries (k={k}, k1={k1})")


def random_balanced_nonsingular(k: int, k1: int, rng) -> BinaryMatrix:
    """Nonsingular k x k incidence matrix of a random k1 x k Latin rectangle."""
    return incidence_matrix(random_nonsingular_rectangle(k, k1, rng))
