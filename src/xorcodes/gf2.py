"""Bit-packed binary matrix arithmetic over GF(2).

The :class:`BinaryMatrix` value type holds only a frozen dense 0/1 array.
:func:`pack_columns` builds, on demand, the column-major bit-packed layout
(one bit per row) that the batch rank kernel reads, and alone chooses its
word: the narrowest unsigned word that holds the rows, else uint64 limbs.
Single-matrix rank runs Gaussian elimination on rows packed into Python
integers, so row XOR is word-wide regardless of width.  The batch kernel
:func:`rank_batch` copies each block of collections to a (limbs, columns,
collections) array in the word it is handed and, from the top limb down,
clears the highest leading bit of every collection at once: the column
with the largest top limb is the pivot, and each step is a handful of
numpy reductions across contiguous rows.
:func:`parity_check` gives a basis of the null space, whose columns
decide the rank of a high-rate code's column sets by duality.  It
reduces rows packed into uint64 words one byte of columns at a time: a
table of every XOR combination of the byte's pivot rows clears that byte
of all rows by one lookup each (the method of Four Russians).
All operations are pure; matrices are immutable once built.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "BinaryMatrix",
    "rank",
    "is_nonsingular",
    "parity_check",
    "select_columns",
    "random_matrix",
    "pack_columns",
    "rank_batch",
    "parse_matrix",
    "format_matrix",
]

# Bytes of collections rank_batch eliminates at a time, in the word it is handed:
# big enough to amortise the per-step numpy calls, small enough for cache.
_BLOCK_BYTES = 1 << 18


class BinaryMatrix:
    """Immutable k x n matrix with entries in {0, 1}.

    Construct from any 2-d array-like of 0/1 values.  The underlying array
    is copied and frozen; mutating views are never handed out.
    """

    __slots__ = ("_a",)

    def __init__(self, array):
        x = np.asarray(array)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-d array, got {x.ndim}-d")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError(f"matrix must have at least one row and column, got {x.shape}")
        if not ((x == 0) | (x == 1)).all():
            raise ValueError("matrix entries must be 0 or 1")
        a = x.astype(np.uint8)
        a.flags.writeable = False
        self._a = a

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BinaryMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of the entries."""
        return self._a

    def to_array(self) -> np.ndarray:
        """Writable copy of the entries."""
        return self._a.copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self.shape == other.shape and bool((self._a == other._a).all())

    def __hash__(self):
        return hash((self.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


def pack_columns(a: np.ndarray) -> np.ndarray:
    """Pack a (k, n) 0/1 array into (n, ceil(k/64)) column limbs, bit j of limb j // 64 = row j.

    One limb is the narrowest unsigned word that holds k bits; several limbs are uint64.
    ``np.packbits`` packs each column's rows little-endian into bytes, zero-padded to whole
    words, which read as little-endian words are the limbs.
    """
    k, n = a.shape
    word = np.min_scalar_type((1 << min(k, 64)) - 1)
    out = np.zeros((n, -(-k // 64) * word.itemsize), dtype=np.uint8)
    out[:, :-(-k // 8)] = np.packbits(a, axis=0, bitorder="little").T
    return out.view(word.newbyteorder("<")).astype(word, copy=False)


def rank(M: BinaryMatrix) -> int:
    """GF(2) rank via Gaussian elimination on rows packed into Python ints.

    Bit j of a row's integer holds column j.  The pivot is always the
    lowest-index nonzero column of the row being reduced, so the
    elimination order is deterministic.
    """
    weights = 1 << np.arange(M.cols, dtype=object)
    pivots: dict[int, int] = {}
    r = 0
    for row in M.array.astype(object) @ weights:
        while row:
            col = (row & -row).bit_length() - 1
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                r += 1
                break
            row ^= piv
    return r


def is_nonsingular(M: BinaryMatrix) -> bool:
    """True iff a square matrix has full rank over GF(2)."""
    if M.rows != M.cols:
        raise ValueError(f"not square: {M.rows}x{M.cols}")
    return rank(M) == M.rows


# _GRAY_FLIPS[j - 1] is the lowest set bit of j: flipping bit _GRAY_FLIPS[j - 1] of a mask
# for j = 1 .. 2^t - 1 visits every nonzero mask of t <= 8 bits once (a Gray code).
_GRAY_FLIPS = np.array([(j & -j).bit_length() - 1 for j in range(1, 256)])


def parity_check(M: BinaryMatrix) -> BinaryMatrix:
    """Parity-check matrix: n - rank(M) independent rows spanning M's null space.

    Every row h satisfies M h = 0 over GF(2), so M Hᵀ = 0.  H is read off
    the reduced row echelon form of M: free column f gives the row with
    h[f] = 1 and h[pivots[i]] = a[i, f], so it is one fixed matrix however
    the form is reached.  Rows are bit-packed (bit c % 8 of byte c // 8 is
    column c) into uint64 words and reduced one byte of columns at a time,
    as in the method of Four Russians: up to 8 rows whose byte values are
    independent give the byte's pivots, every XOR combination of them is
    tabulated by the bits it holds at those pivots, and one table lookup
    per row clears the pivot bits of every row at once.  Raises
    ValueError when M has full column rank, whose null space is {0}.
    """
    k, n = M.shape
    width = -(-n // 8)
    packed = np.zeros((k, 8 * -(-n // 64)), dtype=np.uint8)
    packed[:, :width] = np.packbits(M.array, axis=1, bitorder="little")
    rest = packed.view(np.uint64)  # rows not yet reduced to a pivot row
    reduced = np.zeros_like(rest)  # pivot rows, in reduced echelon form
    pivots: list[int] = []
    for b in range(width):
        r = len(pivots)
        if r == k:
            break
        lead: dict[int, int] = {}  # lowest set bit -> a reduced byte value with that bit lowest
        rows = []
        for i, v in enumerate(packed[:, b].tolist()):
            while v:
                low = v & -v
                if low not in lead:
                    lead[low] = v
                    rows.append(i)
                    break
                v ^= lead[low]
            if len(rows) == 8:
                break
        if not rows:
            continue
        # every nonzero XOR combination of the chosen rows, in Gray-code order
        combos = np.bitwise_xor.accumulate(rest[np.array(rows)[_GRAY_FLIPS[:(1 << len(rows)) - 1]]])
        mask = sum(lead)
        table = np.zeros((mask + 1, rest.shape[1]), dtype=np.uint64)
        table[combos.view(np.uint8)[:, b] & mask] = combos
        rest ^= table[packed[:, b] & mask]
        reduced[:r] ^= table[reduced.view(np.uint8)[:r, b] & mask]
        reduced[r:r + len(lead)] = table[list(lead)]
        pivots += [8 * b + low.bit_length() - 1 for low in lead]
    # a mask, not np.setdiff1d, whose np.unique imports numpy.ma: a slow first import
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    if not free.size:
        raise ValueError(f"a {k}x{n} matrix of full column rank has no parity-check matrix")
    a = np.unpackbits(reduced[:len(pivots)].view(np.uint8), axis=1, count=n, bitorder="little")
    H = np.zeros((free.size, n), dtype=np.uint8)
    H[:, free] = np.eye(free.size, dtype=np.uint8)
    H[:, pivots] = a[:, free].T
    return BinaryMatrix(H)


def select_columns(M: BinaryMatrix, indices: Sequence[int]) -> BinaryMatrix:
    """Copy the chosen columns, in order, into a new matrix.

    Indices must be strictly increasing and within range; duplicates or
    out-of-range values raise ValueError.
    """
    idx = list(indices)
    if not idx:
        raise ValueError("at least one column index required")
    prev = -1
    for i in idx:
        if not 0 <= i < M.cols:
            raise ValueError(f"column index {i} out of range for {M.cols} columns")
        if i <= prev:
            raise ValueError(f"column indices must be strictly increasing, got {i} after {prev}")
        prev = i
    return BinaryMatrix(M.array[:, idx])


def random_matrix(rows: int, cols: int, rng) -> BinaryMatrix:
    """Matrix with independent uniform bits; deterministic for a fixed seed.

    ``rng`` is anything ``numpy.random.default_rng`` accepts (an int seed
    or an existing Generator).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
    gen = np.random.default_rng(rng)
    return BinaryMatrix(gen.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def rank_batch(colsets: np.ndarray, k: int) -> np.ndarray:
    """Ranks of many column collections at once.

    ``colsets`` has shape (N, m, limbs): N independent collections of m
    bit-packed columns over a k-row space (limbs = ceil(k/64), bit j of
    limb j // 64 = row j).  A single limb may be any unsigned word that
    holds k bits, such as the narrowest one :func:`pack_columns` chooses;
    several limbs are uint64.  Any strided view is accepted.
    Bits at rows k and above must be zero, as :func:`pack_columns` leaves
    them; they are not checked.  Zero columns are ignored, so collections
    of different sizes can share one padded array; an empty collection has
    rank 0.  Raises ValueError when k rows do not fit in the limbs.

    Collections are eliminated one block of ``_BLOCK_BYTES // (m limbs itemsize)``
    at a time.  Each block is copied to a C-ordered (limbs, m, sets)
    array in the word it was handed.  One collection's columns run down a
    row of contiguous set slots and every reduction is across rows.  Limbs
    are eliminated from the top one down.  Each step takes every
    collection's largest value p of the current limb: its leading bit is
    the highest one left, and its column is the pivot.  Every column
    holding that bit (``c ^ p < c``) is XORed with the pivot, lower limbs
    included, which retires the pivot and clears the bit; the step adds 1
    to the rank of each collection whose p is nonzero.  A limb of b bits
    is clear after min(m, b) steps.
    Returns an (N,) int64 rank vector.
    """
    if colsets.ndim != 3:
        raise ValueError(f"expected (N, m, limbs) array, got shape {colsets.shape}")
    N, m, limbs = colsets.shape
    if k > 64 * limbs:
        raise ValueError(f"k = {k} rows need {(k + 63) // 64} limbs of 64 bits, got limbs = {limbs}")
    if colsets.dtype.kind != "u" or (limbs > 1 and colsets.dtype != np.uint64):
        raise ValueError(f"columns must be one unsigned word or uint64 limbs, got "
                         f"{limbs} limbs of {colsets.dtype}")
    ranks = np.zeros(N, dtype=np.int64)
    if not colsets.size:
        return ranks
    step = max(1, _BLOCK_BYTES // (m * limbs * colsets.itemsize))
    for start in range(0, N, step):
        # astype always copies, so the in-place XORs never reach the caller
        A = colsets[start:start + step].transpose(2, 1, 0).astype(colsets.dtype, order="C")
        block_ranks = ranks[start:start + step]
        for limb in range(limbs - 1, -1, -1):
            top = A[limb]
            for _ in range(min(m, 64, k - 64 * limb)):
                p = top.max(axis=0)
                flip = top ^ p
                if limb:
                    pivot = np.take_along_axis(A[:limb], top.argmax(axis=0)[None, None], axis=1)
                    A[:limb] ^= (flip < top) * pivot
                np.minimum(top, flip, out=top)
                block_ranks += p != 0
    return ranks


def format_matrix(M: BinaryMatrix) -> str:
    """Render the text format: header "k n", then k rows of 0/1 characters."""
    lines = [f"{M.rows} {M.cols}"]
    for row in M.array:
        lines.append("".join("1" if b else "0" for b in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the text format strictly; errors name the offending line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("line 1: empty input, expected header 'k n'")
    head = lines[0].split(" ")
    if len(head) != 2 or not all(t.isascii() and t.isdigit() for t in head):
        raise ValueError(f"line 1: expected header 'k n', got {lines[0]!r}")
    k, n = int(head[0]), int(head[1])
    if k < 1 or n < 1:
        raise ValueError(f"line 1: dimensions must be positive, got {k} {n}")
    if len(lines) - 1 > k:
        raise ValueError(f"line {k + 2}: unexpected trailing content")
    if len(lines) - 1 < k:
        raise ValueError(f"line {len(lines) + 1}: expected {k} rows, found {len(lines) - 1}")
    for i, line in enumerate(lines[1:]):
        if len(line) != n or line.strip("01"):
            raise ValueError(f"line {i + 2}: expected exactly {n} characters from {{0,1}}, got {line!r}")
    body = "".join(lines[1:]).encode("ascii")
    return BinaryMatrix(np.frombuffer(body, dtype=np.uint8).reshape(k, n) - ord("0"))
