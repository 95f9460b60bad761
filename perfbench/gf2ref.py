"""Reference GF(2) arithmetic for the benchmark's output checks.

Everything here is written against Python ints and plain numpy, without
importing xorcodes, so that a change to the package cannot bias the oracle
that judges its outputs.  A matrix is a list of rows of 0/1 ints; a column
is an int whose bit i holds row i.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def rank(vectors) -> int:
    """Rank of a collection of bit vectors (Python ints) over GF(2)."""
    pivots: dict[int, int] = {}
    r = 0
    for v in vectors:
        while v:
            low = v & -v
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = v
                r += 1
                break
            v ^= piv
    return r


def columns(rows) -> list[int]:
    n = len(rows[0])
    return [sum(rows[i][j] << i for i in range(len(rows))) for j in range(n)]


def format_matrix(rows) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join(
        "".join(str(b) for b in row) + "\n" for row in rows)


def parse_matrix(lines) -> list[list[int]]:
    """Rows of a matrix given as its text lines: header "k n", then k rows."""
    k, n = (int(t) for t in lines[0].split())
    rows = [[int(c) for c in line] for line in lines[1:1 + k]]
    if len(rows) != k or any(len(r) != n for r in rows):
        raise ValueError(f"malformed {k}x{n} matrix")
    return rows


def random_full_rank(k: int, n: int, rng) -> list[list[int]]:
    while True:
        rows = rng.integers(0, 2, size=(k, n)).tolist()
        if rank(columns(rows)) == k:
            return rows


def balanced_structured(k: int, n: int, k1: int, rng) -> list[list[int]]:
    """Structured high-rate generator: balanced block, all-ones column, random tail.

    The k x k block is the sum of k1 permutation matrices with disjoint
    supports (the rows of a random Latin rectangle), redrawn until it is
    nonsingular, so every row and column of it has weight k1.
    """
    while True:
        used = [set() for _ in range(k)]
        for _ in range(k1):
            while True:
                perm = rng.permutation(k).tolist()
                if all(perm[c] not in used[c] for c in range(k)):
                    break
            for c in range(k):
                used[c].add(perm[c])
        block = [[1 if s in used[c] else 0 for s in range(k)] for c in range(k)]
        if rank(columns(block)) == k:
            break
    tail = rng.integers(0, 2, size=(k, n - k - 1)).tolist()
    return [block[i] + [1] + tail[i] for i in range(k)]


def parity_check_columns(rows) -> list[int]:
    """Columns of a parity-check matrix H (G H^T = 0) of a full-row-rank G.

    H has n - k rows, so column j is an (n - k)-bit int.  By matroid
    duality an m-subset of G's columns has rank k exactly when the
    complementary (n - m)-subset of H's columns is linearly independent.
    """
    k, n = len(rows), len(rows[0])
    red = [sum(b << j for j, b in enumerate(row)) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        bit = 1 << c
        sel = next((i for i in range(r, k) if red[i] & bit), None)
        if sel is None:
            continue
        red[r], red[sel] = red[sel], red[r]
        for i in range(k):
            if i != r and red[i] & bit:
                red[i] ^= red[r]
        pivots.append(c)
        r += 1
    if r != k:
        raise ValueError("generator is not full rank")
    free = [c for c in range(n) if c not in set(pivots)]
    null = []
    for f in free:
        x = 1 << f
        for i, p in enumerate(pivots):
            if red[i] >> f & 1:
                x |= 1 << p
        null.append(x)
    for g in (sum(b << j for j, b in enumerate(row)) for row in rows):
        if any(bin(g & x).count("1") % 2 for x in null):
            raise AssertionError("parity-check rows are not orthogonal to G")
    return [sum((x >> j & 1) << t for t, x in enumerate(null)) for j in range(n)]


def _all_independent(vals: np.ndarray) -> np.ndarray:
    """Row-wise test that the j vectors in each row of vals are independent."""
    N, j = vals.shape
    ok = np.ones(N, dtype=bool)
    for mask in range(1, 1 << j):
        x = np.zeros(N, dtype=np.int64)
        for t in range(j):
            if mask >> t & 1:
                x ^= vals[:, t]
        ok &= x != 0
    return ok


def independent_subsets(hcols, j: int) -> int:
    """Number of j-subsets of hcols that are linearly independent."""
    if j == 0:
        return 1
    n = len(hcols)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), j))
    idx = np.fromiter(flat, dtype=np.int32, count=math.comb(n, j) * j).reshape(-1, j)
    return int(_all_independent(np.asarray(hcols, dtype=np.int64)[idx]).sum())


def sampled_independent(hcols, j: int, samples: int, rng) -> int:
    """Hits among `samples` uniform j-subsets of hcols that are independent."""
    vals = np.asarray(hcols, dtype=np.int64)
    sel = np.argsort(rng.random((samples, len(hcols))), axis=1)[:, :j]
    return int(_all_independent(vals[sel]).sum())


def brute_force_counts(cols, k: int) -> dict[int, int]:
    """Full-rank m-subset counts for every m, by enumerating all 2^n subsets."""
    n = len(cols)
    counts = dict.fromkeys(range(n + 1), 0)
    for m in range(k, n + 1):
        for subset in itertools.combinations(cols, m):
            counts[m] += rank(subset) == k
    return counts


def p_success(n: int, k: int, rho, p: float) -> float:
    """Channel success probability from a decoding vector, by its definition."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) * rho[n - k - i]
               for i in range(n - k + 1))


def rlnc_rho(n: int, k: int) -> list[float]:
    out = []
    for i in range(n - k + 1):
        prod = 1.0
        for j in range(k):
            prod *= 1.0 - 2.0 ** (j - (k + i))
        out.append(prod)
    return out
