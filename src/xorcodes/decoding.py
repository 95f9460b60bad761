"""Decoding-probability metrics for binary erasure codes.

The central object is the decoding vector of an [n, k] generator matrix:
entry i is the probability that a uniformly random set of k+i received
columns has full rank k, i.e. that the k source packets are recoverable
from k+i survivors.  :func:`_route` names how each entry is counted: by
Mobius inversion over the subspaces of F_2^r (a table of subspaces built
on the first use of each r), by enumeration of every subset, by uniform
subset sampling with the sampled entries drawn in order from one
generator, or as a known 0.  A full-rank high-rate code (0 < n - k < k)
is counted on its dual: a column set spans F_2^k exactly when the other
columns of the parity-check matrix are independent, so every rank is
taken over n - k rows instead of k.  One counter ranks the enumerated
and sampled entries as one stream of blocks of subset index tables, and
holds one block at a time: the enumerated entries first, in blocks of up
to 65,536 subsets that may mix sizes, then each sampled entry in blocks
drawn into one reused 1 MiB buffer of draws.  Each row of draws gives its
subset by a split at its m smallest values: a narrow side of the split
(w columns, 12 w <= min(n, 192)) is taken by w argmax or argmin passes,
a wider one by argpartition, with the same sets unless two draws tie
exactly at the cut.  A low-rate code whose subsets overflow one block
goes to Mobius counting instead when k <= 7.  The columns are packed
once, in the word ``pack_columns`` chooses (uint8 for up to 8 rows), and
a block is ranked in one batch call, so a [13,5] vector is one call.  A
block that holds the n-subset (the last block of every primal vector) is
n columns wide anyway, so it is filled from 0/1 membership masks, one
(n, C(n, j)) uint8 table per size: one concatenation and one broadcast
multiply by the column words.  Every narrower block (all of a dual's,
sizes larger than one block, sampled draws) is filled limb by limb with
1-d gathers from subset index tables, unranked in numpy by the
combinatorial number system.  The mask or intp table of every size that
fits one block is built once per process and reused, since a search
scores thousands of codes of one length; a length keeps at most n + 1 of
each, none larger than one block (all of [13,5]'s masks take 92 KB, its
intp tables 394 KB), and larger sizes and sampled draws come as int32
blocks that are never kept.  One ``np.add.reduceat`` over a block's
full-rank flags counts all of its entries.  On top of that sit the
erasure-channel success probability, the analytic random-linear-code
baseline, the MDS predicate, and a Monte Carlo channel simulator used as
an empirical cross-check.  A sweep of the success probability over a
grid of erasure probabilities is one table of loss terms, a row per
point, built 1 MiB of rows at a time: libm's pow or exp gives each term,
and numpy multiplies the table and sums each row left to right, so each
point is the float that the same point alone gives.  The last table is
kept, for the next code scored on the same grid.  The simulator groups
the trials of 8 MiB of draws at a time as packed keys, but draws them
through one 1 MiB buffer and ranks each group's distinct erasure
patterns in blocks of at most 1 MiB of column sets, so its memory does
not grow with the trials or n.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .gf2 import BinaryMatrix, pack_columns, parity_check, rank_batch

__all__ = [
    "DecodingVector",
    "ChannelPoint",
    "SimulationResult",
    "EXACT_ENUMERATION_LIMIT",
    "exact_vd",
    "sampled_vd",
    "p_success",
    "channel_sweep",
    "rlnc_P",
    "rlnc_vd",
    "is_mds",
    "simulate_ps",
    "vd_csv",
    "sweep_csv",
    "format_float",
    "display_round",
]

# Refuse exact enumeration once any single C(n, m) grows past this.
EXACT_ENUMERATION_LIMIT = 2_000_000

# Largest r whose subspaces of F_2^r the Mobius counter sums over: :func:`_route`
# sends an exact vector to it only when its rank space has at most r rows.
_MOBIUS_RANK = 7

_CHUNK = 65_536
# Every block of uniform draws (a sampled entry's or a simulation chunk's) fills at most
# _STREAM_BYTES of float64 rows; simulate_ps groups the trials of 8 MiB of draws (a chunk)
# as packed keys, and ranks its patterns in blocks of at most _STREAM_BYTES of column sets.
# A sweep's table of loss terms is built for at most _STREAM_BYTES of float64 rows at a time.
_SIMULATION_CHUNK_BYTES = 8 << 20
_STREAM_BYTES = 1 << 20


class DecodingVector:
    """Per-excess-packet decoding probabilities of one [n, k] code.

    ``rho[i]`` is the probability of decoding from k+i received columns,
    for i in 0..n-k.  Only ``counts`` and ``samples`` are stored: entry i
    counts ``counts[i]`` full-rank (k+i)-subsets among ``totals[i]``, all
    C(n, k+i) where ``samples[i]`` is 0, else ``samples[i]`` uniform draws,
    and ``rho[i]`` is their ratio.  Only analytic vectors (:func:`rlnc_vd`)
    are given ``rho``; they have no counts, no totals and no samples.
    """

    __slots__ = ("n", "k", "rho", "counts", "samples")

    def __init__(self, n, k, rho=None, counts=None, samples=None):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.n, self.k = n, k
        self.samples = (0,) * (n - k + 1) if samples is None else tuple(int(s) for s in samples)
        if len(self.samples) != n - k + 1 or min(self.samples) < 0 or (
                counts is None and any(self.samples)):
            raise ValueError(f"samples must hold {n - k + 1} draw counts >= 0, 0 without counts")
        self.counts = None if counts is None else tuple(int(c) for c in counts)
        if counts is not None:
            if rho is not None:
                raise ValueError("counts come without rho, which is counts / totals")
            totals = self.totals
            if len(self.counts) != n - k + 1 or not all(
                    0 <= c <= t for c, t in zip(self.counts, totals)):
                raise ValueError(f"counts must hold {n - k + 1} entries, each in 0..totals[i]")
            rho = [c / t for c, t in zip(self.counts, totals)]
        r = np.array(rho, dtype=np.float64)
        if r.shape != (n - k + 1,):
            raise ValueError(f"rho must have n - k + 1 = {n - k + 1} entries, got {r.shape}")
        if not ((r >= 0) & (r <= 1)).all():  # NaN fails both comparisons
            raise ValueError("rho entries must lie in [0, 1]")
        r.flags.writeable = False
        self.rho = r

    @property
    def totals(self) -> tuple[int, ...] | None:
        """Per-entry denominator of ``counts``: ``samples[i]`` draws, or all C(n, k+i)
        subsets where nothing was sampled; None for an analytic vector."""
        return None if self.counts is None else tuple(
            s or math.comb(self.n, self.k + i) for i, s in enumerate(self.samples))

    @property
    def mode(self) -> str:
        """The label "sampled" if any entry was sampled, else "exact"."""
        return "sampled" if any(self.samples) else "exact"

    @property
    def exact_entries(self) -> np.ndarray:
        """Per-entry flag: True where nothing was sampled."""
        return np.array(self.samples) == 0

    @property
    def stderr(self) -> np.ndarray:
        """Per-entry standard error sqrt(rho (1 - rho) / samples); 0 where nothing was sampled."""
        return np.array([math.sqrt(x * (1.0 - x) / s) if s else 0.0
                         for x, s in zip(self.rho.tolist(), self.samples)])

    def __len__(self) -> int:
        return self.rho.shape[0]

    def __getitem__(self, i) -> float:
        return float(self.rho[i])

    def rounded(self, ndigits: int = 3) -> tuple[float, ...]:
        """The vector rounded half away from zero, as printed in tables."""
        return tuple(display_round(x, ndigits) for x in self.rho)

    def __repr__(self) -> str:
        body = ", ".join(f"{x:.3f}" for x in self.rho)
        return f"DecodingVector([{self.n},{self.k}] {self.mode}: {body})"


@dataclass(frozen=True)
class ChannelPoint:
    """Success and failure probability of one erasure-channel operating point."""

    p: float
    p_s: float
    p_u: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"erasure probability must be in [0, 1], got {self.p}")
        if not 0.0 <= self.p_s <= 1.0:
            raise ValueError(f"p_s out of [0, 1]: {self.p_s}")
        if abs(self.p_s + self.p_u - 1.0) > 1e-12:
            raise ValueError(f"p_s + p_u must equal 1, got {self.p_s + self.p_u}")


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo estimate of the channel success probability."""

    p: float
    estimate: float
    stderr: float
    trials: int
    successes: int


def _unrank(n: int, j: int, start: int, count: int, dtype) -> np.ndarray:
    """The j-subsets of range(n) of lexicographic ranks start..start+count-1, as a (j, count) table.

    A subset c_0 < ... < c_{j-1} of rank r has C(n, j) - 1 - r =
    sum_i C(n - 1 - c_i, j - i) (the combinatorial number system), so row i
    is one ``np.searchsorted`` of the remainders into the binomials
    C(d, j - i) over the n - j + 1 values d = n - 1 - c_i can take; none of
    them exceeds C(n, j).
    """
    binoms = [np.array([math.comb(d, j - i) for d in range(j - i - 1, n - i)], dtype=np.int64)
              for i in range(j)]
    table = np.empty((j, count), dtype=dtype)
    last = math.comb(n, j) - 1 - start
    rest = np.arange(last, last - count, -1, dtype=np.int64)
    for i, col in enumerate(binoms):
        pos = col.searchsorted(rest, side="right") - 1
        table[i] = n - j + i - pos
        rest -= col[pos]
    return table


@functools.cache
def _comb_table(n: int, j: int) -> np.ndarray:
    """All j-subsets of range(n) as one read-only (j, C(n, j)) intp table, kept per process.

    Column c is the c-th subset in lexicographic order (:func:`_unrank`),
    so row i (the i-th member of every subset) is contiguous and
    ``col[table]`` is a 1-d gather.  j = 0 gives the (0, 1) empty subset.
    """
    table = _unrank(n, j, 0, math.comb(n, j), np.intp)
    table.flags.writeable = False
    return table


@functools.cache
def _membership(n: int, j: int) -> np.ndarray:
    """All j-subsets of range(n) as one read-only (n, C(n, j)) uint8 0/1 table, kept per process.

    Column c marks the members of the c-th subset in lexicographic order
    (:func:`_unrank`), so ``mask * col[:, None]`` lays every subset's
    columns out in place over all n rows, with zero columns between them.
    One byte per column and member slot: n C(n, j) bytes against the
    8 j C(n, j) of the intp :func:`_comb_table`.
    """
    count = math.comb(n, j)
    mask = np.zeros((n, count), dtype=np.uint8)
    mask[_unrank(n, j, 0, count, np.intp), np.arange(count)] = 1
    mask.flags.writeable = False
    return mask


def _subset_blocks(n: int, sizes):
    """Yield the j-subsets of range(n), for each j in ``sizes``, in blocks of at most ``_CHUNK``.

    A block is a list of (j, table) pairs, each table a (j, count) index
    array of subsets in lexicographic order (:func:`_count_full_rank`
    puts its sampled draws in the same form).  A block that holds the
    n-subset (j = n) is n columns wide whatever else it holds, so there
    every table is the size's (n, count) :func:`_membership` mask instead,
    and no block grows wider than before.  A size with C(n, j) <=
    ``_CHUNK`` comes whole as its memoised table or mask and shares a
    block with the sizes before it while they fit; a length keeps at most
    n + 1 of each, and the masks take n / (8 j) of the intp tables'
    memory (92 KB against 394 KB for all of [13,5]).  A larger size (so
    j < n) is unranked (:func:`_unrank`) one block at a time as int32
    tables that are never kept (intp would double their memory).
    """

    def kept(js):
        table = _membership if n in js else _comb_table
        return [(j, table(n, j)) for j in js]

    block, used = [], 0
    for j in sizes:
        total = math.comb(n, j)
        if total > _CHUNK:
            for start in range(0, total, _CHUNK):
                yield [(j, _unrank(n, j, start, min(_CHUNK, total - start), np.int32))]
            continue
        if used + total > _CHUNK:
            yield kept(block)
            block, used = [], 0
        block.append(j)
        used += total
    if block:
        yield kept(block)


def _rank_space(G: BinaryMatrix) -> tuple[np.ndarray | None, int, bool]:
    """(packed, rows, dual): the packed columns to rank column sets on, their row count,
    and whether they are the dual's.

    A column set S of a rank-k G spans F_2^k exactly when the complementary
    columns of its parity-check matrix H are independent (matroid duality).
    A high-rate code (0 < n - k < k) is ranked on H's n - k rows, with
    ``packed`` None when H shows rank(G) < k; any other code on G itself.
    """
    k, n = G.shape
    if 0 < n - k < k:
        H = parity_check(G)
        return (pack_columns(H.array) if H.rows == n - k else None), n - k, True
    return pack_columns(G.array), k, False


def _select(draws: np.ndarray, m: int, dual: bool) -> np.ndarray:
    """Each row's wanted side of a split at its m smallest ``draws``, as a (w, rows) int32
    index table: the n - m largest on the dual (w = n - m), the m smallest on the primal
    (w = m).

    A narrow side, 12 w <= min(n, 192), is taken by w row-wise passes of
    ``np.argmax`` (dual) or ``np.argmin`` (primal), each writing one row of
    the table and retiring its picks by overwriting them with -1.0 or 2.0,
    outside the draws' [0, 1); so ``draws`` is spent.  A wider side is one
    ``np.argpartition``.  w passes cost about as much as one argpartition
    at w = n / 12 to n / 7 for n up to 200, and at w = 18 to 20 beyond, so
    the test keeps passes where they win.  Both routes take the same sets,
    unless two draws of a row tie exactly at the cut (probability at most
    C(n, 2) 2^-53 per row).
    """
    rows, n = draws.shape
    w = n - m if dual else m
    if 12 * w > min(n, 192):
        side = slice(m, None) if dual else slice(m)
        return np.argpartition(draws, m, axis=1)[:, side].T.astype(np.int32)
    table = np.empty((w, rows), dtype=np.int32)
    pick, retire = (np.argmax, -1.0) if dual else (np.argmin, 2.0)
    at = np.arange(rows)
    for row in table:
        pick(draws, axis=1, out=row)
        draws[at, row] = retire
    return table


def _fill(block, bounds, words: np.ndarray, n: int) -> np.ndarray:
    """The (limbs, width, count) column sets of one block of :func:`_subset_blocks`, width
    its largest j: table i's subsets in columns bounds[i]:bounds[i + 1], one limb of
    ``words`` (limb-major packed columns) per limb.

    A block of width n holds masks (sampled draws never do: the one
    n-subset is always enumerated, and a dual's j is at most n - k).  It is
    one concatenation of its masks and one broadcast multiply by the column
    words, which keeps the words' dtype.  Any other block starts zeroed,
    and each table gathers every limb into its first j rows, leaving inert
    zero columns below.
    """
    width = max(j for j, _ in block)
    if width == n:
        return np.concatenate([mask for _, mask in block], axis=1) * words[:, :, None]
    sets = np.zeros((len(words), width, bounds[-1]), words.dtype)
    for limb, col in zip(sets, words):
        for (j, table), a, b in zip(block, bounds, bounds[1:]):
            limb[:j, a:b] = col[table]
    return sets


def _count_full_rank(space, n: int, sizes, samples=None, gen=None) -> list[int]:
    """Full-rank m-subsets of the n columns ranked on ``space`` (:func:`_rank_space`), for
    each m in ``sizes`` in that order: among the matching ``samples`` entry's uniform
    draws of ``gen`` when it is nonzero, else (and without ``samples``) among all C(n, m).

    All entries are one stream of (j, table) blocks: :func:`_subset_blocks`,
    then each sampled m in turn in blocks of ``_STREAM_BYTES // (8 n)`` draws
    (at least one, so their float64 rows fill the budget whatever n is), each
    row of iid uniforms taking the m-subset of its m smallest values.  Every
    block is drawn into one float64 buffer, allocated once per vector, and
    :func:`_select` takes each row's side (by argmax or argmin passes when it
    is narrow, else by argpartition) as an int32 table.  The columns are taken
    once as limb-major words, a C-ordered ``packed.T``.  :func:`_fill` lays
    a block out as a (limbs, width, count) array, width its largest j: from
    membership masks over all n rows when the block holds j = n, else by
    gathering each table into its first j rows.  The block is ranked in one
    :func:`rank_batch` call, and one ``np.add.reduceat`` over its full-rank
    flags counts each of its entries.  On the dual of :func:`_rank_space`
    an m-subset is full rank when its complementary (n - m)-subset is
    independent, so j = n - m <= n - k and a rank of j counts; on the
    primal j = m and the row count does.  A space without ``packed``
    ranks and selects nothing, but still fills the buffer with every block
    of draws, so that a shared generator moves on identically.  A block's
    unkept tables are dropped before it is ranked, and its column sets
    before the next block is built.
    """
    packed, rows, dual = space
    js = [n - m if dual else m for m in sizes]
    samples = samples or [0] * len(js)
    step = max(1, _STREAM_BYTES // (8 * n))
    buf = np.empty((min(step, max(samples)), n))
    fills = ((m, j, buf[:min(step, s - done)])
             for m, j, s in zip(sizes, js, samples) for done in range(0, s, step))
    if packed is None:
        for _, _, fill in fills:
            gen.random(out=fill)
        return [0] * len(js)
    draws = ([(j, _select(gen.random(out=fill), m, dual))] for m, j, fill in fills)
    words = np.ascontiguousarray(packed.T)
    counts = dict.fromkeys(js, 0)
    enumerated = [j for j, s in zip(js, samples) if not s]
    for block in itertools.chain(_subset_blocks(n, enumerated), draws):
        held = [j for j, _ in block]
        bounds = [0, *itertools.accumulate(table.shape[1] for _, table in block)]
        sets = _fill(block, bounds, words, n)
        del block  # unkept tables go before ranking
        ranks = rank_batch(sets.transpose(2, 1, 0), rows)
        del sets
        full = ranks == (np.repeat(held, np.diff(bounds)) if dual else rows)
        del ranks
        for j, c in zip(held, np.add.reduceat(full, bounds[:-1]).tolist()):
            counts[j] += c
    return [counts[j] for j in js]


@functools.cache
def _subspaces(r: int) -> tuple[np.ndarray, ...]:
    """Every subspace of F_2^r as its elements: one read-only (count, 2^u) uint8 table per dimension u.

    A subspace has one reduced echelon basis, whose rows have distinct
    leading bits (the pivots) and zeros at each other's pivots.  The table
    grows one bit b at a time: a subspace of F_2^(b+1) either lies in
    F_2^b, where bit b joins its free (non-pivot) bits, or is W + <2^b | a>
    for a subspace W of F_2^b and any a set only at W's free bits.  Dimension
    u therefore holds [r choose u]_2 rows, 374 in all at r = 5 and 29,212
    (0.4 MB) at r = 7.  Built on first use of each r and kept per process.
    """
    levels = [(np.zeros((1, 1), np.uint8), np.zeros((1, 0), np.uint8))]  # F_2^0 = {0}
    for b in range(r):
        grown = []
        for u in range(b + 2):
            parts = []
            if u <= b:
                elems, free = levels[u]
                parts.append((elems, np.hstack([free, np.full((len(free), 1), b, np.uint8)])))
            if u:
                elems, free = levels[u - 1]
                bits = np.arange(1 << free.shape[1])
                a = np.full((len(free), bits.size), 1 << b, np.uint8)
                for s, at in enumerate(free.T):
                    a |= (bits >> s & 1).astype(np.uint8) << at[:, None]
                parts.append((np.hstack([np.repeat(elems, bits.size, axis=0),
                                         (elems[:, None, :] ^ a[:, :, None]).reshape(a.size, -1)]),
                              np.repeat(free, bits.size, axis=0)))
            grown.append(tuple(np.concatenate(x) for x in zip(*parts)))
        levels = grown
    for elems, _ in levels:
        elems.flags.writeable = False
    return tuple(elems for elems, _ in levels)


def _gaussian_binomial(a: int, b: int) -> int:
    """[a choose b]_2, the number of b-dimensional subspaces of F_2^a; 0 unless 0 <= b <= a."""
    if not 0 <= b <= a:
        return 0
    return math.prod((1 << a - i) - 1 for i in range(b)) // math.prod(
        (1 << i + 1) - 1 for i in range(b))


def _mobius_counts(cols: np.ndarray, r: int, js, dual: bool) -> list[int]:
    """For each j in ``js``, the j-subsets of the F_2^r vectors ``cols`` (integers, bit i
    = row i) that span F_2^r, or that are independent when ``dual`` (then j <= r).

    n_W, the number of columns inside a subspace W, is the column histogram
    summed over W's elements (:func:`_subspaces`).  Mobius inversion over
    the subspace lattice, whose Mobius function is mu = (-1)^c 2^(c(c-1)/2)
    across codimension c (Stanley, EC1 sec. 3.10), gives the spanning count
    sum_W mu(W, F_2^r) C(n_W, j), and the independent count (dim U = j)
    sum_W C(n_W, j) [r - dim W choose e]_2 (-1)^e 2^(e(e-1)/2), e = j - dim W.
    Subspaces are grouped by (dim W, n_W) first, and every sum is a Python
    int.  Full-rank m-subsets of G are counted as j = m on G's columns with
    r = k, or as j = n - m on a parity-check matrix's with r = n - k.
    """
    n = len(cols)
    hist = np.bincount(cols, minlength=1 << r).astype(np.min_scalar_type(n))
    # mult[u][x]: the u-dimensional subspaces holding exactly x columns
    mult = [np.bincount(hist[elems].sum(axis=1, dtype=np.intp), minlength=n + 1).tolist()
            for elems in _subspaces(r)]
    mu = [(-1) ** c * 2 ** (c * (c - 1) // 2) for c in range(r + 1)]

    def weighted(weights):  # coef[x] = sum_u weights[u] mult[u][x]
        return [sum(w * h for w, h in zip(weights, col)) for col in zip(*mult)]

    coef = weighted(mu[::-1])  # the spanning weights mu(W, F_2^r) do not depend on j
    counts = []
    for j in js:
        if dual:
            coef = weighted([mu[j - u] * _gaussian_binomial(r - u, j - u)
                             for u in range(min(j, r) + 1)])
        counts.append(sum(math.comb(x, j) * c for x, c in enumerate(coef) if c and x >= j))
    return counts


def _route(space, n: int, k: int, max_subsets: int, sampling: bool) -> list[str]:
    """One label per entry m = k..n, naming how it is counted on ``space`` (:func:`_rank_space`).

    "mobius-dual" and "mobius" are :func:`_mobius_counts` on the dual's and
    G's columns, "enumerated" and "sampled" are :func:`_count_full_rank`,
    and "zero" marks a high-rate code of rank below k, where no column set
    is full rank.  ``sampling`` samples each entry with C(n, m) >
    ``max_subsets`` and enumerates the others.  An exact vector goes to
    Mobius counting when its rank space has at most ``_MOBIUS_RANK`` rows and
    it is high-rate, oversized, or a primal space whose sum of C(n, m) over
    m = k..n exceeds one ``_CHUNK`` block (so it would take several
    :func:`rank_batch` calls and unrank its larger sizes afresh each time).
    """
    packed, rows, dual = space
    totals = [math.comb(n, m) for m in range(k, n + 1)]
    if sampling:
        exact = "enumerated" if packed is not None else "zero"
        return ["sampled" if t > max_subsets else exact for t in totals]
    if packed is None:
        return ["zero"] * len(totals)
    widest = max(k, n // 2)  # C(n, m) over m >= k peaks here
    oversized = totals[widest - k] > max_subsets
    if (oversized or dual or sum(totals) > _CHUNK) and rows <= _MOBIUS_RANK:
        return ["mobius-dual" if dual else "mobius"] * len(totals)
    if oversized:
        raise ValueError(
            f"C({n},{widest}) = {totals[widest - k]} exceeds the enumeration limit "
            f"{max_subsets}, and k = {k} and n - k = {n - k} both exceed {_MOBIUS_RANK}, "
            f"the largest that Mobius counting takes; estimate it by sampling "
            f"(sampled_vd, or --samples N)"
        )
    return ["enumerated"] * len(totals)


def _counted_vd(G: BinaryMatrix, max_subsets: int, samples_per_entry=None,
                gen=None) -> DecodingVector:
    """Count every entry m = k..n by the method :func:`_route` names and build the vector.

    Without ``samples_per_entry`` the vector is exact; with it, each
    "sampled" entry counts that many draws of ``gen``, in the order of m.
    """
    k, n = G.shape
    if k > n:
        raise ValueError(f"generator must have k <= n, got {k}x{n}")
    if max_subsets < 1:
        raise ValueError(f"max_subsets must be >= 1, got {max_subsets}")
    sizes = range(k, n + 1)
    packed, rows, dual = space = _rank_space(G)
    labels = _route(space, n, k, max_subsets, samples_per_entry is not None)
    samples = [samples_per_entry if label == "sampled" else 0 for label in labels]
    if labels[0].startswith("mobius"):
        counts = _mobius_counts(packed[:, 0], rows, [n - m if dual else m for m in sizes], dual)
    else:
        counts = _count_full_rank(space, n, sizes, samples, gen)
    return DecodingVector(n, k, counts=counts, samples=samples)


def exact_vd(G: BinaryMatrix, max_subsets: int = EXACT_ENUMERATION_LIMIT) -> DecodingVector:
    """Exact decoding vector: full-rank (k+i)-subsets over C(n, k+i), as integer ratios.

    A high-rate code (0 < n - k < k) with n - k <= 7 is counted by Mobius
    inversion over the subspaces of F_2^(n-k) on its parity-check matrix,
    whatever ``max_subsets`` is.  Any other code with k <= 7 is counted by
    Mobius inversion over F_2^k when some C(n, k+i) exceeds ``max_subsets``
    or all of them sum to more than 65,536 subsets.  Otherwise the subsets
    are enumerated.  A high-rate code of rank below k is all zeros,
    whatever its size.  Raises when some
    C(n, k+i) exceeds ``max_subsets`` and k and n - k both exceed 7 for a
    code of rank k; use :func:`sampled_vd` for those codes.
    """
    return _counted_vd(G, max_subsets)


def sampled_vd(G: BinaryMatrix, samples_per_entry: int, rng,
               max_subsets: int = EXACT_ENUMERATION_LIMIT) -> DecodingVector:
    """Decoding vector with sampled entries where enumeration is infeasible.

    Each oversized entry counts the full-rank sets among ``samples_per_entry``
    uniform (k+i)-subsets, with standard error sqrt(rho (1 - rho) / samples).
    Entries with C(n, k+i) <= ``max_subsets`` are enumerated exactly
    instead; their sample count is 0 and standard error 0.  Deterministic
    for a fixed seed.
    """
    if samples_per_entry < 1:
        raise ValueError(f"samples_per_entry must be >= 1, got {samples_per_entry}")
    return _counted_vd(G, max_subsets, samples_per_entry, np.random.default_rng(rng))


@functools.cache
def _loss_coefficients(n: int) -> np.ndarray:
    """The coefficients of the n + 1 loss terms of length n, kept per n and read-only:
    C(n, i) as floats for n <= 60, else log C(n, i) = lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1)."""
    if n <= 60:
        row = [float(math.comb(n, i)) for i in range(n + 1)]
    else:
        lg = math.lgamma(n + 1)
        row = [lg - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(n + 1)]
    out = np.array(row)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1)
def _loss_table(n: int, ps: tuple) -> np.ndarray:
    """The (len(ps), n + 1) table of loss terms C(n, i) p^i (1-p)^(n-i), one row per p.

    Every term is the float of its one-term expression: C(n, i) * p**i *
    (1-p)**(n-i) for n <= 60, else exp(log C(n, i) + i log p + (n-i) log(1-p))
    with exact rows at p = 0 and 1.  numpy does the products and sums, in
    that expression's order; each pow and exp is libm's, called once per
    term through ``map``.  numpy's own np.power and np.exp are vectorised
    approximations that differ from libm in the last bit on some arguments
    (thousands of 200,000 random ones on an AVX-512 machine), which would
    change printed sweeps.  The table depends on n and the grid alone, so
    the last one is kept, read-only: a search scores every code at one
    (n, p), and curves of several codes share one grid.
    """
    s = n + 1
    c = _loss_coefficients(n)
    if n <= 60:
        # pow(x, j) for j = 0..n of every x: each p, then each 1 - p
        bases = [*ps, *(1.0 - p for p in ps)]
        runs = itertools.chain.from_iterable(map(itertools.repeat, bases, itertools.repeat(s)))
        powers = np.fromiter(map(pow, runs, itertools.cycle(range(s))), float, len(bases) * s)
        powers = powers.reshape(2, len(ps), s)
        terms = c * powers[0] * powers[1, :, ::-1]
        terms.flags.writeable = False
        return terms
    inner = [p if 0.0 < p < 1.0 else 0.5 for p in ps]  # p = 0 and 1 get exact rows below
    i = np.arange(s, dtype=float)
    args = (c + i * np.array([math.log(p) for p in inner])[:, None]
            + (n - i) * np.array([math.log1p(-p) for p in inner])[:, None])
    # a memoryview hands map one float at a time, where tolist would hold them all at once
    terms = np.fromiter(map(math.exp, memoryview(args.ravel())), float, args.size).reshape(args.shape)
    for row, p in zip(terms, ps):
        if p == 0.0 or p == 1.0:
            row[:] = 0.0
            row[0 if p == 0.0 else n] = 1.0
    terms.flags.writeable = False
    return terms


def _channel_points(vd: DecodingVector, ps) -> list[ChannelPoint]:
    """The channel point of ``vd`` at each erasure probability in ``ps``, in order.

    Failure aggregates two events: i <= n-k packets lost but the surviving
    n-i columns undecodable (weight 1 - rho[n-k-i]), and more than n-k
    packets lost (always undecodable).  Each row of :func:`_loss_table`
    is weighted and summed left to right by ``np.add.accumulate``, one
    event at a time, so p_u = p_u1 + p_u2 is the float of two sequential
    loops.  The grid is tabulated ``_STREAM_BYTES`` of rows at a time, so
    memory does not grow with the number of points.  A code of rank below
    k (rho all 0) gets exactly p_s = 0, not the rounding residue of 1 - p_u.
    """
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"erasure probability must be in [0, 1], got {p}")
    if not vd.rho.any():
        return [ChannelPoint(p, 0.0, 1.0) for p in ps]
    m = vd.n - vd.k + 1
    weights = 1.0 - vd.rho[::-1]
    step = max(1, _STREAM_BYTES // (8 * (vd.n + 1)))
    points = []
    for start in range(0, len(ps), step):
        block = ps[start:start + step]
        terms = _loss_table(vd.n, tuple(block))
        p_u1 = np.add.accumulate(terms[:, :m] * weights, axis=1)[:, -1].tolist()
        p_u2 = np.add.accumulate(terms[:, m:], axis=1)[:, -1].tolist()
        for p, u1, u2 in zip(block, p_u1, p_u2):
            p_u = min(max(u1 + u2, 0.0), 1.0)
            points.append(ChannelPoint(p, 1.0 - p_u, p_u))
    return points


def p_success(vd: DecodingVector, p: float) -> ChannelPoint:
    """Channel success probability at erasure probability p.

    The one-point case of :func:`channel_sweep`, with the same floats: its
    loss terms take libm's pow or exp per term, never numpy's, whose last
    bit differs on some arguments.  Raises ValueError unless 0 <= p <= 1.
    """
    return _channel_points(vd, [p])[0]


def channel_sweep(vd: DecodingVector, p_values) -> list[ChannelPoint]:
    """Evaluate the success probability over a grid of erasure probabilities.

    The whole grid is one table of loss terms, summed row by row, and each
    point is the float that :func:`p_success` gives for it alone.  Each
    term's pow or exp is libm's, called per term: numpy's np.power and
    np.exp differ from libm in the last bit on some arguments, which would
    change printed sweeps.  Raises ValueError at the first p outside [0, 1].
    """
    return _channel_points(vd, [float(p) for p in p_values])


def rlnc_P(I: int, k: int, q: int) -> float:
    """Probability that I random GF(q) combinations of k packets have full rank.

    Zero for I < k, else the product over j < k of (1 - q^(j - I)).
    """
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if I < k:
        return 0.0
    out = 1.0
    for j in range(k):
        out *= 1.0 - float(q) ** (j - I)
    return out


def rlnc_vd(n: int, k: int, q: int) -> DecodingVector:
    """Analytic decoding vector of a random [n, k] code over GF(q)."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    rho = np.array([rlnc_P(k + i, k, q) for i in range(n - k + 1)])
    return DecodingVector(n, k, rho)


def is_mds(vd: DecodingVector) -> bool:
    """True iff every entry equals 1 exactly; requires an exact-mode vector."""
    if vd.mode != "exact":
        raise ValueError("MDS predicate requires exact V_D")
    return bool((vd.rho == 1.0).all())


def _mask_width(n: int) -> int:
    """Width of the zero-padded bool mask whose packed rows are :func:`_distinct_rows`'s keys
    for rows of n columns: n rounded up to a word of 16 or 32 bits, or to whole 64-bit limbs."""
    return 16 if n <= 16 else 32 if n <= 32 else -(-n // 64) * 64


def _distinct_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of n columns, in no set order, and how often each occurs, from
    their grouping ``keys``, one row of key words per row.

    A key is its row zero-padded to ``_mask_width(n)`` columns and packed,
    in the narrowest word of at least 16 bits that holds n bits (numpy
    sorts uint8 over ten times slower than uint16; a wider word only adds
    padding), so one ``np.sort`` puts equal keys side by side.  Wider rows
    take several uint64 limbs, sorted limb by limb with ``argsort``: only
    the passes after the first must be stable.  A group starts where a key
    differs from the one before it, and its row is read back from the key.
    """
    c = len(keys)
    if keys.shape[1] == 1:
        keys = np.sort(keys, axis=0)
    else:
        order = np.argsort(keys[:, 0])
        for limb in keys.T[1:]:
            order = order[np.argsort(limb[order], kind="stable")]
        keys = keys[order]
    new = np.ones(c, dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    rows = np.unpackbits(keys[starts].view(np.uint8), axis=1, count=n).view(bool)
    return rows, np.diff(starts, append=c)


def simulate_ps(G: BinaryMatrix, p: float, trials: int, rng) -> SimulationResult:
    """Monte Carlo channel experiment: erase columns iid, test full rank.

    Runs ``trials`` independent experiments; success means the surviving
    columns still span all k rows (on the dual: the erased columns of the
    parity-check matrix are independent).  Trials are grouped in chunks of
    ``_SIMULATION_CHUNK_BYTES`` of draws, and each distinct erasure pattern
    in a chunk is ranked once, its success weighted by how often it was
    drawn.  A chunk is drawn ``_STREAM_BYTES`` at a time into one reused
    float64 buffer, each block is compared straight into one reused bool
    mask of its rows, zero-padded to the grouping key (kept columns on the
    primal, erased ones on the dual), and packed into its rows of the
    chunk's keys (uint16, uint32 or uint64 words for n up to 16, 32 or 64),
    so memory is bounded by a byte budget, not by a trial count.  The keys
    are grouped by one sort (see ``_distinct_rows``) and the patterns
    ranked in blocks whose column sets fill at most ``_STREAM_BYTES``; a
    chunk's patterns go before the next chunk is grouped.  Deterministic
    for a fixed seed, whatever the chunking, since the draws fill row by row.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {p}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gen = np.random.default_rng(rng)
    n = G.cols
    packed, rows, dual = _rank_space(G)
    chunk = max(1, _SIMULATION_CHUNK_BYTES // (8 * n))
    step = max(1, _STREAM_BYTES // (8 * n))
    draws = np.empty((min(step, trials), n))
    mask = np.zeros((len(draws), _mask_width(n)), dtype=bool)
    word = min(mask.shape[1], 64)
    keys = np.empty((min(chunk, trials), mask.shape[1] // word), dtype=f"u{word // 8}")
    compare = np.less if dual else np.greater_equal  # marks erased or kept columns
    successes = 0
    for done in range(0, trials, chunk):
        size = min(chunk, trials - done)
        for a in range(0, size, step):
            b = min(a + step, size)
            gen.random(out=draws[:b - a])
            compare(draws[:b - a], p, out=mask[:b - a, :n])
            keys[a:b] = np.packbits(mask[:b - a]).view(keys.dtype).reshape(b - a, -1)
        if packed is None:
            continue
        ranked, weight = _distinct_rows(keys[:size], n)
        block = max(1, _STREAM_BYTES // packed.nbytes)
        for a in range(0, len(ranked), block):
            part = ranked[a:a + block]
            full = rank_batch(np.where(part[:, :, None], packed, 0), rows) == (
                part.sum(axis=1) if dual else rows)
            successes += int(weight[a:a + block][full].sum())
        del ranked, weight, part, full
    est = successes / trials
    se = math.sqrt(est * (1.0 - est) / trials)
    return SimulationResult(p=p, estimate=est, stderr=se, trials=trials, successes=successes)


def format_float(x: float) -> str:
    """Float with 9 significant digits; whole values keep a .0 marker.

    Non-finite values print plainly as ``inf``, ``-inf`` and ``nan``.
    """
    s = format(float(x), ".9g")
    if math.isfinite(x) and "." not in s and "e" not in s:
        s += ".0"
    return s


def vd_csv(vd: DecodingVector) -> str:
    """CSV rendering: header ``i,rho,mode,stderr``, one row per entry."""
    lines = ["i,rho,mode,stderr"]
    for i, (x, s, se) in enumerate(zip(vd.rho, vd.samples, vd.stderr)):
        lines.append(f"{i},{format_float(x)},{'sampled' if s else 'exact'},{format_float(se)}")
    return "\n".join(lines) + "\n"


def sweep_csv(points) -> str:
    """CSV rendering: header ``p,p_s,p_u``, one row per operating point."""
    lines = ["p,p_s,p_u"]
    for pt in points:
        lines.append(f"{format_float(pt.p)},{format_float(pt.p_s)},{format_float(pt.p_u)}")
    return "\n".join(lines) + "\n"


def display_round(x: float, ndigits: int = 3) -> float:
    """Round half away from zero, the convention used for printed tables.

    A value with no digit below 10^-ndigits (inf, nan, 1e300) comes back
    unchanged; any other has at most 17 significant digits, whose quantized
    form fits Decimal's default 28-digit context.
    """
    d = Decimal(repr(float(x)))
    if not d.is_finite() or d.as_tuple().exponent >= -ndigits:
        return float(d)
    return float(d.quantize(Decimal(1).scaleb(-ndigits), rounding=ROUND_HALF_UP))
