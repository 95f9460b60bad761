"""Stochastic hill-climbing search for good binary erasure codes.

Two initializations are supported: a uniformly random full-rank generator,
and a structured one whose first k columns come from a balanced nonsingular
incidence matrix with an all-ones column appended.  Both are improved by
repeated single-bit flips, accepting only strict improvements, and many
independent restarts are reduced to the set of mutually nondominated
decoding vectors.  The structured block (row and column sums k1,
nonsingular, then an all-ones column) holds by construction, since no
flip lands in the first k + 1 columns; tests pin it on climbed families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoding import EXACT_ENUMERATION_LIMIT, DecodingVector, exact_vd, p_success, sampled_vd
from .gf2 import BinaryMatrix, random_matrix, rank
from .latin import incidence_matrix, random_nonsingular_rectangle

__all__ = [
    "CodeCandidate",
    "SearchConfig",
    "init_random",
    "init_balanced",
    "neighbor",
    "climb",
    "search_family",
    "dominates",
]


@dataclass(frozen=True)
class CodeCandidate:
    """One evaluated generator matrix with its decoding vector and score.

    ``provenance`` records how the candidate was produced: algorithm number,
    seeds, and for structured candidates the source rectangle and column
    weight, enough to regenerate it.
    """

    G: BinaryMatrix
    vd: DecodingVector
    score: float
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters shared by every restart.

    The objective is the channel success probability at ``reference_p``.
    Only algorithm 2 reads ``k1``; its Latin rectangle refuses a bad one.
    ``samples`` is None for exact decoding vectors, or the number of
    subsets :func:`sampled_vd` draws per oversized entry.
    """

    n: int
    k: int
    k1: int = 3
    reference_p: float = 0.1
    attempts: int = 100
    max_climb_steps: int = 200
    stagnation_limit: int = 40
    master_seed: int = 0
    samples: int | None = None
    max_subsets: int = EXACT_ENUMERATION_LIMIT

    def __post_init__(self):
        if not self.n > self.k >= 1:
            raise ValueError(f"need n > k >= 1, got n={self.n}, k={self.k}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.max_climb_steps < 0:
            raise ValueError(f"max_climb_steps must be >= 0, got {self.max_climb_steps}")
        if self.stagnation_limit < 1:
            raise ValueError(f"stagnation_limit must be >= 1, got {self.stagnation_limit}")
        if not 0.0 <= self.reference_p <= 1.0:
            raise ValueError(f"reference_p must be in [0, 1], got {self.reference_p}")
        if self.samples is not None and self.samples < 1:
            raise ValueError(f"samples must be >= 1 or None for exact, got {self.samples}")
        if self.max_subsets < 1:
            raise ValueError(f"max_subsets must be >= 1, got {self.max_subsets}")


def _evaluate(G: BinaryMatrix, cfg: SearchConfig, rng) -> tuple[DecodingVector, float]:
    if cfg.samples is None:
        vd = exact_vd(G, max_subsets=cfg.max_subsets)
    else:
        vd = sampled_vd(G, cfg.samples, rng, max_subsets=cfg.max_subsets)
    return vd, p_success(vd, cfg.reference_p).p_s


def init_random(cfg: SearchConfig, rng) -> CodeCandidate:
    """Uniformly random full-rank generator matrix, resampled until rank k."""
    gen = np.random.default_rng(rng)
    for _ in range(1000):
        G = random_matrix(cfg.k, cfg.n, gen)
        if rank(G) == cfg.k:
            vd, score = _evaluate(G, cfg, gen)
            return CodeCandidate(G, vd, score, {"algorithm": 1, "climb_steps": 0})
    raise RuntimeError(f"no full-rank {cfg.k}x{cfg.n} matrix in 1000 draws")


def init_balanced(cfg: SearchConfig, rng) -> CodeCandidate:
    """Structured start: balanced nonsingular block, all-ones column, random tail.

    Column j of the first block reads off the symbols appearing in column
    j+1 of the source rectangle, so the block inherits row and column sums
    k1 and is nonsingular by construction.
    """
    gen = np.random.default_rng(rng)
    R = random_nonsingular_rectangle(cfg.k, cfg.k1, gen)
    a = np.zeros((cfg.k, cfg.n), dtype=np.uint8)
    a[:, : cfg.k] = incidence_matrix(R).array.T
    a[:, cfg.k] = 1
    if cfg.n > cfg.k + 1:
        a[:, cfg.k + 1 :] = gen.integers(0, 2, size=(cfg.k, cfg.n - cfg.k - 1), dtype=np.uint8)
    G = BinaryMatrix(a)
    vd, score = _evaluate(G, cfg, gen)
    latin = ";".join(",".join(str(s) for s in row) for row in R.cells)
    prov = {"algorithm": 2, "k1": cfg.k1, "latin": latin, "climb_steps": 0}
    return CodeCandidate(G, vd, score, prov)


def neighbor(c: CodeCandidate, cfg: SearchConfig, rng) -> CodeCandidate:
    """Flip exactly one bit of the mutable region and re-evaluate.

    Structured candidates keep their first k + 1 columns fixed; the flip
    lands in the random tail only.
    """
    gen = np.random.default_rng(rng)
    first = 0 if c.provenance.get("algorithm", 1) == 1 else cfg.k + 1
    count = cfg.k * (cfg.n - first)
    if count == 0:
        raise ValueError("no mutable positions: the random tail is empty")
    idx = int(gen.integers(0, count))
    a = c.G.to_array()
    a[idx % cfg.k, first + idx // cfg.k] ^= 1
    G = BinaryMatrix(a)
    vd, score = _evaluate(G, cfg, gen)
    return CodeCandidate(G, vd, score, dict(c.provenance))


def _improves(cand: CodeCandidate, cur: CodeCandidate) -> bool:
    if cand.score != cur.score:
        return cand.score > cur.score
    return tuple(cand.vd.rho) > tuple(cur.vd.rho)


def climb(start: CodeCandidate, cfg: SearchConfig, rng) -> CodeCandidate:
    """Hill climb by single-bit flips, strict improvement only.

    A proposal is accepted iff its score is larger, or equal with a
    lexicographically larger decoding vector.  Stops after
    ``stagnation_limit`` consecutive rejections or ``max_climb_steps``
    proposals in total, whichever comes first.
    """
    gen = np.random.default_rng(rng)
    cur = start
    accepted = 0
    proposals = 0
    rejections = 0
    while proposals < cfg.max_climb_steps and rejections < cfg.stagnation_limit:
        cand = neighbor(cur, cfg, gen)
        proposals += 1
        if _improves(cand, cur):
            cur = cand
            accepted += 1
            rejections = 0
        else:
            rejections += 1
    if accepted == 0:
        return start
    prov = dict(cur.provenance)
    prov["climb_steps"] = prov.get("climb_steps", 0) + accepted
    return CodeCandidate(cur.G, cur.vd, cur.score, prov)


def _rho_dominates(a: DecodingVector, b: DecodingVector) -> bool:
    # over one total, c / t orders exactly like the count c: totals stay far below 2^52
    return bool((a.rho >= b.rho).all())


def dominates(a: DecodingVector, b: DecodingVector) -> bool:
    """Componentwise dominance certificate between two exact decoding vectors.

    True iff every entry of ``a`` is at least the matching entry of ``b``;
    by the monotonicity of the channel success probability this transfers
    to p_s at every erasure probability.
    """
    if a.n != b.n or a.k != b.k:
        raise ValueError(f"dimension mismatch: [{a.n},{a.k}] vs [{b.n},{b.k}]")
    if a.mode != "exact" or b.mode != "exact":
        raise ValueError("dominance requires exact V_D on both sides")
    return _rho_dominates(a, b)


def search_family(cfg: SearchConfig, algorithm: int = 2) -> list[CodeCandidate]:
    """Run independent climbed restarts and keep the nondominated vectors.

    Restart i draws its stream from SeedSequence(master_seed, spawn_key=(i,)),
    so it depends only on (master_seed, i).  Restarts run in index order and
    each result is folded in as it finishes: a candidate whose decoding
    vector is dominated by (or equal to) an earlier restart's is dropped.
    The survivors come back sorted by score, best first.
    """
    if algorithm not in (1, 2):
        raise ValueError(f"algorithm must be 1 or 2, got {algorithm}")
    if algorithm == 2 and cfg.n == cfg.k + 1 and cfg.max_climb_steps > 0:
        raise ValueError(f"algorithm 2 fixes the first k + 1 = {cfg.k + 1} columns, so a "
                         f"[{cfg.n},{cfg.k}] code has no bit to flip: use n >= k + 2 "
                         f"or --algorithm 1")
    family: list[CodeCandidate] = []
    for i in range(cfg.attempts):
        gen = np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(i,)))
        start = init_balanced(cfg, gen) if algorithm == 2 else init_random(cfg, gen)
        c = climb(start, cfg, gen)
        if any(_rho_dominates(f.vd, c.vd) for f in family):
            continue
        family = [f for f in family if not _rho_dominates(c.vd, f.vd)]
        prov = {**c.provenance, "master_seed": cfg.master_seed, "restart": i}
        family.append(CodeCandidate(c.G, c.vd, c.score, prov))
    family.sort(key=lambda c: -c.score)
    return family
