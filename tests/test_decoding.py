import functools
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xorcodes as xc
from xorcodes import decoding
from xorcodes.decoding import (_comb_table, _count_full_rank, _distinct_rows, _loss_table,
                               _mask_width, _membership, _mobius_counts, _rank_space,
                               _select, _subset_blocks, _subspaces, _unrank, format_float)
from xorcodes.gf2 import rank_batch

# frozen by independent naive enumeration of the shipped [13,5] matrix
COUNTS_13_5 = (792, 1536, 1680, 1284, 715, 286, 78, 13, 1)
TOTALS_13_5 = (1287, 1716, 1716, 1287, 715, 286, 78, 13, 1)
ROUNDED_13_5 = (0.615, 0.895, 0.979, 0.998, 1.0, 1.0, 1.0, 1.0, 1.0)
PS_13_5_AT_01 = 0.9999568878273
LIMIT = xc.EXACT_ENUMERATION_LIMIT


@st.composite
def high_rate_codes(draw):
    """k x n generators with 0 < n - k < k, rank-deficient ones included."""
    k = draw(st.integers(2, 6), label="k")
    n = draw(st.integers(k + 1, min(2 * k - 1, 10)), label="n")
    r = draw(st.integers(1, k), label="r")  # rows r..k-1 are zero when r < k
    cols = draw(st.lists(st.integers(0, 2**r - 1), min_size=n, max_size=n), label="cols")
    return xc.BinaryMatrix([[c >> i & 1 for c in cols] for i in range(k)])


@st.composite
def small_codes(draw):
    """k x n generators with k <= 6, n <= 10: primal, dual and rank-deficient codes, with
    repeated and zero columns."""
    k = draw(st.integers(1, 6), label="k")
    n = draw(st.integers(k, 10), label="n")
    r = draw(st.just(k) | st.integers(1, k), label="rank")  # rows r..k-1 are zero
    rest = st.lists(st.integers(0, 2**r - 1), min_size=n - r, max_size=n - r)
    cols = draw(st.permutations([1 << i for i in range(r)] + draw(rest)), label="cols")
    G = xc.BinaryMatrix([[c >> i & 1 for c in cols] for i in range(k)])
    assert xc.rank(G) == r
    return G


@st.composite
def subset_slices(draw):
    """(n, j, a, start, count, dtype): ranks start..start+count-1 among the j-subsets of
    range(a, n), which are the last C(n - a, j) of range(n)'s in lexicographic order."""
    n = draw(st.integers(0, 40), label="n")
    j = draw(st.integers(0, n), label="j")
    a = draw(st.integers(0, n - j), label="a")
    total = math.comb(n - a, j)
    start = draw(st.integers(0, min(total, 3000) - 1), label="start")
    count = draw(st.integers(1, min(total - start, 3000)), label="count")
    return n, j, a, start, count, draw(st.sampled_from([np.int32, np.intp]), label="dtype")


@st.composite
def selections(draw):
    """(n, m, dual, rows, seed): a split of ``rows`` rows of n draws at their m smallest, with
    the wanted side (n - m columns on the dual, m on the primal) often narrow enough for passes."""
    n = draw(st.integers(2, 60), label="n")
    w = draw(st.integers(1, max(1, n // 12)) | st.integers(1, n - 1), label="w")
    dual = draw(st.booleans(), label="dual")
    rows = draw(st.integers(1, 50), label="rows")
    return n, n - w if dual else w, dual, rows, draw(st.integers(0, 2**32 - 1), label="seed")


def brute_force_counts(G, sizes):
    """Full-rank m-subsets of G's columns by python-int rank, one subset at a time."""
    return {m: sum(xc.rank(xc.select_columns(G, c)) == G.rows
                   for c in itertools.combinations(range(G.cols), m))
            for m in sizes}


def high_rate_96():
    """A full-rank [9,6] code, which is counted on its dual."""
    G = xc.random_matrix(6, 9, np.random.default_rng(1))
    assert xc.rank(G) == 6 and _rank_space(G)[2]
    return G


def column_ints(M):
    """M's columns as integers, bit i = row i."""
    return (1 << np.arange(M.rows)) @ M.array.astype(np.intp)


def structured_44_40():
    """c8's structured [44,40]: a balanced nonsingular block, an all-ones column, 3 random."""
    rng = np.random.default_rng(44)
    block = xc.random_balanced_nonsingular(40, 3, rng).array
    return xc.BinaryMatrix(np.hstack([block, np.ones((40, 1), np.uint8),
                                      rng.integers(0, 2, (40, 3), dtype=np.uint8)]))


def repeated_last_row(k, n, seed):
    """A random k x n code whose last row repeats the first, so rank(G) < k."""
    a = xc.random_matrix(k, n, np.random.default_rng(seed)).to_array()
    a[-1] = a[0]
    return xc.BinaryMatrix(a)


# The channel formula one point at a time, by a list of terms and two sequential loops:
# the oracle that every sweep must match bit for bit.
@functools.cache
def _log_binomials(n: int) -> tuple[float, ...]:
    """log C(n, i) for i = 0..n as lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1), kept per n."""
    lg = math.lgamma(n + 1)
    return tuple(lg - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(n + 1))


def _loss_terms(n: int, p: float) -> list[float]:
    """C(n, i) p^i (1-p)^(n-i) for i = 0..n, switching to logarithms for large n.

    The log route adds i log p and (n - i) log(1-p) to the kept
    :func:`_log_binomials` in the order of one left-to-right expression, so
    every term is the same float as when it was evaluated whole.
    """
    if n <= 60:
        return [math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(n + 1)]
    if p == 0.0:
        return [1.0] + [0.0] * n
    if p == 1.0:
        return [0.0] * n + [1.0]
    lp, lq = math.log(p), math.log1p(-p)
    return [math.exp(lc + i * lp + (n - i) * lq) for i, lc in enumerate(_log_binomials(n))]


def oracle_point(vd, p):
    """One channel point by the term list above and two sequential loops."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {p}")
    if not vd.rho.any():
        return xc.ChannelPoint(p=p, p_s=0.0, p_u=1.0)
    n, k = vd.n, vd.k
    terms = _loss_terms(n, p)
    rho = vd.rho.tolist()
    p_u1 = 0.0
    for i in range(0, n - k + 1):
        p_u1 += terms[i] * (1.0 - rho[n - k - i])
    p_u2 = 0.0
    for i in range(n - k + 1, n + 1):
        p_u2 += terms[i]
    p_u = min(max(p_u1 + p_u2, 0.0), 1.0)
    return xc.ChannelPoint(p=p, p_s=1.0 - p_u, p_u=p_u)


def point_bits(points):
    """Each point's p and the exact bits of its p_s and p_u."""
    return [(pt.p, pt.p_s.hex(), pt.p_u.hex()) for pt in points]


@st.composite
def sweep_cases(draw):
    """(vd, ps): an [n, k] vector with n = 1..130 (both term routes, n = k included, all-zero
    rho among them) and a grid holding p = 0 and 1 as well as random p."""
    n = draw(st.integers(1, 130), label="n")
    k = draw(st.integers(1, n), label="k")
    entry = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    rho = draw(st.just([0.0] * (n - k + 1)) | st.lists(entry, min_size=n - k + 1,
                                                        max_size=n - k + 1), label="rho")
    ps = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), max_size=6), label="ps")
    return xc.DecodingVector(n, k, rho), ps


def traced_vd(G, max_subsets, samples=None):
    """(labels, vd, sets): G's vector, exact or with ``samples`` draws per sampled entry,
    the labels of its one _route call and the number of column sets rank_batch ranked."""
    routes, ranked, unwrapped = [], [], decoding._route

    def route(*args):
        routes.append(unwrapped(*args))
        return routes[-1]

    def counting(colsets, rows):
        ranked.append(colsets.shape[0])
        return rank_batch(colsets, rows)

    with mock.patch.object(decoding, "_route", route), \
            mock.patch.object(decoding, "rank_batch", counting):
        vd = (xc.exact_vd(G, max_subsets) if samples is None
              else xc.sampled_vd(G, samples, 0, max_subsets=max_subsets))
    [labels] = routes
    return labels, vd, sum(ranked)


def sampling_peak(G, samples, max_subsets):
    """The tracemalloc peak of one warm sampled_vd of G, in bytes."""
    xc.sampled_vd(G, samples, 1, max_subsets=max_subsets)  # warm-up: imports and memoised tables
    tracemalloc.start()
    try:
        xc.sampled_vd(G, samples, 1, max_subsets=max_subsets)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def routed_sets(n, k, labels, samples):
    """The column sets a vector routed as ``labels`` ranks: all C(n, m) of each enumerated
    entry and ``samples`` draws of each sampled one, or none on a rank-deficient dual."""
    if "zero" in labels:
        return 0
    return sum(math.comb(n, m) if label == "enumerated" else samples if label == "sampled" else 0
               for m, label in zip(range(k, n + 1), labels))


class TestDecodingVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="entries"):
            xc.DecodingVector(5, 3, [1.0, 1.0])

    def test_rejects_out_of_range(self):
        for rho in [[0.5, 1.5], [-0.5, 1.0], [math.nan, 1.0]]:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                xc.DecodingVector(5, 4, rho)

    def test_rejects_malformed_samples(self):
        for rho, counted, samples in [
            ([0.5, 1.0], {}, [0]),
            ([0.5, 1.0], {}, [4, -1]),
            ([0.5, 1.0], {}, [4, 0]),  # sampled without counts
            (None, {"counts": [1, 1]}, [4]),
        ]:
            with pytest.raises(ValueError, match="samples"):
                xc.DecodingVector(5, 4, rho, samples=samples, **counted)

    def test_rejects_counts_that_disagree_with_rho(self):
        # rho is derived from counts, so the two are never given together
        with pytest.raises(ValueError, match="without rho"):
            xc.DecodingVector(5, 4, [0.5, 1.0], counts=[1, 2])

    def test_rejects_counts_outside_their_totals(self):
        # C(5, 4) = 5 and C(5, 5) = 1 where nothing is sampled, else the draws
        for counts, samples in [([1, 2], None), ([6, 1], None), ([-1, 1], None), ([1], None),
                                ([5, 1], [4, 0]), ([1, 1, 1], None)]:
            with pytest.raises(ValueError, match="totals"):
                xc.DecodingVector(5, 4, counts=counts, samples=samples)

    def test_counts_give_rho_and_totals(self):
        vd = xc.DecodingVector(5, 4, counts=[1, 1])
        assert vd.rho.tolist() == [0.2, 1.0]
        assert vd.totals == (5, 1)
        assert vd.counts == (1, 1) and vd.mode == "exact"
        assert xc.rlnc_vd(5, 4, 2).totals is None

    def test_derived_fields(self):
        vd = xc.DecodingVector(5, 4, counts=[1, 1], samples=[4, 0])
        assert vd.rho.tolist() == [0.25, 1.0] and vd.totals == (4, 1)
        assert vd.mode == "sampled"
        assert vd.exact_entries.tolist() == [False, True]
        assert vd.stderr.tolist() == [math.sqrt(0.25 * 0.75 / 4), 0.0]
        plain = xc.DecodingVector(5, 4, [0.5, 1.0])
        assert plain.mode == "exact"
        assert plain.samples == (0, 0)
        assert plain.stderr.tolist() == [0.0, 0.0]

    def test_rho_is_readonly(self):
        vd = xc.DecodingVector(5, 4, [0.5, 1.0])
        with pytest.raises(ValueError):
            vd.rho[0] = 0.0

    def test_sequence_protocol(self):
        vd = xc.DecodingVector(5, 4, [0.5, 1.0])
        assert len(vd) == 2
        assert vd[1] == 1.0


class TestExactVd:
    def test_golden_counts(self, vd135):
        assert vd135.mode == "exact"
        assert vd135.counts == COUNTS_13_5
        assert vd135.totals == TOTALS_13_5

    def test_golden_rounded(self, vd135):
        assert vd135.rounded() == ROUNDED_13_5

    def test_identity_code(self):
        vd = xc.exact_vd(xc.BinaryMatrix.identity(5))
        assert vd.counts == (1,)
        assert vd.rho.tolist() == [1.0]

    def test_golden_subcode_is_mds(self, g135):
        sub = xc.select_columns(g135, range(6))
        vd = xc.exact_vd(sub)
        assert vd.counts == vd.totals
        assert xc.is_mds(vd)

    def test_rank_deficient_matrix(self):
        vd = xc.exact_vd(xc.BinaryMatrix.zeros(2, 4))
        assert vd.rho.tolist() == [0.0, 0.0, 0.0]

    def test_threshold_error_names_binomial(self):
        G = xc.random_matrix(10, 30, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"C\(30,1[0-9]\)"):
            xc.exact_vd(G, max_subsets=1000)

    def test_partial_sizes_count_only_those_sizes(self, g135):
        counts = dict(zip([5, 8, 13], _count_full_rank(_rank_space(g135), 13, [5, 8, 13])))
        assert counts == {5: 792, 8: 1284, 13: 1}

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_counts_match_brute_force(self, data):
        k = data.draw(st.integers(1, 5), label="k")
        n = data.draw(st.integers(k, 9), label="n")
        bits = data.draw(st.lists(st.integers(0, 1), min_size=k * n, max_size=k * n),
                         label="bits")
        G = xc.BinaryMatrix(np.array(bits, dtype=np.uint8).reshape(k, n))
        sizes = data.draw(st.sets(st.integers(k, n), min_size=1), label="sizes")
        counts = dict(zip(sizes, _count_full_rank(_rank_space(G), n, list(sizes))))
        assert counts == brute_force_counts(G, sizes)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(high_rate_codes())
    # a full-rank code with a repeated column (0 and 4) and a zero column (5)
    @example(xc.BinaryMatrix([[1, 0, 0, 0, 1, 0, 1], [0, 1, 0, 0, 0, 0, 1],
                              [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0]]))
    @example(xc.BinaryMatrix([[1, 0, 1, 1, 0], [0, 1, 0, 1, 0], [0, 0, 0, 0, 0]]))
    def test_high_rate_counts_match_brute_force(self, G):
        k, n = G.shape
        space = _rank_space(G)
        if xc.rank(G) == k:
            assert space[2]  # counted on the dual
        else:
            assert space[0] is None  # no column set is full rank
        assert xc.exact_vd(G).counts == tuple(brute_force_counts(G, range(k, n + 1)).values())

    def test_rank_deficient_high_rate_ranks_nothing(self, monkeypatch):
        G = repeated_last_row(40, 44, 0)
        full = xc.random_matrix(40, 44, np.random.default_rng(0))
        assert xc.rank(G) == 39 and xc.rank(full) == 40

        def refuse(*args):
            raise AssertionError("rank_batch or _select called on a rank-deficient code")

        gens = [np.random.default_rng(5), np.random.default_rng(5)]
        want = xc.sampled_vd(full, 50, gens[0], max_subsets=1000)
        assert xc.simulate_ps(full, 0.01, 1000, gens[0]).successes > 0
        monkeypatch.setattr(decoding, "rank_batch", refuse)
        monkeypatch.setattr(decoding, "_select", refuse)  # the draws only fill the buffer
        assert xc.exact_vd(G).counts == (0,) * 5
        vd = xc.sampled_vd(G, 50, gens[1], max_subsets=1000)
        assert vd.counts == (0,) * 5 and vd.samples == want.samples
        assert xc.simulate_ps(G, 0.01, 1000, gens[1]).successes == 0
        # a shared Generator moves on exactly as it does for a full-rank code
        assert gens[0].random() == gens[1].random()

    def test_oversized_rank_deficient_high_rate_is_zero_unranked(self, monkeypatch):
        # n - k = 8 is beyond Mobius counting and C(64, 56) beyond enumeration, but
        # below rank k no column set is full rank, so every count is known to be 0
        G = repeated_last_row(56, 64, 0)

        def refuse(*args):
            raise AssertionError("rank_batch called on a rank-deficient code")

        monkeypatch.setattr(decoding, "rank_batch", refuse)
        vd = xc.exact_vd(G)
        assert vd.counts == (0,) * 9 and vd.mode == "exact"

    @pytest.mark.parametrize("code,max_subsets,samples,labels", [
        ("g135", LIMIT, None, ["enumerated"] * 9),
        ("g135", 1, None, ["mobius"] * 9),
        ((3, 7), LIMIT, None, ["enumerated"] * 5),
        ((5, 20), LIMIT, None, ["mobius"] * 16),  # 1,042,380 subsets overflow one block
        ((7, 17), LIMIT, None, ["mobius"] * 11),  # 109,294 subsets overflow one block
        ((7, 16), LIMIT, None, ["enumerated"] * 10),  # 50,643 subsets fit one block
        ((5, 24), LIMIT, None, ["mobius"] * 20),  # C(24, 12) is over the limit
        ((40, 44), LIMIT, None, ["mobius-dual"] * 5),
        ((12, 20), LIMIT, None, ["enumerated"] * 9),  # on its dual: n - k = 8 is over 7
        ((10, 30), 1000, None, None),
        ((20, 40), LIMIT, None, None),
        ((40, 44, "deficient"), LIMIT, None, ["zero"] * 5),
        ((56, 64, "deficient"), LIMIT, None, ["zero"] * 9),
        ("g135", 1000, 50, ["sampled"] * 4 + ["enumerated"] * 5),
        ((40, 44, "deficient"), 1000, 50, ["sampled"] * 2 + ["zero"] * 3),
    ], ids=["g135", "g135-mobius", "7-3", "20-5", "17-7", "16-7", "24-5", "dual-44-40",
            "dual-20-12", "refused-30-10", "refused-40-20", "deficient-44-40",
            "deficient-64-56", "sampled-g135", "sampled-deficient-44-40"])
    def test_ranks_every_subset_once(self, g135, code, max_subsets, samples, labels):
        # the routing table, and the benchmark's traced invariant: rank_batch sees every
        # subset of each enumerated entry and every draw of each sampled one, once
        if code == "g135":
            G = g135
        elif code[-1] == "deficient":
            G = repeated_last_row(*code[:2], 0)
        else:
            G = xc.random_matrix(*code, np.random.default_rng(3))
        k, n = G.shape
        assert xc.rank(G) == k - (code[-1] == "deficient")
        if labels is None:
            with pytest.raises(ValueError, match="exceeds the enumeration limit"):
                decoding._route(_rank_space(G), n, k, max_subsets, samples is not None)
            return
        got, vd, ranked = traced_vd(G, max_subsets, samples)
        assert got == labels
        assert vd.samples == tuple(samples if label == "sampled" else 0 for label in labels)
        assert ranked == routed_sets(n, k, labels, samples)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(small_codes(), st.integers(1, 130), st.none() | st.integers(1, 60))
    def test_labels_match_the_work_done(self, G, max_subsets, samples):
        # every route but the refusal, which needs k and n - k both over 7
        k, n = G.shape
        labels, vd, ranked = traced_vd(G, max_subsets, samples)
        assert ranked == routed_sets(n, k, labels, samples)
        exact = [i for i, label in enumerate(labels) if label != "sampled"]
        want = brute_force_counts(G, [k + i for i in exact])
        assert [vd.counts[i] for i in exact] == list(want.values())
        assert [vd.totals[i] for i in exact] == [math.comb(n, k + i) for i in exact]

    def test_g135_ranks_every_entry_in_one_call(self, g135, monkeypatch):
        shapes = []

        def counting(colsets, rows):
            shapes.append(colsets.shape)
            return rank_batch(colsets, rows)

        monkeypatch.setattr(decoding, "rank_batch", counting)
        assert xc.exact_vd(g135).counts == COUNTS_13_5
        assert shapes == [(7_099, 13, 1)]  # sum over m = 5..13 of C(13, m), padded to 13 columns

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_enumerated_counts_match_brute_force(self, data):
        # sizes with gaps; small chunks split the sizes across blocks and stream them
        G = data.draw(small_codes(), label="G")
        k, n = G.shape
        sizes = sorted(data.draw(st.sets(st.integers(k, n), min_size=1), label="sizes"),
                       reverse=data.draw(st.booleans(), label="descending"))
        chunk = data.draw(st.sampled_from([1, 3, 10, decoding._CHUNK]), label="chunk")
        with mock.patch.object(decoding, "_CHUNK", chunk):
            got = _count_full_rank(_rank_space(G), n, sizes)
        assert dict(zip(sizes, got)) == brute_force_counts(G, sizes)

    @pytest.mark.parametrize("k,n", [(65, 130), (66, 131)], ids=["primal-65", "dual-65"])
    def test_two_limb_enumerated_entries_match_brute_force(self, k, n):
        # rows k-2 and k-1 each have one column (0 and 70), so dropping either loses rank
        a = xc.random_matrix(k, n, np.random.default_rng(k)).to_array()
        a[k - 2:] = 0
        a[k - 2, 0] = a[k - 1, 70] = 1
        G = xc.BinaryMatrix(a)
        packed, rows, dual = _rank_space(G)
        assert rows == 65 and packed.shape == (n, 2) and dual == (n - k < k)
        vd = xc.sampled_vd(G, 2, 0, max_subsets=n)  # only C(n, n - 1) and C(n, n) enumerated
        assert vd.samples[-2:] == (0, 0) and set(vd.samples[:-2]) == {2}
        assert vd.counts[-2:] == tuple(brute_force_counts(G, [n - 1, n]).values()) == (n - 2, 1)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(subset_slices())
    @example((0, 0, 0, 0, 1, np.intp))
    @example((9, 0, 0, 0, 1, np.int32))
    @example((9, 9, 0, 0, 1, np.intp))
    @example((130, 129, 0, 0, 130, np.intp))
    @example((40, 20, 20, 0, 1, np.int32))  # the last of C(40, 20) subsets
    def test_unrank_matches_itertools(self, case):
        n, j, a, start, count, dtype = case
        offset = math.comb(n, j) - math.comb(n - a, j)
        table = _unrank(n, j, offset + start, count, dtype)
        assert table.dtype == dtype and table.shape == (j, count)
        assert table.T.tolist() == [list(c) for c in itertools.islice(
            itertools.combinations(range(a, n), j), start, start + count)]

    def test_cold_unranked_vector_memory_stays_bounded(self):
        # [44,40] ranks on its 4-row dual: C(44, 4) = 135,751 subsets in three unranked
        # blocks, each unranked in one pass; that stays within the bound only because the
        # counter drops each block before it unranks the next (4.3 MiB if it kept one).
        # exact_vd counts this code by Mobius inversion, so the vector is enumerated
        # through sampled_vd with every entry within max_subsets: no entry is sampled
        G = structured_44_40()
        enumerated = functools.partial(xc.sampled_vd, G, 1, 0, max_subsets=math.comb(44, 4))
        assert enumerated().mode == "exact"  # warm-up: imports
        _comb_table.cache_clear()
        tracemalloc.start()
        try:
            vd = enumerated()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _rank_space(G)[2] and vd.totals[0] == math.comb(44, 40)
        assert peak < 4 << 20

    def test_streamed_blocks_are_dropped_before_the_next(self):
        # the cold [44,40] of the memory test: when each block is requested, no unkept
        # (int32) table of the blocks before it may still be reachable
        G = structured_44_40()
        original, alive, streamed = decoding._subset_blocks, [], []

        def watched(n, sizes):
            blocks, refs = original(n, sizes), []
            while True:
                alive.append([ref() is not None for ref in refs])
                block = next(blocks, None)
                if block is None:
                    return
                refs = [weakref.ref(t) for _, t in block if t.dtype == np.int32]
                streamed.extend(t.shape[1] for _, t in block if t.dtype == np.int32)
                yield block
                del block

        with mock.patch.object(decoding, "_subset_blocks", watched):
            vd = xc.sampled_vd(G, 1, 0, max_subsets=math.comb(44, 4))
        assert vd.mode == "exact" and streamed == [65_536, 65_536, 4_679]
        assert not any(itertools.chain.from_iterable(alive))

    def test_subset_blocks_yield_the_empty_subset(self):
        [[(j, table)]] = _subset_blocks(5, [0])
        assert j == 0 and table.shape == (0, 1) and table is _comb_table(5, 0)

    def test_subset_blocks_reuse_one_read_only_table(self):
        [[(_, a)]] = _subset_blocks(13, [5])
        [[(_, b)]] = _subset_blocks(13, [5])
        assert a is b and a.dtype == np.intp and a.shape == (5, 1287)
        assert a.T.tolist() == [list(c) for c in itertools.combinations(range(13), 5)]
        with pytest.raises(ValueError):
            a[0, 0] = 1

    def test_subset_blocks_stream_large_enumerations_unkept(self):
        _comb_table.cache_clear()
        blocks = list(_subset_blocks(44, [4]))
        assert [[(j, t.shape[1], t.dtype) for j, t in b] for b in blocks] == [
            [(4, rows, np.int32)] for rows in (65_536, 65_536, 4_679)]
        assert np.concatenate([t.T for [(_, t)] in blocks]).tolist() == [
            list(c) for c in itertools.combinations(range(44), 4)]
        assert _comb_table.cache_info().currsize == 0

    def test_subset_blocks_share_blocks_up_to_the_chunk(self):
        # C(13, 5..13) sums to 7,099; C(18, 9) + C(18, 8) = 48,620 + 43,758 exceeds 65,536
        assert [[j for j, _ in b] for b in _subset_blocks(13, range(5, 14))] == [
            list(range(5, 14))]
        assert [[(j, t.shape[1]) for j, t in b] for b in _subset_blocks(18, [9, 8, 1, 0])] == [
            [(9, 48_620)], [(8, 43_758), (1, 18), (0, 1)]]

    def test_subset_blocks_hold_masks_in_the_block_of_the_n_subset(self):
        # the [13,5] block holds j = 13, so every size comes as its kept membership mask
        [block] = _subset_blocks(13, range(5, 14))
        [again] = _subset_blocks(13, range(5, 14))
        assert [j for j, _ in block] == list(range(5, 14))
        for (j, mask), (_, same) in zip(block, again):
            assert mask is same is _membership(13, j)
            assert mask.dtype == np.uint8 and mask.shape == (13, math.comb(13, j))
            assert mask.T.tolist() == [[int(c in s) for c in range(13)]
                                       for s in itertools.combinations(range(13), j)]
            with pytest.raises(ValueError):
                mask[0, 0] = 1

    @pytest.mark.parametrize("dtype,limbs", [(np.uint8, 1), (np.uint64, 2)])
    def test_fill_lays_each_subset_over_all_n_rows(self, dtype, limbs):
        # the search's one uint8 limb, and two uint64 limbs as above 64 rows: in column c of
        # every limb, the c-th subset in itertools' order holds its word at each member, 0 elsewhere
        [block] = _subset_blocks(13, range(5, 14))
        words = np.random.default_rng(0).integers(0, np.iinfo(dtype).max, size=(limbs, 13),
                                                  dtype=dtype, endpoint=True)
        bounds = [0, *itertools.accumulate(mask.shape[1] for _, mask in block)]
        sets = decoding._fill(block, bounds, words, 13)
        assert sets.dtype == dtype and sets.shape == (limbs, 13, bounds[-1])
        subsets = [s for j in range(5, 14) for s in itertools.combinations(range(13), j)]
        assert sets.transpose(0, 2, 1).tolist() == [
            [[w[c] if c in s else 0 for c in range(13)] for s in subsets] for w in words.tolist()]

    def test_sampled_high_rate_vector_takes_no_masks(self, monkeypatch):
        # every [40,36] column set is ranked on the 4-row dual, as j = 40 - m <= 4 columns
        G = xc.parse_matrix((Path(__file__).resolve().parent.parent / "testdata"
                             / "h_40_36.txt").read_text())
        widths = []

        def recording(colsets, rows):
            widths.append(colsets.shape[1])
            return rank_batch(colsets, rows)

        def refuse(n, j):
            raise AssertionError("a membership mask was built for a dual vector")

        monkeypatch.setattr(decoding, "rank_batch", recording)
        monkeypatch.setattr(decoding, "_membership", refuse)
        vd = xc.sampled_vd(G, 500, 3, max_subsets=100)
        assert vd.samples == (500,) * 3 + (0,) * 2 and widths and max(widths) <= 40 - 36

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_full_width_and_narrow_blocks_match_brute_force(self, data):
        # a primal code (n - k = 0 or >= k) with the n-subset and other sizes, whose
        # blocks split by a patched _CHUNK: the block of j = n is n-row masks, every
        # other block (j < n) index tables, each counted by one reduction
        k = data.draw(st.integers(1, 4), label="k")
        n = data.draw(st.just(k) | st.integers(2 * k, 9), label="n")
        G = xc.random_matrix(k, n, data.draw(st.integers(0, 99), label="seed"))
        others = st.sets(st.integers(k, n - 1), min_size=1) if n > k else st.just(set())
        sizes = sorted(data.draw(others, label="sizes") | {n},
                       reverse=data.draw(st.booleans(), label="descending"))
        chunk = data.draw(st.integers(1, 2**n), label="chunk")
        original, kinds = decoding._subset_blocks, []

        def watched(n, sizes):
            for block in original(n, sizes):
                kinds.append({(j == n, t.dtype == np.uint8, t.shape[0] == n) for j, t in block})
                yield block

        with mock.patch.object(decoding, "_CHUNK", chunk), \
                mock.patch.object(decoding, "_subset_blocks", watched):
            got = _count_full_rank(_rank_space(G), n, sizes)
        assert dict(zip(sizes, got)) == brute_force_counts(G, sizes)
        masked = [kind for kind in kinds if (True, True, True) in kind]
        assert len(masked) == 1 and masked[0] <= {(True, True, True), (False, True, True)}
        assert all(kind <= {(False, False, False)} for kind in kinds if kind not in masked)

    def test_rejects_zero_max_subsets(self, g135):
        with pytest.raises(ValueError, match="max_subsets"):
            xc.exact_vd(g135, max_subsets=0)

    def test_rejects_more_rows_than_columns(self):
        G = xc.random_matrix(5, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="generator must have k <= n, got 5x3"):
            xc.exact_vd(G)

    def test_monotone_counts(self, vd135):
        fracs = [Fraction(c, t) for c, t in zip(vd135.counts, vd135.totals)]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))


class TestMobius:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_primal_dual_enumeration_and_rank_agree(self, data):
        G = data.draw(small_codes(), label="G")
        k, n = G.shape
        r = xc.rank(G)
        ranks = {j: [xc.rank(xc.select_columns(G, c)) if j else 0
                     for c in itertools.combinations(range(n), j)] for j in range(n + 1)}
        sizes = range(k, n + 1)
        want = [ranks[m].count(k) for m in sizes]
        assert _mobius_counts(column_ints(G), k, sizes, False) == want
        assert _count_full_rank(_rank_space(G), n, sizes) == want
        if r == k < n:
            H = xc.parity_check(G)
            assert _mobius_counts(column_ints(H), n - k, [n - m for m in sizes], True) == want
        # the dual form on G's own columns counts their independent j-subsets
        assert _mobius_counts(column_ints(G), k, range(k + 1), True) == [
            ranks[j].count(j) for j in range(k + 1)]

    def test_subspace_table_holds_every_subspace_once(self):
        for r in range(7):
            # [r choose u]_2: ordered bases of a u-space of F_2^r over those of F_2^u
            want = [math.prod(2**r - 2**i for i in range(u))
                    // math.prod(2**u - 2**i for i in range(u)) for u in range(r + 1)]
            assert [len(t) for t in _subspaces(r)] == want
        table = _subspaces(5)
        assert sum(len(t) for t in table) == 374
        seen = set()
        for u, t in enumerate(table):
            assert t.shape[1] == 2**u and t.dtype == np.uint8 and not t.flags.writeable
            for row in t.tolist():
                elems = frozenset(row)
                assert len(elems) == 2**u and {a ^ b for a in elems for b in elems} == elems
                seen.add(elems)
        assert len(seen) == 374

    @pytest.mark.parametrize("k,n", [(5, 40), (6, 60)], ids=["40-5", "60-6"])
    def test_low_rate_vector_matches_the_codeword_support_oracle(self, k, n):
        # e erasures fail exactly when they cover the support of a nonzero codeword
        G = xc.random_matrix(k, n, np.random.default_rng(n))
        assert xc.rank(G) == k and math.comb(n, n // 2) > xc.EXACT_ENUMERATION_LIMIT
        words = np.array(list(itertools.product([0, 1], repeat=k)))[1:] @ G.array % 2
        weights = np.bincount(words.sum(axis=1), minlength=n + 1).tolist()
        d = next(w for w, a in enumerate(weights) if a)
        assert d >= 3
        vd = xc.exact_vd(G)
        assert vd.mode == "exact" and vd.totals == tuple(math.comb(n, m) for m in range(k, n + 1))
        failures = {n - m: t - c for m, c, t in zip(range(k, n + 1), vd.counts, vd.totals)}
        assert all(failures[e] == 0 for e in range(d))
        assert failures[d] == weights[d]
        assert failures[d + 1] == weights[d + 1] + (n - d) * weights[d]

    def test_high_rate_vector_ranks_nothing(self, monkeypatch):
        G = structured_44_40()
        want = _count_full_rank(_rank_space(G), 44, range(40, 45))

        def refuse(*args):
            raise AssertionError("rank_batch called on a Mobius-counted code")

        monkeypatch.setattr(decoding, "rank_batch", refuse)
        vd = xc.exact_vd(G)
        assert vd.counts == tuple(want) and vd.totals == tuple(math.comb(44, m) for m in range(40, 45))

    def test_overflowing_low_rate_vector_matches_enumeration(self):
        # C(20, m) for m = 5..20 sum past one block, so exact_vd counts [20,5] by Mobius
        G = xc.random_matrix(5, 20, np.random.default_rng(3))
        assert decoding._route(_rank_space(G), 20, 5, LIMIT, False) == ["mobius"] * 16
        assert xc.exact_vd(G).counts == tuple(_count_full_rank(_rank_space(G), 20, range(5, 21)))

    def test_oversized_low_rate_vector_ranks_nothing(self, g135, monkeypatch):
        def refuse(*args):
            raise AssertionError("rank_batch called on a Mobius-counted code")

        monkeypatch.setattr(decoding, "rank_batch", refuse)
        vd = xc.exact_vd(g135, max_subsets=1)
        assert vd.counts == COUNTS_13_5 and vd.totals == TOTALS_13_5

    def test_refusal_names_the_rule(self):
        G = xc.random_matrix(10, 30, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"k = 10 and n - k = 20 both exceed 7.*--samples"):
            xc.exact_vd(G, max_subsets=1000)


class TestSampledVd:
    def test_deterministic(self, g135):
        a = xc.sampled_vd(g135, 500, 7, max_subsets=100)
        b = xc.sampled_vd(g135, 500, 7, max_subsets=100)
        assert (a.rho == b.rho).all()

    def test_exact_entries_flagged(self, g135):
        vd = xc.sampled_vd(g135, 500, 7, max_subsets=1000)
        # C(13,m) <= 1000 exactly when m >= 9, entries 4..8
        assert vd.exact_entries.tolist() == [False] * 4 + [True] * 5
        assert vd.samples == (500,) * 4 + (0,) * 5
        assert (vd.stderr[4:] == 0).all()

    def test_exact_entries_match_enumeration(self, g135, vd135):
        vd = xc.sampled_vd(g135, 100, 3, max_subsets=1000)
        assert (vd.rho[4:] == vd135.rho[4:]).all()

    def test_estimates_near_truth(self, g135, vd135):
        vd = xc.sampled_vd(g135, 4000, 11, max_subsets=100)
        for i in range(len(vd)):
            se = max(vd.stderr[i], 1e-3)
            assert abs(vd.rho[i] - vd135.rho[i]) < 5 * se

    def test_high_rate_entries_lie_near_the_exact_vector(self):
        # a full-rank [60,53]: exact_vd counts it by dual Mobius, so every sampled
        # entry has an exact value to be tested against with its binomial spread
        G = xc.random_matrix(53, 60, np.random.default_rng(60))
        assert xc.rank(G) == 53
        exact = xc.exact_vd(G)
        vd = xc.sampled_vd(G, 3000, 53, max_subsets=2000)
        assert vd.samples == (3000,) * 5 + (0,) * 3  # C(60, m) > 2000 for m = 53..57
        assert vd.counts[5:] == exact.counts[5:]
        for rho, est, s in zip(exact.rho[:5], vd.rho[:5], vd.samples[:5]):
            assert 0 < rho < 1
            assert abs(est - rho) / math.sqrt(rho * (1 - rho) / s) <= 5

    def test_stderr_formula(self, g135):
        vd = xc.sampled_vd(g135, 250, 5, max_subsets=100)
        for i, est in enumerate(vd.rho):
            if not vd.exact_entries[i]:
                assert vd.stderr[i] == pytest.approx(math.sqrt(est * (1 - est) / 250))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_counted_record_property(self, data):
        k = data.draw(st.integers(1, 5), label="k")
        n = data.draw(st.integers(k, 9), label="n")
        bits = data.draw(st.lists(st.integers(0, 1), min_size=k * n, max_size=k * n),
                         label="bits")
        G = xc.BinaryMatrix(np.array(bits, dtype=np.uint8).reshape(k, n))
        max_subsets = data.draw(st.integers(1, 130), label="max_subsets")
        samples = data.draw(st.integers(1, 60), label="samples")
        vd = xc.sampled_vd(G, samples, data.draw(st.integers(0, 2**32 - 1), label="seed"),
                           max_subsets=max_subsets)
        exact = xc.exact_vd(G)
        sampled = [math.comb(n, m) > max_subsets for m in range(k, n + 1)]
        for i, is_sampled in enumerate(sampled):
            if is_sampled:
                assert vd.samples[i] == vd.totals[i] == samples
                assert 0 <= vd.counts[i] <= samples
            else:
                assert vd.samples[i] == 0
                assert (vd.counts[i], vd.totals[i]) == (exact.counts[i], exact.totals[i])
        assert vd.rho.tolist() == [c / t for c, t in zip(vd.counts, vd.totals)]
        assert vd.stderr.tolist() == pytest.approx(
            [math.sqrt(x * (1 - x) / samples) if s else 0.0 for x, s in zip(vd.rho, sampled)])
        assert (vd.mode == "exact") == (not any(sampled))

    def test_draws_recount_on_the_generator(self, g135):
        # regenerate each sampled entry's draws and rank them on G itself, for dual and
        # primal codes: 300 draws in one block of the default budget, then with a budget of
        # 128 rows per block, 300 draws (128, 128 and 44), one block, and one block + 1.
        # On the [40,36] dual, j = 2 and 3 take argmax passes and j = 4 argpartition; on
        # the primal [40,3], m = 3 takes argmin passes and larger m argpartition
        for G, max_subsets in [(high_rate_96(), 1), (g135, 100),
                               (xc.random_matrix(36, 40, 0), 100),
                               (xc.random_matrix(3, 40, 0), 100)]:
            assert xc.rank(G) == G.rows
            k, n = G.shape
            sampled = [m for m in range(k, n + 1) if math.comb(n, m) > max_subsets]
            for budget, draws in [(decoding._STREAM_BYTES, 300), (128 * 8 * n, 300),
                                  (128 * 8 * n, 128), (128 * 8 * n, 129)]:
                gen, ref = np.random.default_rng(17), np.random.default_rng(17)
                with mock.patch.object(decoding, "_STREAM_BYTES", budget):
                    vd = xc.sampled_vd(G, draws, gen, max_subsets=max_subsets)
                for i, m in enumerate(sampled):
                    sets = np.argsort(ref.random((draws, n)), axis=1)[:, :m]
                    hits = sum(xc.rank(xc.select_columns(G, sorted(s))) == k
                               for s in sets.tolist())
                    assert (vd.samples[i], vd.counts[i]) == (draws, hits)
                assert gen.random() == ref.random()  # a shared Generator moves on by the draws
                assert vd.samples[len(sampled):] == (0,) * (n - k + 1 - len(sampled))
                assert vd.counts[-1] == 1

    def test_sampling_memory_stays_bounded(self):
        # a block's (1213, 108) draws fill the one 1 MiB buffer, and the [300,296] code's
        # three entries sampled on its 4-row dual take (436, 300) blocks; keeping a block
        # past its turn, or a block size that grows with n, would lift the peak past the bound
        for G, samples, max_subsets, bound in [
                (xc.random_matrix(100, 108, 3), 20_000, 100, 8 << 20),
                (xc.random_matrix(296, 300, np.random.default_rng(0)), 5000, 1000, 4 << 20)]:
            assert xc.rank(G) == G.rows
            assert sampling_peak(G, samples, max_subsets) < bound

    def test_narrow_sides_hold_one_draw_buffer(self):
        # every sampled side of these duals (j <= 8 of 108, j <= 4 of 300) is taken by
        # passes over the one 1 MiB buffer, with no argpartition of the same size
        # beside it: about 1.1 and 1.0 MiB, against 2.0 MiB for both when drawn afresh
        for G, samples, max_subsets in [
                (xc.random_matrix(100, 108, 3), 20_000, 100),
                (xc.random_matrix(296, 300, np.random.default_rng(0)), 5000, 1000)]:
            assert sampling_peak(G, samples, max_subsets) < 1.5 * (1 << 20)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(selections())
    @example((40, 37, True, 5, 0))  # w = 3: argmax passes
    @example((40, 36, True, 5, 0))  # w = 4: argpartition
    @example((40, 3, False, 5, 0))  # argmin passes
    @example((40, 4, False, 5, 0))  # argpartition
    def test_select_takes_each_rows_side(self, case):
        n, m, dual, rows, seed = case
        draws = np.random.default_rng(seed).random((rows, n))
        order = np.argsort(draws, axis=1)
        want = order[:, m:] if dual else order[:, :m]
        table = _select(draws, m, dual)
        assert table.dtype == np.int32 and table.shape == (want.shape[1], rows)
        assert [set(r) for r in table.T.tolist()] == [set(r) for r in want.tolist()]

    def test_all_exact_when_threshold_high(self, g135, vd135):
        vd = xc.sampled_vd(g135, 10, 0)
        assert vd.exact_entries.all()
        assert (vd.rho == vd135.rho).all()

    def test_rejects_bad_sample_count(self, g135):
        with pytest.raises(ValueError, match="samples_per_entry"):
            xc.sampled_vd(g135, 0, 1)

    def test_rejects_zero_max_subsets(self, g135):
        with pytest.raises(ValueError, match="max_subsets"):
            xc.sampled_vd(g135, 10, 0, max_subsets=0)

    def test_rejects_more_rows_than_columns(self):
        G = xc.random_matrix(5, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="generator must have k <= n, got 5x3"):
            xc.sampled_vd(G, 10, 0)


class TestPSuccess:
    def test_golden_reference_point(self, vd135):
        assert xc.p_success(vd135, 0.1).p_s == pytest.approx(PS_13_5_AT_01, abs=1e-12)

    def test_no_erasures(self, vd135):
        pt = xc.p_success(vd135, 0.0)
        assert pt.p_s == pytest.approx(float(vd135.rho[-1]))

    def test_all_erased(self, vd135):
        assert xc.p_success(vd135, 1.0).p_s == 0.0

    def test_identity_code_closed_form(self):
        # [5,5]: success needs all five packets through
        vd = xc.exact_vd(xc.BinaryMatrix.identity(5))
        pt = xc.p_success(vd, 0.2)
        assert pt.p_s == pytest.approx(0.8 ** 5, rel=1e-12)
        assert pt.p_u == pytest.approx(1 - 0.8 ** 5, rel=1e-12)

    def test_rejects_bad_p(self, vd135):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            xc.p_success(vd135, 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            xc.p_success(vd135, -0.1)

    def test_nonincreasing_in_p(self, vd135):
        grid = np.linspace(0.0, 1.0, 101)
        values = [xc.p_success(vd135, p).p_s for p in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_loss_terms_sum_to_one(self):
        for n in (13, 61, 108):
            total = sum(_loss_table(n, (0.23,))[0].tolist())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_log_route_matches_direct_products(self):
        # n=61 takes the logarithm branch; n<=60 the integer one
        terms = _loss_table(61, (0.3,))[0].tolist()
        for i in (0, 7, 30, 61):
            direct = math.comb(61, i) * 0.3 ** i * 0.7 ** (61 - i)
            assert terms[i] == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("n,k", [(13, 5), (61, 53), (108, 100)])
    def test_matches_the_per_term_formula_exactly(self, n, k):
        def loss_term(i, p):
            if n <= 60:
                return math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
            if p in (0.0, 1.0):
                return float(i == (0 if p == 0.0 else n))
            logc = math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            return math.exp(logc + i * math.log(p) + (n - i) * math.log1p(-p))

        vd = xc.rlnc_vd(n, k, 2)
        for p in np.linspace(0.0, 1.0, 51).tolist():
            p_u1 = p_u2 = 0.0
            for i in range(n - k + 1):
                p_u1 += loss_term(i, p) * (1.0 - float(vd.rho[n - k - i]))
            for i in range(n - k + 1, n + 1):
                p_u2 += loss_term(i, p)
            p_u = min(max(p_u1 + p_u2, 0.0), 1.0)
            assert xc.p_success(vd, p) == xc.ChannelPoint(p, 1.0 - p_u, p_u)

    @pytest.mark.parametrize("k,n,seed", [(40, 44, 16), (56, 64, 0)])
    def test_rank_deficient_code_never_decodes(self, k, n, seed):
        # an all-zero vector gives exactly p_s = 0 and p_u = 1, not the rounding
        # residue of 1 - p_u; n = 64 takes the logarithm branch of _loss_table
        vd = xc.exact_vd(repeated_last_row(k, n, seed))
        for p in (0.02, 0.3):
            assert xc.p_success(vd, p) == xc.ChannelPoint(p, 0.0, 1.0)

    def test_large_n_edges(self):
        vd = xc.rlnc_vd(70, 60, 2)
        assert xc.p_success(vd, 0.0).p_s == pytest.approx(float(vd.rho[-1]))
        assert xc.p_success(vd, 1.0).p_s == 0.0

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(sweep_cases())
    @example((xc.rlnc_vd(60, 52, 2), [0.0, 0.3, 1.0]))
    @example((xc.rlnc_vd(61, 53, 2), [0.0, 0.3, 1.0]))
    @example((xc.rlnc_vd(44, 40, 2), [i * 0.01 for i in range(51)]))  # the CLI's default grid
    @example((xc.rlnc_vd(108, 100, 2), [i * 0.01 for i in range(51)]))
    @example((xc.DecodingVector(7, 7, [1.0]), [-0.0, 0.5, 1.0]))
    @example((xc.DecodingVector(70, 64, [0.0] * 7), [0.0, 0.02, 1.0]))
    @example((xc.rlnc_vd(13, 5, 2), []))
    @example((xc.rlnc_vd(70, 60, 2), []))
    def test_sweep_matches_the_per_point_oracle(self, case):
        vd, ps = case
        assert point_bits(xc.channel_sweep(vd, ps)) == point_bits(oracle_point(vd, p) for p in ps)
        for p in ps:
            assert point_bits([xc.p_success(vd, p)]) == point_bits(xc.channel_sweep(vd, [p]))
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError) as want:
                oracle_point(vd, bad)
            with pytest.raises(ValueError) as got:
                xc.p_success(vd, bad)
            assert str(got.value) == str(want.value)
            with pytest.raises(ValueError) as got:
                xc.channel_sweep(vd, [*ps, bad, 0.5])
            assert str(got.value) == str(want.value)

    def test_long_grid_is_tabulated_in_bounded_blocks(self):
        # at n = 130 a 1 MiB block holds 1,000 rows, so 5,001 points take six blocks; one
        # table of them all would fill 5.2 MB, and its table of exp arguments as much again
        vd = xc.rlnc_vd(130, 122, 2)
        grid = [i / 5000 for i in range(5001)]
        tracemalloc.start()
        points = xc.channel_sweep(vd, grid)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 6 * 2**20
        assert point_bits(points) == point_bits(oracle_point(vd, p) for p in grid)

    def test_channel_sweep(self, vd135):
        pts = xc.channel_sweep(vd135, [0.0, 0.1, 0.2])
        assert len(pts) == 3
        assert pts[1].p_s == pytest.approx(PS_13_5_AT_01, abs=1e-12)
        for pt in pts:
            assert pt.p_s + pt.p_u == pytest.approx(1.0, abs=1e-12)


class TestChannelPoint:
    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError, match="equal 1"):
            xc.ChannelPoint(p=0.1, p_s=0.9, p_u=0.2)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            xc.ChannelPoint(p=1.2, p_s=1.0, p_u=0.0)


class TestRlnc:
    def test_below_k_is_zero(self):
        assert xc.rlnc_P(4, 5, 2) == 0.0
        assert xc.rlnc_P(0, 1, 2) == 0.0

    def test_frozen_value(self):
        # product (1 - 2^-1)(1 - 2^-2)...(1 - 2^-5) shifted to I = k = 5
        assert xc.rlnc_P(5, 5, 2) == 0.298004150390625

    def test_frozen_value_q4(self):
        assert xc.rlnc_P(5, 5, 4) == pytest.approx(0.6887617288157344, rel=1e-15)

    def test_rejects_small_field(self):
        with pytest.raises(ValueError, match="field size"):
            xc.rlnc_P(5, 5, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            xc.rlnc_P(5, 0, 2)

    def test_vd_shape_and_mode(self):
        vd = xc.rlnc_vd(13, 5, 2)
        assert vd.mode == "exact"
        assert vd.counts is None
        assert len(vd) == 9
        assert vd.rho[0] == 0.298004150390625

    def test_vd_monotone(self):
        vd = xc.rlnc_vd(20, 6, 2)
        assert (np.diff(vd.rho) > 0).all()

    def test_vd_rejects_n_below_k(self):
        with pytest.raises(ValueError, match="n >= k"):
            xc.rlnc_vd(4, 5, 2)


class TestIsMds:
    def test_identity_is_mds(self):
        assert xc.is_mds(xc.exact_vd(xc.BinaryMatrix.identity(4)))

    def test_golden_is_not(self, vd135):
        assert not xc.is_mds(vd135)

    def test_rejects_sampled(self, g135):
        vd = xc.sampled_vd(g135, 100, 0, max_subsets=100)
        with pytest.raises(ValueError, match="requires exact V_D"):
            xc.is_mds(vd)

    def test_analytic_vector_without_counts(self):
        ones = xc.DecodingVector(6, 5, [1.0, 1.0])
        assert xc.is_mds(ones)
        assert not xc.is_mds(xc.rlnc_vd(6, 5, 2))


SIMULATED_CODES = [
    (xc.random_matrix(5, 13, np.random.default_rng(2)), 0.3),  # primal
    (high_rate_96(), 0.25),  # dual
    (repeated_last_row(6, 9, 3), 0.1),  # rank deficient
    (xc.random_matrix(12, 24, np.random.default_rng(4)), 0.05),  # primal, uint32 keys
    (xc.random_matrix(64, 70, np.random.default_rng(5)), 0.01),  # dual, two uint64 limbs
]


class TestSimulatePs:
    def test_no_erasures_full_rank(self, g135):
        res = xc.simulate_ps(g135, 0.0, 500, 1)
        assert res.estimate == 1.0
        assert res.successes == res.trials == 500
        assert res.stderr == 0.0

    def test_all_erased(self, g135):
        res = xc.simulate_ps(g135, 1.0, 500, 1)
        assert res.estimate == 0.0

    def test_deterministic(self, g135):
        a = xc.simulate_ps(g135, 0.1, 20_000, 42)
        b = xc.simulate_ps(g135, 0.1, 20_000, 42)
        assert a == b

    def test_agrees_with_analytic(self, g135, vd135):
        res = xc.simulate_ps(g135, 0.3, 200_000, 2024)
        truth = xc.p_success(vd135, 0.3).p_s
        se = math.sqrt(truth * (1 - truth) / res.trials)
        assert abs(res.estimate - truth) < 4 * se

    def test_trials_recount_on_the_generator(self):
        G = high_rate_96()
        res = xc.simulate_ps(G, 0.2, 2000, 23)
        keep = np.random.default_rng(23).random((2000, 9)) >= 0.2
        want = sum(row.any() and xc.rank(xc.select_columns(G, np.flatnonzero(row))) == 6
                   for row in keep)
        assert res.successes == want
        assert 0 < want < 2000

    @pytest.mark.parametrize("G,p,size", [
        *[pytest.param(G, p, "two-chunks-and-4321", id=f"G{i}-{p}")
          for i, (G, p) in enumerate(SIMULATED_CODES)],
        *[pytest.param(G, p, size, id=f"G{i}-{p}-{size}")
          for i, (G, p) in enumerate(SIMULATED_CODES[:3])
          for size in ("1-trial", "one-block", "one-block-plus-1", "one-chunk")],
    ])
    def test_multi_chunk_trials_recount_on_the_generator(self, G, p, size):
        k, n = G.shape
        block = decoding._STREAM_BYTES // (8 * n)  # trials of one draw block
        chunk = decoding._SIMULATION_CHUNK_BYTES // (8 * n)
        trials = {"two-chunks-and-4321": 2 * chunk + 4321, "1-trial": 1, "one-block": block,
                  "one-block-plus-1": block + 1, "one-chunk": chunk}[size]
        gen, ref = np.random.default_rng(17), np.random.default_rng(17)
        res = xc.simulate_ps(G, p, trials, gen)
        keep = ref.random((trials, n)) >= p
        assert gen.random() == ref.random()  # a shared Generator moves on by the trials alone
        rows, weight = np.unique(keep, axis=0, return_counts=True)
        want = sum(int(w) for row, w in zip(rows, weight)
                   if row.any() and xc.rank(xc.select_columns(G, np.flatnonzero(row))) == k)
        assert res.successes == want
        assert (0 < want < trials) == (xc.rank(G) == k) or trials == 1

    def test_high_rate_estimate_lies_near_the_exact_p_success(self):
        G = xc.random_matrix(57, 64, np.random.default_rng(64))
        assert xc.rank(G) == 57
        truth = xc.p_success(xc.exact_vd(G), 0.06).p_s
        res = xc.simulate_ps(G, 0.06, 10**6, 57)
        assert 0 < truth < 1
        assert abs(res.estimate - truth) / math.sqrt(truth * (1 - truth) / res.trials) <= 5

    def test_simulation_memory_stays_bounded(self):
        # four chunks of 13,107 trials at n = 80, each drawn through a 1 MiB buffer and
        # packed into one reused array of keys, and ranked in blocks of at most 1 MiB of
        # uint64 sets, peak at about 4.3 MiB; the test below holds that to a tighter bound
        G = xc.random_matrix(40, 80, np.random.default_rng(1))
        xc.simulate_ps(G, 0.4, 50_000, 1)  # warm-up: imports
        tracemalloc.start()
        try:
            xc.simulate_ps(G, 0.4, 50_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 << 20

    @pytest.mark.parametrize("G,trials,bound", [
        # 80,659-trial chunks of 13 columns: a 1 MiB draw block, the 161 kB mask of its
        # rows and the chunk's 161 kB of uint16 keys, about 1.9 MiB in all
        (xc.random_matrix(5, 13, np.random.default_rng(2)), 10**6, 4 << 20),
        # 13,107-trial chunks of 80 columns: a 1 MiB draw block, the chunk's 210 kB of
        # two-limb keys, 1 MB of distinct patterns and a 1 MiB block of sets, about 4.3 MiB
        (xc.random_matrix(40, 80, np.random.default_rng(1)), 50_000, 8 << 20),
        # 524,288-trial chunks of 2 columns: a 1 MiB draw block, its 1 MiB mask of 16
        # padded columns and 1 MiB of uint16 chunk keys and their sorted copy, about 5.5 MiB
        (xc.BinaryMatrix(np.array([[1, 1]], dtype=np.uint8)), 10**6, 8 << 20),
    ], ids=["13-5", "80-40", "2-1"])
    def test_simulation_holds_one_draw_block_and_one_set_block(self, G, trials, bound):
        xc.simulate_ps(G, 0.4, trials, 1)  # warm-up: imports
        tracemalloc.start()
        try:
            xc.simulate_ps(G, 0.4, trials, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_ranks_patterns_in_the_packed_word(self, g135, monkeypatch):
        want = xc.simulate_ps(g135, 0.3, 5000, 9)
        dtypes = []

        def recording(colsets, rows):
            dtypes.append(colsets.dtype)
            return rank_batch(colsets, rows)

        monkeypatch.setattr(decoding, "rank_batch", recording)
        assert xc.simulate_ps(g135, 0.3, 5000, 9) == want
        assert dtypes == [np.uint8]

    def test_rejects_bad_args(self, g135):
        with pytest.raises(ValueError, match="trials"):
            xc.simulate_ps(g135, 0.1, 0, 1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            xc.simulate_ps(g135, -0.5, 10, 1)


class TestDistinctRows:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_groups_equal_rows(self, data):
        n = data.draw(st.sampled_from([1, 7, 8, 13, 15, 16, 17, 32, 33, 63, 64, 65, 108]),
                      label="n")
        base = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                  min_size=1, max_size=4), label="base")
        pool = []
        for row in base:
            pool.append(row)
            pool.append(row[:-1] + [not row[-1]])  # differs in the last column only
            if n > 64:  # differs in the second limb only
                j = data.draw(st.integers(64, n - 1), label="j")
                pool.append(row[:j] + [not row[j]] + row[j + 1:])
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40),
                          label="picks")
        a = np.array([pool[i] for i in picks], dtype=bool).reshape(len(picks), n)
        mask = np.zeros((len(a), _mask_width(n)), dtype=bool)
        mask[:, :n] = a
        word = min(mask.shape[1], 64)
        keys = np.packbits(mask).view(f"u{word // 8}").reshape(len(a), -1)
        before = keys.copy()
        reps, weight = _distinct_rows(keys, n)
        assert np.array_equal(keys, before)
        keys = [r.tobytes() for r in reps]
        assert reps.dtype == bool and reps.shape[1] == n
        assert len(set(keys)) == len(keys)
        assert {r.tobytes() for r in a} == set(keys)
        assert weight.sum() == len(a)
        assert weight.tolist() == [sum(r.tobytes() == key for r in a) for key in keys]


class TestCsvRendering:
    def test_vd_csv_golden(self, vd135):
        lines = xc.vd_csv(vd135).splitlines()
        assert lines[0] == "i,rho,mode,stderr"
        assert lines[1] == "0,0.615384615,exact,0.0"
        assert lines[5] == "4,1.0,exact,0.0"
        assert len(lines) == 10

    def test_vd_csv_sampled_modes(self, g135):
        vd = xc.sampled_vd(g135, 200, 3, max_subsets=1000)
        lines = xc.vd_csv(vd).splitlines()
        assert ",sampled," in lines[1]
        assert lines[-1].endswith("exact,0.0")

    def test_sweep_csv(self, vd135):
        pts = xc.channel_sweep(vd135, [0.0, 0.5])
        lines = xc.sweep_csv(pts).splitlines()
        assert lines[0] == "p,p_s,p_u"
        assert lines[1] == "0.0,1.0,0.0"
        assert lines[2].startswith("0.5,")

    def test_whole_values_keep_decimal_point(self):
        ones = xc.DecodingVector(6, 5, [1.0, 1.0])
        body = xc.vd_csv(ones)
        assert "1.0,exact" in body
        assert "\n1,exact" not in body

    @pytest.mark.parametrize("x,want", [
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
        (np.float64("inf"), "inf"), (3.0, "3.0"), (1e20, "1e+20"),
    ])
    def test_format_float_non_finite_plain(self, x, want):
        assert format_float(x) == want


class TestDisplayRound:
    @pytest.mark.parametrize("x,want", [
        (0.6153846153846154, 0.615),
        (0.8951048951048951, 0.895),
        (0.9995, 1.0),
        (0.0005, 0.001),
        (-0.0005, -0.001),
        (1.0, 1.0),
        # non-finite values pass through; a huge one has nothing to round
        (math.inf, math.inf),
        (-math.inf, -math.inf),
        (1e300, 1e300),
    ])
    def test_half_away_from_zero(self, x, want):
        assert xc.display_round(x) == want

    def test_other_precision(self):
        assert xc.display_round(0.25, 1) == 0.3
