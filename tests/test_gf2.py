import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xorcodes as xc
from xorcodes import gf2
from xorcodes.gf2 import pack_columns, rank_batch


def span_size(mat: np.ndarray) -> int:
    """Independent rank check: count distinct XOR combinations of the rows."""
    seen = {bytes(mat.shape[1])}
    for bits in range(1, 2 ** mat.shape[0]):
        v = np.zeros(mat.shape[1], dtype=np.uint8)
        for i in range(mat.shape[0]):
            if bits >> i & 1:
                v ^= mat[i]
        seen.add(v.tobytes())
    return len(seen)


def python_int_ranks(colsets: np.ndarray, k: int) -> list[int]:
    """Oracle: the python-int rank of each packed collection, unpacked to k x m."""
    N, m, _ = colsets.shape
    if not m:
        return [0] * N
    bits = np.unpackbits(colsets.astype("<u8").view(np.uint8), axis=2, bitorder="little")
    return [xc.rank(xc.BinaryMatrix(b[:, :k].T)) for b in bits]


def rref_parity_check(a: np.ndarray) -> list[list[int]]:
    """Oracle: H read off the reduced row echelon form of a, eliminated one column at a
    time on rows held as python ints (bit c = column c); [] at full column rank."""
    k, n = a.shape
    rows = [sum(x << c for c, x in enumerate(row)) for row in a.tolist()]
    pivots = []
    for c in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, k) if rows[i] >> c & 1), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows = [row ^ rows[r] if i != r and row >> c & 1 else row for i, row in enumerate(rows)]
        pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    return [[rows[pivots.index(c)] >> f & 1 if c in pivots else int(c == f) for c in range(n)]
            for f in free]


class TestBinaryMatrix:
    def test_basic_properties(self):
        M = xc.BinaryMatrix([[1, 0, 1], [0, 1, 1]])
        assert M.shape == (2, 3)
        assert M.rows == 2 and M.cols == 3
        assert M.array.dtype == np.uint8

    def test_rejects_non_binary(self):
        for entries in ([[0, 2], [1, 0]], [["0", "1"]], [[0.5, 1]], [[1, 2.0]],
                        [[0, -1]], [[0, 256]], [[0, 1e300]]):
            with pytest.raises(ValueError, match="0 or 1"):
                xc.BinaryMatrix(entries)

    def test_accepts_binary_floats_and_bools(self):
        for entries in ([[0.0, 1.0]], [[True, False]], [[1, -0.0]]):
            assert xc.BinaryMatrix(entries).array.tolist() == [[int(x) for x in entries[0]]]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="2-d"):
            xc.BinaryMatrix([1, 0, 1])
        with pytest.raises(ValueError):
            xc.BinaryMatrix(np.zeros((0, 3), dtype=np.uint8))

    def test_array_is_readonly(self):
        M = xc.BinaryMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            M.array[0, 0] = 0

    def test_to_array_returns_copy(self):
        M = xc.BinaryMatrix([[1, 0], [0, 1]])
        a = M.to_array()
        a[0, 0] = 0
        assert M.array[0, 0] == 1

    def test_constructor_copies_input(self):
        src = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        M = xc.BinaryMatrix(src)
        src[0, 0] = 0
        assert M.array[0, 0] == 1

    def test_identity_and_zeros(self):
        assert (xc.BinaryMatrix.identity(3).array == np.eye(3, dtype=np.uint8)).all()
        assert xc.BinaryMatrix.zeros(2, 4).array.sum() == 0

    def test_equality_and_hash(self):
        a = xc.BinaryMatrix([[1, 0], [0, 1]])
        b = xc.BinaryMatrix.identity(2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != xc.BinaryMatrix.zeros(2, 2)
        assert a != "not a matrix"


class TestRank:
    def test_identity(self):
        assert xc.rank(xc.BinaryMatrix.identity(7)) == 7

    def test_zeros(self):
        assert xc.rank(xc.BinaryMatrix.zeros(3, 5)) == 0

    def test_duplicate_rows(self):
        assert xc.rank(xc.BinaryMatrix([[1, 1, 0], [1, 1, 0]])) == 1

    def test_xor_dependency(self):
        # third row is the XOR of the first two
        M = xc.BinaryMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
        assert xc.rank(M) == 2

    def test_golden_matrix(self, g135):
        assert xc.rank(g135) == 5
        assert xc.rank(xc.select_columns(g135, range(5))) == 5

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_span_count(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 9))
        M = xc.random_matrix(r, c, rng)
        assert 2 ** xc.rank(M) == span_size(M.to_array())

    def test_wide_matrix(self):
        # 80 columns forces multi-word packed rows
        rng = np.random.default_rng(5)
        M = xc.random_matrix(4, 80, rng)
        assert 2 ** xc.rank(M) == span_size(M.to_array())


class TestIsNonsingular:
    def test_identity(self):
        assert xc.is_nonsingular(xc.BinaryMatrix.identity(4))

    def test_singular(self):
        assert not xc.is_nonsingular(xc.BinaryMatrix([[1, 1], [1, 1]]))

    def test_requires_square(self):
        with pytest.raises(ValueError, match="not square"):
            xc.is_nonsingular(xc.BinaryMatrix.zeros(2, 3))


class TestParityCheck:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_spans_the_null_space(self, data):
        k = data.draw(st.integers(1, 8), label="k")
        n = data.draw(st.integers(1, 12), label="n")
        bits = data.draw(st.lists(st.integers(0, 1), min_size=k * n, max_size=k * n),
                         label="bits")
        a = np.array(bits, dtype=np.uint8).reshape(k, n)
        # repeat the first r rows below them, so rank(M) <= r
        r = data.draw(st.integers(1, k), label="r")
        a[r:] = a[np.arange(r, k) % r]
        M = xc.BinaryMatrix(a)
        if xc.rank(M) == n:
            with pytest.raises(ValueError, match="full column rank"):
                xc.parity_check(M)
            return
        H = xc.parity_check(M)
        assert H.cols == n
        assert not (M.array.astype(int) @ H.array.T.astype(int) % 2).any()
        assert H.rows == xc.rank(H) == n - xc.rank(M)

    def test_rejects_full_column_rank(self):
        with pytest.raises(ValueError, match="full column rank"):
            xc.parity_check(xc.BinaryMatrix.identity(4))

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_is_the_reduced_echelon_basis(self, data):
        # random, sparse and rank-deficient matrices, up to 70 columns (9 bytes, 2 words)
        k = data.draw(st.integers(1, 30), label="k")
        n = data.draw(st.integers(1, 70), label="n")
        density = data.draw(st.sampled_from([0.03, 0.15, 0.5, 0.9]), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        a = (rng.random((k, n)) < density).astype(np.uint8)
        # rows r..k-1 are sums of two rows above them, so rank(M) <= r
        r = data.draw(st.integers(1, k), label="r")
        for i in range(r, k):
            a[i] = a[rng.integers(i)] ^ a[rng.integers(i)]
        want = rref_parity_check(a)
        if not want:
            with pytest.raises(ValueError, match="full column rank"):
                xc.parity_check(xc.BinaryMatrix(a))
            return
        assert xc.parity_check(xc.BinaryMatrix(a)).array.tolist() == want

    @pytest.mark.parametrize("k,n,seed,deficient", [(296, 300, 0, False), (100, 108, 1, True),
                                                    (20, 64, 2, True)])
    def test_large_matrix_is_the_reduced_echelon_basis(self, k, n, seed, deficient):
        a = xc.random_matrix(k, n, seed).to_array()
        if deficient:
            a[-1] = a[0]
        assert xc.parity_check(xc.BinaryMatrix(a)).array.tolist() == rref_parity_check(a)


class TestSelectColumns:
    def test_picks_columns(self, g135):
        sub = xc.select_columns(g135, [0, 5, 12])
        assert sub.shape == (5, 3)
        assert (sub.array[:, 1] == 1).all()

    def test_rejects_unsorted(self, g135):
        with pytest.raises(ValueError, match="strictly increasing"):
            xc.select_columns(g135, [3, 1])
        with pytest.raises(ValueError, match="strictly increasing"):
            xc.select_columns(g135, [2, 2])

    def test_rejects_out_of_range(self, g135):
        with pytest.raises(ValueError, match="out of range"):
            xc.select_columns(g135, [0, 13])

    def test_rejects_empty(self, g135):
        with pytest.raises(ValueError, match="at least one"):
            xc.select_columns(g135, [])


class TestRandomMatrix:
    def test_shape_and_values(self):
        M = xc.random_matrix(4, 9, np.random.default_rng(0))
        assert M.shape == (4, 9)
        assert set(np.unique(M.array)) <= {0, 1}

    def test_deterministic(self):
        a = xc.random_matrix(5, 8, np.random.default_rng(123))
        b = xc.random_matrix(5, 8, np.random.default_rng(123))
        assert a == b

    def test_roughly_balanced(self):
        M = xc.random_matrix(40, 40, np.random.default_rng(1))
        density = M.array.mean()
        assert 0.4 < density < 0.6

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            xc.random_matrix(0, 3, np.random.default_rng(0))


class TestRankBatch:
    # k on both sides of the uint8, uint16 and uint32 working words
    @pytest.mark.parametrize("k,n", [(3, 6), (5, 13), (8, 8), (9, 13), (16, 20), (17, 21),
                                     (32, 36), (33, 37)])
    def test_matches_scalar_rank(self, k, n):
        rng = np.random.default_rng(k * 100 + n)
        mats = [xc.random_matrix(k, n, rng) for _ in range(50)]
        batch = np.stack([pack_columns(m.array) for m in mats])
        got = rank_batch(batch, k)
        want = [xc.rank(m) for m in mats]
        assert got.tolist() == want

    @pytest.mark.parametrize("k", [63, 64, 65, 100, 128, 129])
    def test_multiword_rows(self, k):
        # row counts straddling the 64-bit word boundaries
        rng = np.random.default_rng(k)
        mats = [xc.random_matrix(k, k + 4, rng) for _ in range(6)]
        batch = np.stack([pack_columns(m.array) for m in mats])
        got = rank_batch(batch, k)
        want = [xc.rank(m) for m in mats]
        assert got.tolist() == want

    def test_zero_column_padding_is_inert(self):
        rng = np.random.default_rng(9)
        M = xc.random_matrix(6, 9, rng)
        packed = pack_columns(M.array)
        padded = np.concatenate([packed, np.zeros((3, packed.shape[1]), dtype=np.uint64)])
        assert rank_batch(padded[None], 6)[0] == xc.rank(M)

    def test_partial_last_block_across_two_limbs(self):
        # k = 100 spans two limbs; N leaves a partial block after two full ones
        k, n = 100, 104
        per_block = gf2._BLOCK_BYTES // (n * 2 * 8)
        rng = np.random.default_rng(5)
        mats = []
        for _ in range(2 * per_block + 37):
            r = int(rng.integers(90, k + 1))  # rank at most r
            a = rng.integers(0, 2, size=(k, r)) @ rng.integers(0, 2, size=(r, n)) % 2
            mats.append(xc.BinaryMatrix(a))
        got = rank_batch(np.stack([pack_columns(m.array) for m in mats]), k)
        assert got.tolist() == [xc.rank(m) for m in mats]
        assert len(set(got.tolist())) > 1

    def test_narrow_word_view_ranks_as_uint64(self):
        # a (1, width, N) limb-major uint8 block as (N, width, 1), the layout decoding hands
        # in; at width 64, zero-padded past column 9, N spans two blocks of one byte per
        # column and part of a third
        rng = np.random.default_rng(13)
        for width, count in [(9, 300), (64, 2 * (gf2._BLOCK_BYTES // 64) + 37)]:
            mats = [xc.random_matrix(5, 9, rng) for _ in range(count)]
            wide = np.zeros((count, width, 1), dtype=np.uint64)
            wide[:, :9] = np.stack([pack_columns(m.array) for m in mats])
            block = np.ascontiguousarray(wide[:, :, 0].T.astype(np.uint8))
            view = block[None].transpose(2, 1, 0)
            assert view.shape == wide.shape and not view.flags.c_contiguous
            assert rank_batch(view, 5).tolist() == rank_batch(wide, 5).tolist() == [
                xc.rank(m) for m in mats]

    @pytest.mark.parametrize("dtype,limbs", [(np.int64, 1), (np.uint32, 2)])
    def test_rejects_words_that_are_not_unsigned_limbs(self, dtype, limbs):
        with pytest.raises(ValueError, match="unsigned word"):
            rank_batch(np.zeros((2, 3, limbs), dtype=dtype), 5)

    def test_empty_collections_have_rank_zero(self):
        assert rank_batch(np.zeros((3, 0, 1), dtype=np.uint64), 5).tolist() == [0, 0, 0]
        assert rank_batch(np.zeros((0, 4, 2), dtype=np.uint64), 70).shape == (0,)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="limbs"):
            rank_batch(np.zeros((4, 5), dtype=np.uint64), 3)

    @pytest.mark.parametrize("k,limbs", [(65, 1), (129, 2), (200, 3)])
    def test_rejects_k_beyond_limbs(self, k, limbs):
        with pytest.raises(ValueError, match=f"k = {k} .*limbs = {limbs}"):
            rank_batch(np.zeros((2, 3, limbs), dtype=np.uint64), k)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_matches_python_int_rank(self, data):
        # 1-4 limbs, with the word and limb boundaries drawn often
        k = data.draw(st.integers(1, 200) | st.sampled_from([8, 9, 16, 17, 32, 33, 64, 65, 128,
                                                             129, 192, 193, 200]), label="k")
        limbs = (k + 63) // 64
        if data.draw(st.booleans(), label="several blocks"):
            # with 32 columns or more a block holds at most 1,024 sets
            m = data.draw(st.integers(32, 40), label="m")
            per_block = gf2._BLOCK_BYTES // (m * limbs * 8)
            N = data.draw(st.integers(2 * per_block, 3 * per_block + 1), label="N")
        else:
            m = data.draw(st.integers(0, 24), label="m")
            N = data.draw(st.integers(0, 40), label="N")
        r = data.draw(st.just(min(k, m)) | st.integers(0, min(k, m)), label="rank bound")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # r random columns, then m - r planted ones that are random XORs of
        # them (copies and zero columns among them), in a shuffled order
        basis = rng.integers(0, 2**64, size=(N, r, limbs), dtype=np.uint64)
        basis[:, :, -1] &= np.uint64(2**(k - 64 * (limbs - 1)) - 1)
        coef = rng.integers(0, 2, size=(N, m - r, r), dtype=np.uint64)
        cols = np.zeros((N, m, limbs), dtype=np.uint64)
        cols[:, :r] = basis
        for j in range(r):
            cols[:, r:] ^= coef[:, :, j, None] * basis[:, None, j, :]
        cols = cols[:, rng.permutation(m)]
        zero_share = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="zero share")
        cols[rng.random((N, m)) < zero_share] = 0  # zero padding
        before = cols.copy()
        got = rank_batch(cols, k)
        assert got.dtype == np.int64 and got.shape == (N,)
        assert got.tolist() == python_int_ranks(cols, k)
        assert np.array_equal(cols, before)
        if N:
            assert rank_batch(cols[:1], k).tolist() == got[:1].tolist()
            assert np.array_equal(cols, before)

    def test_pack_columns_layout(self):
        a = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        packed = pack_columns(a)
        assert packed.shape == (2, 1)
        assert packed[0, 0] == 0b101  # rows 0 and 2 set in column 0
        assert packed[1, 0] == 0b110
        # the narrowest unsigned word that holds the rows, uint64 limbs above 64 rows
        for k, dtype, limbs in [(3, np.uint8, 1), (9, np.uint16, 1), (17, np.uint32, 1),
                                (33, np.uint64, 1), (65, np.uint64, 2)]:
            M = xc.random_matrix(k, 7, np.random.default_rng(k))
            packed = pack_columns(M.array)
            assert packed.dtype == dtype and packed.shape == (7, limbs)
            assert python_int_ranks(packed[None], k) == [xc.rank(M)]
            # the last row lands in the highest bit that k rows use
            top = packed[:, -1] >> dtype((k - 1) % 64) & dtype(1)
            assert top.tolist() == M.array[-1].tolist()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.tuples(st.integers(1, 130), st.integers(1, 6), st.integers(0, 2**32 - 1)))
    @example((8, 3, 0))  # a full uint8 word
    @example((9, 3, 1))  # uint16
    @example((32, 3, 2))  # a full uint32 word
    @example((64, 3, 3))  # a full uint64 limb
    @example((128, 2, 4))  # two full limbs
    @example((130, 2, 5))  # three limbs, the last holding two rows
    def test_pack_columns_matches_python_ints(self, case):
        k, n, seed = case
        a = np.random.default_rng(seed).integers(0, 2, size=(k, n), dtype=np.uint8)
        packed = pack_columns(a)
        word = {1: np.uint8, 2: np.uint16, 3: np.uint32, 4: np.uint32}.get(-(-k // 8), np.uint64)
        assert packed.dtype == word and packed.shape == (n, -(-k // 64))
        # column c is sum_j a[j, c] 2^j, limb l its bits 64 l .. 64 l + 63
        want = [sum(int(a[j, c]) << j for j in range(k)) for c in range(n)]
        assert [sum(int(x) << 64 * i for i, x in enumerate(row)) for row in packed.tolist()] == want


class TestMatrixText:
    def test_format_golden(self, g135):
        text = xc.format_matrix(g135)
        lines = text.splitlines()
        assert lines[0] == "5 13"
        assert lines[1] == "1110010000101"
        assert text.endswith("\n")

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        M = xc.random_matrix(int(rng.integers(1, 9)), int(rng.integers(1, 20)), rng)
        assert xc.parse_matrix(xc.format_matrix(M)) == M

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        k = data.draw(st.integers(1, 8), label="k")
        n = data.draw(st.integers(1, 19), label="n")
        bits = data.draw(st.lists(st.integers(0, 1), min_size=k * n, max_size=k * n),
                         label="bits")
        M = xc.BinaryMatrix(np.array(bits, dtype=np.uint8).reshape(k, n))
        assert xc.parse_matrix(xc.format_matrix(M)) == M

    def test_parse_golden_file(self, g135):
        assert g135.shape == (5, 13)

    @pytest.mark.parametrize("text,lineno", [
        ("", 1),
        ("5\n", 1),
        ("a b\n", 1),
        ("0 3\n", 1),
        ("2 3\n101\n10\n", 3),
        ("2 3\n101\n012\n", 3),
        ("2 3\n101\n110\n111\n", 4),
        ("2 3\n101\n", 3),
    ])
    def test_parse_errors_name_line(self, text, lineno):
        with pytest.raises(ValueError, match=f"line {lineno}"):
            xc.parse_matrix(text)

    def test_header_takes_ascii_digits_only(self):
        with pytest.raises(ValueError, match="line 1: expected header"):
            xc.parse_matrix("\u00b2 3\n101\n011\n")

    def test_rows_take_ascii_digits_only(self):
        # "١" is ARABIC-INDIC DIGIT ONE: a digit, but not a 0/1 character
        with pytest.raises(ValueError) as exc:
            xc.parse_matrix("2 3\n101\n1١0\n")
        assert str(exc.value) == ("line 3: expected exactly 3 characters from {0,1}, "
                                  "got '1١0'")
