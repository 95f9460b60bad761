import numpy as np
import pytest

import xorcodes as xc
from xorcodes import latin
from conftest import EXAMPLE_SQUARE


@pytest.fixture
def square5():
    return xc.LatinSquare(np.array(EXAMPLE_SQUARE))


class TestLatinSquare:
    def test_accepts_valid(self, square5):
        assert square5.order == 5

    def test_rejects_bad_row(self):
        cells = np.array([[1, 2], [1, 2]])
        with pytest.raises(ValueError, match="column 1"):
            xc.LatinSquare(cells)

    def test_rejects_non_permutation_row(self):
        with pytest.raises(ValueError, match="row 2"):
            xc.LatinSquare(np.array([[1, 2], [2, 2]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            xc.LatinSquare(np.array([[1, 2, 3], [2, 3, 1]]))

    def test_equality(self, square5):
        assert square5 == xc.LatinSquare(np.array(EXAMPLE_SQUARE))
        assert square5 != "something else"

    def test_is_full_height_rectangle(self):
        L = xc.random_latin_square(5, np.random.default_rng(0))
        assert isinstance(L, xc.LatinRectangle)
        assert xc.top_rectangle(L, L.order) == L


class TestLatinRectangle:
    def test_accepts_valid(self):
        R = xc.LatinRectangle(np.array([[1, 2, 3], [3, 1, 2]]))
        assert R.height == 2 and R.width == 3

    def test_rejects_column_repeat(self):
        with pytest.raises(ValueError, match="column"):
            xc.LatinRectangle(np.array([[1, 2, 3], [1, 3, 2]]))

    def test_rejects_taller_than_wide(self):
        with pytest.raises(ValueError, match="height"):
            xc.LatinRectangle(np.array([[1, 2], [2, 1], [1, 2]]))

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError, match="row 1"):
            xc.LatinRectangle(np.array([[0, 1, 2]]))


class TestRandomLatinSquare:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
    def test_produces_valid_square(self, k):
        L = xc.random_latin_square(k, np.random.default_rng(k))
        assert L.order == k  # constructor already validated rows and columns

    def test_deterministic(self):
        a = xc.random_latin_square(7, np.random.default_rng(42))
        b = xc.random_latin_square(7, np.random.default_rng(42))
        assert a == b

    def test_varies_with_seed(self):
        squares = {xc.random_latin_square(6, np.random.default_rng(s)).cells.tobytes()
                   for s in range(8)}
        assert len(squares) > 1

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            xc.random_latin_square(0, np.random.default_rng(0))


class TestTopRectangle:
    def test_takes_top_rows(self, square5):
        R = xc.top_rectangle(square5, 3)
        assert R.height == 3
        assert (R.cells == np.array(EXAMPLE_SQUARE)[:3]).all()

    def test_full_height(self, square5):
        assert xc.top_rectangle(square5, 5).height == 5

    def test_rejects_out_of_range(self, square5):
        with pytest.raises(ValueError, match="k1 must be"):
            xc.top_rectangle(square5, 0)
        with pytest.raises(ValueError, match="k1 must be"):
            xc.top_rectangle(square5, 6)


class TestIncidenceMatrix:
    def test_known_rectangle(self, square5, m55):
        # column j of the rectangle contributes row j of the incidence matrix
        M = xc.incidence_matrix(xc.top_rectangle(square5, 3))
        assert M == m55

    def test_row_i_marks_symbols_of_column_i(self, square5):
        R = xc.top_rectangle(square5, 3)
        M = xc.incidence_matrix(R)
        for c in range(5):
            symbols = set(R.cells[:, c].tolist())
            marked = {j + 1 for j in range(5) if M.array[c, j]}
            assert marked == symbols

    @pytest.mark.parametrize("k,k1", [(4, 2), (5, 3), (7, 5), (9, 4)])
    def test_row_and_column_sums(self, k, k1):
        L = xc.random_latin_square(k, np.random.default_rng(10 * k + k1))
        M = xc.incidence_matrix(xc.top_rectangle(L, k1))
        assert (M.array.sum(axis=0) == k1).all()
        assert (M.array.sum(axis=1) == k1).all()


class TestEvenOddWeight:
    @pytest.mark.parametrize("k,k1", [(4, 2), (5, 2), (6, 4), (7, 2), (8, 4), (9, 6)])
    def test_even_weight_always_singular(self, k, k1):
        # every row has even parity, so the rows XOR to zero
        for seed in range(5):
            L = xc.random_latin_square(k, np.random.default_rng(seed))
            M = xc.incidence_matrix(xc.top_rectangle(L, k1))
            assert not xc.is_nonsingular(M)

    def test_odd_weight_can_be_nonsingular(self):
        M = xc.random_balanced_nonsingular(5, 3, np.random.default_rng(0))
        assert xc.is_nonsingular(M)


class TestRandomNonsingularRectangle:
    @pytest.mark.parametrize("k,k1", [(3, 1), (4, 3), (5, 3), (7, 5), (9, 3), (11, 7)])
    def test_incidence_is_nonsingular(self, k, k1):
        R = xc.random_nonsingular_rectangle(k, k1, np.random.default_rng(k + k1))
        assert R.height == k1 and R.width == k
        assert xc.is_nonsingular(xc.incidence_matrix(R))

    def test_rejects_even_weight(self):
        with pytest.raises(ValueError, match="k1 must be odd"):
            xc.random_nonsingular_rectangle(5, 2, np.random.default_rng(0))

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError, match="1 <= k1 <= k"):
            xc.random_nonsingular_rectangle(3, 5, np.random.default_rng(0))

    def test_rejects_full_height(self):
        # k1 = k marks every symbol in every column
        with pytest.raises(ValueError, match="all-ones"):
            xc.random_nonsingular_rectangle(3, 3, np.random.default_rng(0))

    def test_full_height_trivial_order(self):
        R = xc.random_nonsingular_rectangle(1, 1, np.random.default_rng(0))
        assert R.cells.tolist() == [[1]]

    def test_deterministic(self):
        a = xc.random_nonsingular_rectangle(7, 3, np.random.default_rng(99))
        b = xc.random_nonsingular_rectangle(7, 3, np.random.default_rng(99))
        assert a == b

    def test_gives_up_after_max_tries(self, monkeypatch):
        monkeypatch.setattr(latin, "is_nonsingular", lambda M: False)
        monkeypatch.setattr(latin, "_MAX_TRIES", 3)
        with pytest.raises(RuntimeError, match="3 tries"):
            xc.random_nonsingular_rectangle(5, 3, np.random.default_rng(0))


class TestRandomBalancedNonsingular:
    @pytest.mark.parametrize("k,k1", [(5, 3), (8, 3), (10, 5)])
    def test_balanced_and_nonsingular(self, k, k1):
        M = xc.random_balanced_nonsingular(k, k1, np.random.default_rng(3 * k))
        assert M.shape == (k, k)
        assert (M.array.sum(axis=0) == k1).all()
        assert (M.array.sum(axis=1) == k1).all()
        assert xc.is_nonsingular(M)
