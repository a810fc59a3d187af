import random
from fractions import Fraction

import pytest

from frobrank import GF, QQ, Matrix
from frobrank.errors import DimensionMismatch, FieldMismatch, ScalarError
from frobrank.matrix import pack, slot_width, unpack


def test_entries_are_canonicalized():
    m = Matrix(QQ, [[1, Fraction(2, 4)], [0, -3]])
    assert m[0, 0] == Fraction(1)
    assert type(m[0, 0]) is Fraction
    assert m[0, 1] == Fraction(1, 2)
    g = Matrix(GF(5), [[7, -1], [0, 3]])
    assert g.entries == ((2, 4), (0, 3))


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[1]], shape=(2, 1))
    with pytest.raises(ScalarError):
        Matrix(QQ, [[0.5]])


def test_empty_shapes():
    no_cols = Matrix.zeros(QQ, 3, 0)
    no_rows = Matrix.zeros(QQ, 0, 2)
    assert no_cols.shape == (3, 0)
    assert no_rows.shape == (0, 2)
    assert no_cols.transpose().shape == (0, 3)
    assert (no_rows @ Matrix.zeros(QQ, 2, 4)).shape == (0, 4)


def test_product_matches_worked_example(tight_triple):
    a, b, c = tight_triple
    assert (a @ b) == Matrix(QQ, [[1, 3, 3], [1, 3, 3], [0, 0, 0]])
    assert (b @ c) == Matrix(QQ, [[4, -1], [0, -1]])
    assert (a @ b @ c) == Matrix(QQ, [[4, -2], [4, -2], [0, 0]])


def test_identity_is_neutral(tight_triple):
    _, b, _ = tight_triple
    assert Matrix.identity(QQ, 2) @ b == b
    assert b @ Matrix.identity(QQ, 3) == b


def test_product_over_prime_field():
    f = GF(2)
    m = Matrix(f, [[1, 1], [0, 1]])
    assert m @ m == Matrix(f, [[1, 0], [0, 1]])


def test_mismatches_raise():
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(QQ, 2, 3) @ Matrix.zeros(QQ, 2, 3)
    with pytest.raises(FieldMismatch):
        Matrix.zeros(QQ, 2, 2) @ Matrix.zeros(GF(2), 2, 2)


def test_hstack_and_slicing():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    n = Matrix(QQ, [[5], [6]])
    stacked = m.hstack(n)
    assert stacked == Matrix(QQ, [[1, 2, 5], [3, 4, 6]])
    assert stacked.col(2) == n
    assert stacked.take_cols([1, 0]) == Matrix(QQ, [[2, 1], [4, 3]])


@pytest.mark.parametrize("idx", [[], [1], [2, 0], [1, 1, 0]])
def test_take_rows_and_cols_with_zero_one_and_more_indices(idx):
    m = Matrix(GF(5), [[1, 2, 3], [4, 0, 1], [2, 2, 4]])
    cols = m.take_cols(idx)
    assert cols == Matrix(GF(5), [[row[j] for j in idx] for row in m.entries], shape=(3, len(idx)))
    assert all(type(row) is tuple for row in cols.entries)
    rows = m.take_rows(idx)
    assert rows == Matrix(GF(5), [m.entries[i] for i in idx], shape=(len(idx), 3))
    # The selected rows are this matrix's own row tuples.
    assert all(row is m.entries[i] for row, i in zip(rows.entries, idx))
    assert m.transpose().take_rows(idx) == cols.transpose()
    assert Matrix.zeros(QQ, 0, 3).take_cols(idx) == Matrix.zeros(QQ, 0, len(idx))


def test_transpose():
    m = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == Matrix(QQ, [[1, 4], [2, 5], [3, 6]])
    assert m.transpose().transpose() == m


def test_equality_and_hash_include_field():
    q = Matrix(QQ, [[1, 0]])
    g = Matrix(GF(2), [[1, 0]])
    assert q != g
    assert hash(q) != hash(g) or q != g
    assert {q, Matrix(QQ, [[1, 0]])} == {q}


# Width 1 packs through a binary string, 8 to 64 through an array of
# machine integers, 20 and 127 through the shift loop.
@pytest.mark.parametrize("width", [1, 8, 16, 32, 64, 20, 127])
def test_pack_unpack_round_trip(width):
    rng = random.Random(width)
    top = (1 << width) - 1
    cases = [[], [0], [top], [top] * 5, [rng.randint(0, top) for _ in range(40)]]
    for values in cases:
        n = len(values)
        word = pack(values, width)
        assert word == sum(v << (n - 1 - j) * width for j, v in enumerate(values))
        assert list(unpack(word, n, width)) == values
        assert list(unpack(pack(tuple(values), width), n, width)) == values
        # The lowest n slots of a word that holds more, as the packed
        # GF(p) kernel reads the tail of a lead.
        for high in ([top], [1, 0, top]):
            assert list(unpack(pack(high + values, width), n, width)) == values


def test_slot_width_rounds_up_to_machine_widths():
    assert [slot_width(b) for b in (0, 1, 255, 256, 65536, 2**32 - 1, 2**64 - 1)] == [
        8, 8, 8, 16, 32, 32, 64]
    assert slot_width(2**64) == 65
    assert slot_width(51 * 101 * 101) == 32
