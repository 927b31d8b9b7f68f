import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from katolab.linmap import _FORM_BLOCK, _row_blocks, gram_schmidt_columns
from katolab.symbols import OperatorSpec


def test_matrix_is_frozen():
    # an operator's full symbol, the matrix of its linear map, is read-only
    op = OperatorSpec("eye", 1, np.eye(2))
    with pytest.raises(ValueError, match="read-only"):
        op.full_symbol[0, 0] = 5.0


def test_gram_schmidt_orthonormal_and_deterministic():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    # duplicate a column so the rank drops to 3 at most
    m[:, 3] = 2.0 * m[:, 1]
    b1 = gram_schmidt_columns(m)
    b2 = gram_schmidt_columns(m)
    assert b1.shape == (6, 3)
    assert np.array_equal(b1, b2)
    assert np.allclose(b1.conj().T @ b1, np.eye(3), atol=1e-12)
    # same column space: projectors agree
    q, _ = np.linalg.qr(m[:, :3])
    p1 = b1 @ b1.conj().T
    p2 = q @ q.conj().T
    assert np.allclose(p1, p2, atol=1e-10)


@pytest.mark.parametrize("rows", [0, 3])
def test_gram_schmidt_of_a_zero_matrix_is_an_empty_basis(rows):
    # no column clears the drop threshold: no columns, and the rows kept
    basis = gram_schmidt_columns(np.zeros((rows, 2)))
    assert basis.shape == (rows, 0) and basis.dtype == np.complex128


@pytest.mark.parametrize("shape", [(3,), (2, 3, 4), ()])
def test_linear_map_refuses_an_array_that_is_not_2d(shape):
    with pytest.raises(ValueError, match="2-D matrix"):
        OperatorSpec("flat", 1, np.ones(shape))


@pytest.mark.parametrize("base_dim,columns", [(2, 3), (2, 0), (0, 0), (4, 2), (2.0, 4)])
def test_operator_spec_refuses_columns_that_are_not_a_positive_multiple(base_dim, columns):
    # fiber_dim = columns // base_dim must be a whole dimension >= 1, and base_dim an
    # integer: a float one made fiber_dim a float that symbol_tensor cannot reshape to
    with pytest.raises(ValueError, match="positive multiple"):
        OperatorSpec("odd", base_dim, np.ones((2, columns)))


# ---------------------------------------------------------------------------
# the row-block rule shared by every batched loop


def _sizes(blocks):
    return [r.stop - r.start for r in blocks]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60_000), st.integers(0, 5000))
def test_row_blocks_cover_every_row_once_in_even_blocks(m, width):
    blocks = list(_row_blocks(m, width))
    assert [i for r in blocks for i in range(r.start, r.stop)] == list(range(m))
    assert all(r.step is None for r in blocks)
    sizes = _sizes(blocks)
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60_000), st.integers(0, 5000))
def test_row_blocks_stay_within_the_row_and_entry_budgets(m, width):
    for rows in _sizes(_row_blocks(m, width)):
        assert 1 <= rows < 2 * _FORM_BLOCK
        assert rows == 1 or rows * width < 2 * _FORM_BLOCK * 100


def test_row_blocks_edge_cases():
    # the sizes the kernels meet: one block up to 2 _FORM_BLOCK - 1 rows, then equal
    # blocks; a row wider than the entry budget goes alone
    assert _sizes(_row_blocks(2 * _FORM_BLOCK - 1, 100)) == [2 * _FORM_BLOCK - 1]
    assert _sizes(_row_blocks(2 * _FORM_BLOCK, 100)) == [_FORM_BLOCK, _FORM_BLOCK]
    assert _sizes(_row_blocks(3, 10**6)) == [1, 1, 1]
    assert _sizes(_row_blocks(2 * _FORM_BLOCK + 1, 0)) == [_FORM_BLOCK + 1, _FORM_BLOCK]


def test_row_blocks_of_no_rows_are_one_empty_block():
    # a kernel on 0 rows still runs one block, for outputs of the right keys
    assert list(_row_blocks(0, 100)) == [slice(0, 0)]


def test_row_blocks_are_made_lazily():
    # a list of 10^12 / _FORM_BLOCK slices could not be made
    assert inspect.isgenerator(_row_blocks(10**12, 8))
    assert next(_row_blocks(10**12, 8)) == slice(0, _FORM_BLOCK)


@pytest.mark.parametrize("make", [
    lambda: np.arange(6.0).reshape(2, 3),                        # float
    lambda: np.arange(6.0).reshape(2, 3).astype(complex),        # writable complex
    lambda: np.arange(12.0).astype(complex).reshape(2, 6)[:, ::2],  # a view
])
def test_linear_map_copies_a_writable_or_borrowed_matrix(make):
    # an OperatorSpec takes only an owning, read-only complex128 symbol as it is; any
    # other input is copied, so writing to the caller's array or its base leaves the
    # operator unchanged
    m = make()
    op = OperatorSpec("copied", 3, m)
    want = op.full_symbol.copy()
    base = m if m.base is None else m.base
    base.flags.writeable = True
    base[...] = 7
    assert np.array_equal(op.full_symbol, want) and not op.full_symbol.flags.writeable
    assert op.full_symbol.dtype == np.complex128 and op.fiber_dim == 1


def test_linear_map_keeps_an_owning_read_only_complex_matrix():
    m = np.ones((2, 6), dtype=np.complex128)
    m.flags.writeable = False
    op = OperatorSpec("kept", 3, m)
    assert op.full_symbol is m and op.fiber_dim == 2
    view = np.ones((2, 12), dtype=np.complex128)[:, ::2]
    view.flags.writeable = False
    assert OperatorSpec("view", 3, view).full_symbol is not view
