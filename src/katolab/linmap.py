"""Linear maps as matrices in orthonormal bases.

All bases are orthonormal, so the adjoint is the conjugate transpose of
the coefficient matrix and no Gram matrices ever appear.  Matrices are
complex (np.complex128) and frozen after construction.  A LinearMap copies
its matrix, except an owning, read-only complex128 array, which it takes
as it is: a builder that hands such an array over gives up writing to it.
"""

from dataclasses import dataclass

import numpy as np

# every batched loop runs its m rows as equal blocks (_row_blocks) to keep its
# temporaries in cache; no block is short, as OpenBLAS sums a product of few rows in
# another order
_FORM_BLOCK = 1024


@dataclass(eq=False, frozen=True)
class LinearMap:
    """Matrix of a linear map in orthonormal bases, read-only, of shape (dim codomain,
    dim domain); an array that is not 2-D raises ValueError."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not (isinstance(m, np.ndarray) and m.dtype == np.complex128
                and m.flags.owndata and not m.flags.writeable):
            m = np.array(m, dtype=np.complex128, copy=True)
        if m.ndim != 2:
            raise ValueError(f"a linear map needs a 2-D matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        return self.matrix @ vec

    def scale(self, a) -> "LinearMap":
        return LinearMap(a * self.matrix)


def gram_schmidt_columns(M: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of M in order, skipping dependents.

    Deterministic modified Gram-Schmidt with one reorthogonalization
    pass; the drop threshold is 1e-10 times the largest column norm.
    Returns a matrix with orthonormal columns spanning the column space.
    """
    M = np.asarray(M, dtype=np.complex128)
    # no column of an empty or zero M clears the threshold
    scale = float(np.max(np.linalg.norm(M, axis=0), initial=0.0))
    basis = []
    for col in M.T:
        w = col.astype(np.complex128, copy=True)
        for _ in range(2):
            for b in basis:
                w = w - b * np.vdot(b, w)
        nw = np.linalg.norm(w)
        if nw > 1e-10 * scale:
            basis.append(w / nw)
    if not basis:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    return np.column_stack(basis)


def _row_blocks(m: int, width: int):
    """Slices of m rows of `width` reals each into equal blocks, made lazily: at least
    one, and enough that a block has fewer than 2 _FORM_BLOCK rows and, unless it is
    one row, fewer than 2 _FORM_BLOCK * 100 entries (100 reals: the widest fiber-1 form
    row at n <= 5, whose blocks the row count alone sets).  Block sizes differ by at
    most one row: the first blocks take one row more."""
    nb = max(1, m // _FORM_BLOCK, min(m, m * width // (_FORM_BLOCK * 100)))
    size, longer = divmod(m, nb)
    for i in range(nb):
        lo = i * size + min(i, longer)
        yield slice(lo, lo + size + (i < longer))
