"""Linear maps between descriptor spaces, in orthonormal bases.

All bases are orthonormal, so the adjoint is the conjugate transpose of
the coefficient matrix and no Gram matrices ever appear.  Matrices are
complex (np.complex128) and frozen after construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .spaces import SpaceDescriptor


@dataclass(eq=False)
class LinearMap:
    """Matrix of a linear map in the orthonormal bases of its spaces.

    matrix has shape (codomain.dim, domain.dim) and is read-only.
    """

    domain: SpaceDescriptor
    codomain: SpaceDescriptor
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not fit map "
                f"{self.domain.dim} -> {self.codomain.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        return self.matrix @ vec

    def scale(self, a) -> "LinearMap":
        return LinearMap(self.domain, self.codomain, a * self.matrix)


def identity_map(space: SpaceDescriptor) -> LinearMap:
    return LinearMap(space, space, np.eye(space.dim))


def stack_maps(maps, codomain: SpaceDescriptor) -> LinearMap:
    """Vertical stack of maps sharing one domain, into a direct sum."""
    maps = list(maps)
    dom = maps[0].domain
    for m in maps[1:]:
        if m.domain != dom:
            raise ValueError("stacked maps must share their domain")
    return LinearMap(dom, codomain, np.vstack([m.matrix for m in maps]))


def gram_schmidt_columns(M: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of M in order, skipping dependents.

    Deterministic modified Gram-Schmidt with one reorthogonalization
    pass; the drop threshold is 1e-10 times the largest column norm.
    Returns a matrix with orthonormal columns spanning the column space.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.size == 0:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    scale = float(np.max(np.linalg.norm(M, axis=0)))
    if scale == 0.0:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
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

