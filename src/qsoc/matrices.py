"""Explicit matrix realization of the generators (verification oracle).

Generators map to Pauli strings Z^(g-1) (x) X (x) I^(n-g); the trace state is
the normalized matrix trace.  This gives a second, independent route to every
algebra operation and backs the oracle-equivalence checks.  Matrices are
2^n x 2^n, so the oracle is only used at small n.
"""

from __future__ import annotations

import numpy as np

from .clifford import CliffordAlgebra, CliffordElement

ORACLE_MAX_GENERATORS = 8


class MatrixRealization:
    """The blade matrices of one algebra size, as signed permutations.

    Each generator is a Kronecker product of one-site factors, so a blade,
    the ascending product of its generators, is one too: on site g an X if
    g is in the mask, times one Z per member above g.  That is ``X^x Z^z``,
    with entry ``(-1)**|z & i|`` at ``(i ^ x, i)`` and zeros elsewhere (site
    1 being the top index bit).  ``rows[S, i] = i ^ x_S`` and
    ``signs[S, i] = (-1)**|z_S & i|`` hold blade S per column; x_S is S with
    its bits reversed, so every matrix entry belongs to exactly one blade.
    """

    def __init__(self, n: int):
        if n > ORACLE_MAX_GENERATORS:
            raise ValueError(f"matrix oracle limited to n <= {ORACLE_MAX_GENERATORS}")
        self.n = n
        self.size = 1 << n
        idx = np.arange(self.size)
        sites = np.arange(n)
        bits = 1 << (n - 1 - sites)  # matrix-index bit of each site
        x = ((idx[:, None] >> sites) & 1) @ bits
        z = (np.bitwise_count(idx[:, None] >> (sites + 1)) & 1) @ bits
        self.rows = x[:, None] ^ idx
        self.signs = np.where(np.bitwise_count(z[:, None] & idx) & 1, -1.0, 1.0)
        for arr in (self.rows, self.signs):
            arr.flags.writeable = False

    def to_matrix(self, a: CliffordElement) -> np.ndarray:
        """Sum of a_S times the blade matrix of S: a scatter of the live blades,
        since no two blades share an entry."""
        out = np.zeros((self.size, self.size), dtype=np.complex128)
        live = np.nonzero(a.coeffs)[0]
        out[self.rows[live], np.arange(self.size)] = a.coeffs[live, None] * self.signs[live]
        return out

    def from_matrix(self, alg: CliffordAlgebra, mat: np.ndarray) -> CliffordElement:
        """Invert to_matrix using blade orthonormality under the trace: the
        coefficient of S gathers each column's entry at S's row."""
        picked = mat[self.rows, np.arange(self.size)] * self.signs
        return CliffordElement(alg, picked.sum(axis=1) / self.size)

    def state(self, mat: np.ndarray) -> complex:
        return complex(np.trace(mat) / self.size)

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        return complex(np.vdot(a, b) / self.size)


def realization_for(alg: CliffordAlgebra) -> MatrixRealization:
    return MatrixRealization(alg.n)
