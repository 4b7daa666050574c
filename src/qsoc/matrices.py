"""Explicit matrix realization of the generators (verification oracle).

Generators map to Pauli strings Z^(g-1) (x) X (x) I^(n-g); the trace state is
the normalized matrix trace.  This gives a second, independent route to every
algebra operation and backs the oracle-equivalence checks.  Dense matrices are
2^n x 2^n, so the oracle is only used at small n.
"""

from __future__ import annotations

import numpy as np

from .clifford import CliffordAlgebra, CliffordElement

ORACLE_MAX_GENERATORS = 8


class MatrixRealization:
    """Cacheable blade matrices for one algebra size."""

    def __init__(self, n: int):
        if n > ORACLE_MAX_GENERATORS:
            raise ValueError(f"matrix oracle limited to n <= {ORACLE_MAX_GENERATORS}")
        self.n = n
        self.size = 1 << n
        self._blades: dict[int, np.ndarray] = {}

    def blade(self, mask: int) -> np.ndarray:
        """Ascending product of the generators in ``mask``.

        Each generator is a Kronecker product of one-site factors, so the
        blade is one too: on site g an X if g is in the mask, times one Z per
        member above g.  That is the signed permutation ``X^x Z^z`` with
        entries ``(-1)**|z & i|`` at ``(i ^ x, i)``, site 1 being the top
        index bit.
        """
        cached = self._blades.get(mask)
        if cached is not None:
            return cached
        x = z = 0
        for site in range(self.n):
            bit = 1 << (self.n - 1 - site)
            if mask >> site & 1:
                x |= bit
            if (mask >> (site + 1)).bit_count() & 1:
                z |= bit
        idx = np.arange(self.size)
        out = np.zeros((self.size, self.size), dtype=np.complex128)
        out[idx ^ x, idx] = np.where(np.bitwise_count(idx & z) & 1, -1.0, 1.0)
        self._blades[mask] = out
        return out

    def to_matrix(self, a: CliffordElement) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=np.complex128)
        for mask in np.nonzero(a.coeffs)[0]:
            out += a.coeffs[mask] * self.blade(int(mask))
        return out

    def from_matrix(self, alg: CliffordAlgebra, mat: np.ndarray) -> CliffordElement:
        """Invert to_matrix using blade orthonormality under the trace."""
        coeffs = [np.vdot(self.blade(mask), mat) for mask in range(alg.dim)]
        return CliffordElement(alg, np.array(coeffs) / self.size)

    def state(self, mat: np.ndarray) -> complex:
        return complex(np.trace(mat) / self.size)

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        return complex(np.vdot(a, b) / self.size)


def realization_for(alg: CliffordAlgebra) -> MatrixRealization:
    return MatrixRealization(alg.n)
