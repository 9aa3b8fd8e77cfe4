"""Argument-validation helpers used across the library.

All validators raise :class:`ValueError` or :class:`TypeError` with a message
naming the offending argument, so call sites can stay one-liners.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def is_power_of_two(x: int) -> bool:
    """Return ``True`` iff ``x`` is a positive integral power of two."""
    return isinstance(x, (int, np.integer)) and x > 0 and (x & (x - 1)) == 0


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_power_of_two(value, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    value = check_positive_int(value, name)
    if not is_power_of_two(value):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value


def check_square_sparse(A, name: str = "A") -> sp.csr_matrix:
    """Validate that ``A`` is a square 2-D sparse matrix; return it as CSR."""
    if not sp.issparse(A):
        raise TypeError(f"{name} must be a scipy sparse matrix, got {type(A).__name__}")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    return A.tocsr()


def check_real_finite(A: sp.spmatrix, name: str = "A") -> sp.spmatrix:
    """Validate that sparse ``A`` holds real, finite values; return it.

    Separate from :func:`check_square_sparse` because that check also
    guards pattern-only inputs, whose values are never read.
    """
    if A.dtype.kind not in "biuf":
        raise TypeError(f"{name} must have a real dtype, got {A.dtype}")
    if not np.isfinite(A.data).all():
        raise ValueError(f"{name} contains non-finite values (NaN or inf)")
    return A
