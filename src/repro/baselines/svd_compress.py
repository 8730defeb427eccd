"""Global truncated-SVD reconstruction — the linear-optimum reference.

For a data matrix ``X`` (samples as rows), the best rank-``d``
approximation in Frobenius norm is the truncated SVD (Eckart-Young).  Its
reconstruction error lower-bounds every ``d``-channel *linear* codec —
including the quantum network's ``U_R P1 U_C`` acting on the encoded
amplitudes — so benches plot it as the floor every method is compared
against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import BaselineError

__all__ = ["truncated_svd_reconstruction"]


def truncated_svd_reconstruction(
    X: np.ndarray, rank: int
) -> Tuple[np.ndarray, float]:
    """Best rank-``rank`` approximation of ``X`` and its squared error.

    Returns ``(X_hat, frobenius_error_squared)``.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.outer([1.0, 2.0], [3.0, 4.0])
    >>> _, err = truncated_svd_reconstruction(X, 1)
    >>> round(err, 12)
    0.0
    """
    mat = np.asarray(X, dtype=np.float64)
    if mat.ndim != 2:
        raise BaselineError(f"X must be 2-D, got shape {mat.shape}")
    max_rank = min(mat.shape)
    if not 1 <= rank <= max_rank:
        raise BaselineError(
            f"rank must be in [1, {max_rank}], got {rank}"
        )
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    x_hat = (u[:, :rank] * s[:rank]) @ vt[:rank]
    err = float(np.sum(s[rank:] ** 2))
    return x_hat, err
