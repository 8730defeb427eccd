"""Deterministic random-number-generation helpers.

All stochastic behaviour in the library flows through
:func:`numpy.random.Generator` objects created here, so that every
experiment, dataset and initializer is reproducible from a single integer
seed.  Functions accept either ``None`` (fresh default seed), an ``int``
seed, or an existing ``Generator`` (returned unchanged), mirroring the
``scikit-learn`` ``check_random_state`` idiom.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["DEFAULT_SEED", "ensure_rng"]

#: Seed used throughout the experiment harness when the caller does not
#: provide one.  2024 matches the paper's publication year and is recorded in
#: EXPERIMENTS.md so every reported number is regenerable bit-for-bit.
DEFAULT_SEED: int = 2024

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for the library default seed, an ``int`` seed, or an
        existing ``Generator`` which is returned unchanged (so functions can
        be composed without re-seeding).

    Raises
    ------
    TypeError
        If ``seed`` is not ``None``, an integer, or a ``Generator``.
    """
    if seed is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, int or numpy Generator, got {type(seed).__name__}"
    )
