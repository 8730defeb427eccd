"""Shared utilities: RNG seeding, validation and ASCII rendering."""

from repro.utils.rng import ensure_rng, DEFAULT_SEED
from repro.utils.validation import (
    as_float_matrix,
    check_power_of_two,
    num_qubits_for,
)
from repro.utils.ascii_art import (
    render_image_ascii,
    render_curve_ascii,
    render_table,
)

__all__ = [
    "ensure_rng",
    "DEFAULT_SEED",
    "as_float_matrix",
    "check_power_of_two",
    "num_qubits_for",
    "render_image_ascii",
    "render_curve_ascii",
    "render_table",
]
