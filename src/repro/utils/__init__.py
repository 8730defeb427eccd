"""Shared utilities: RNG seeding, timing, validation and ASCII rendering."""

from repro.utils.rng import ensure_rng, DEFAULT_SEED
from repro.utils.timing import Stopwatch, timed
from repro.utils.validation import (
    as_float_matrix,
    as_float_vector,
    check_power_of_two,
    check_probability_vector,
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
    "Stopwatch",
    "timed",
    "as_float_matrix",
    "as_float_vector",
    "check_power_of_two",
    "check_probability_vector",
    "num_qubits_for",
    "render_image_ascii",
    "render_curve_ascii",
    "render_table",
]
