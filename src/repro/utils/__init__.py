"""Small shared utilities used across the :mod:`repro` package.

The helpers here intentionally stay free of any domain logic: deterministic
random-number handling (:mod:`repro.utils.rng`), lightweight timing helpers
used by the scalability experiments (:mod:`repro.utils.timing`), argument
validation helpers shared by the public API entry points
(:mod:`repro.utils.validation`), and array helpers
(:mod:`repro.utils.arrays`).
"""

from repro.utils.arrays import sorted_unique
from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.timing import Stopwatch, time_call
from repro.utils.validation import (
    require_in,
    require_positive_int,
    require_probability,
    require_range,
)

__all__ = [
    "derive_seed",
    "ensure_rng",
    "Stopwatch",
    "time_call",
    "require_in",
    "require_positive_int",
    "require_probability",
    "require_range",
    "sorted_unique",
]
