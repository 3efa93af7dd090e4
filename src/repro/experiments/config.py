"""Experiment presets: the paper's parameters and scaled-down equivalents.

The paper's quality experiments default to 200 users, 100 items, 10 groups
and k = 5; its scalability experiments default to 100,000 users, 10,000
items, 10 groups and k = 5 and were run on a 2.9 GHz laptop.  A dense
100,000 x 10,000 rating matrix does not fit in this container's memory, so
three named scales are provided:

``paper``
    The published parameters, for users with the hardware (and the real
    datasets) to run them.
``bench``
    Scaled-down sweeps that preserve the *ratios* between sweep points (and
    therefore the shapes of the curves) while completing in seconds to a few
    minutes; this is what the ``benchmarks/`` suite runs.
``smoke``
    Tiny instances used by the unit tests of the harness itself.

All presets are frozen dataclasses so experiments cannot accidentally mutate
shared configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import BACKENDS, DEFAULT_BACKEND, get_backend
from repro.recsys.store import DEFAULT_STORE, STORES

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_STORE",
    "STORES",
    "ExperimentScale",
    "get_scale",
    "normalize_backend",
    "normalize_store",
    "quality_defaults",
    "scalability_defaults",
]


def normalize_store(name: str | None) -> str:
    """Resolve a ``--store`` value to a canonical store name.

    ``None`` resolves to :data:`DEFAULT_STORE`; unknown names raise
    ``ValueError`` listing the valid choices.  Shared by the CLI, the
    experiment runner and the benchmark scripts.
    """
    key = DEFAULT_STORE if name is None else str(name).strip().lower()
    if key not in STORES:
        known = ", ".join(STORES)
        raise ValueError(f"unknown rating store {name!r}; expected one of: {known}")
    return key


def normalize_backend(name: str | None) -> str:
    """Resolve a ``--backend`` value to a canonical backend name.

    ``None`` resolves to :data:`~repro.core.engine.DEFAULT_BACKEND`; unknown
    names raise ``ValueError`` (listing the valid choices).  Used by the CLI
    and the benchmark scripts so every experiment entry point validates the
    backend the same way.
    """
    return get_backend(name).name


@dataclass(frozen=True)
class SweepValues:
    """The x-axis values of the four parameter sweeps of an experiment family."""

    users: tuple[int, ...]
    items: tuple[int, ...]
    groups: tuple[int, ...]
    top_k: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentDefaults:
    """Default (non-swept) parameter values of an experiment family."""

    n_users: int
    n_items: int
    n_groups: int
    k: int


@dataclass(frozen=True)
class ExperimentScale:
    """A full preset: defaults plus sweep values for quality and scalability runs.

    Attributes
    ----------
    name:
        ``"paper"``, ``"bench"`` or ``"smoke"``.
    quality:
        Defaults of the quality experiments (Figures 1–3, Table 4).
    quality_sweeps:
        Sweep values of the quality experiments.
    scalability:
        Defaults of the scalability experiments (Figures 4–6).
    scalability_sweeps:
        Sweep values of the scalability experiments.
    repeats:
        Number of repeated runs averaged where the paper averages
        ("All numbers are presented as the average of three runs").
    """

    name: str
    quality: ExperimentDefaults
    quality_sweeps: SweepValues
    scalability: ExperimentDefaults
    scalability_sweeps: SweepValues
    repeats: int = 3
    extras: dict = field(default_factory=dict)


_PAPER = ExperimentScale(
    name="paper",
    quality=ExperimentDefaults(n_users=200, n_items=100, n_groups=10, k=5),
    quality_sweeps=SweepValues(
        users=(200, 400, 600, 800, 1000),
        items=(100, 200, 300, 400, 500),
        groups=(10, 15, 20, 25, 30),
        top_k=(5, 10, 15, 20, 25),
    ),
    scalability=ExperimentDefaults(n_users=100_000, n_items=10_000, n_groups=10, k=5),
    scalability_sweeps=SweepValues(
        users=(1_000, 10_000, 100_000, 200_000),
        items=(10_000, 25_000, 50_000, 100_000),
        groups=(10, 100, 1_000, 10_000),
        top_k=(5, 25, 125, 625),
    ),
    repeats=3,
)

_BENCH = ExperimentScale(
    name="bench",
    quality=ExperimentDefaults(n_users=200, n_items=100, n_groups=10, k=5),
    quality_sweeps=SweepValues(
        users=(200, 400, 600, 800, 1000),
        items=(100, 200, 300, 400, 500),
        groups=(10, 15, 20, 25, 30),
        top_k=(5, 10, 15, 20, 25),
    ),
    # Scaled so the largest instance is ~4000 x 800 dense (a few MB) while the
    # ratios between consecutive sweep points match the paper's sweeps.
    scalability=ExperimentDefaults(n_users=2_000, n_items=400, n_groups=10, k=5),
    scalability_sweeps=SweepValues(
        users=(500, 1_000, 2_000, 4_000),
        items=(200, 400, 600, 800),
        groups=(10, 50, 100, 200),
        top_k=(5, 25, 50, 100),
    ),
    repeats=3,
)

_SMOKE = ExperimentScale(
    name="smoke",
    quality=ExperimentDefaults(n_users=30, n_items=15, n_groups=4, k=3),
    quality_sweeps=SweepValues(
        users=(20, 30),
        items=(10, 15),
        groups=(3, 4),
        top_k=(2, 3),
    ),
    scalability=ExperimentDefaults(n_users=60, n_items=20, n_groups=4, k=3),
    scalability_sweeps=SweepValues(
        users=(40, 60),
        items=(15, 20),
        groups=(3, 5),
        top_k=(2, 4),
    ),
    repeats=1,
)

_SCALES = {scale.name: scale for scale in (_PAPER, _BENCH, _SMOKE)}


def get_scale(name: str | ExperimentScale = "bench") -> ExperimentScale:
    """Look up a preset by name (``"paper"``, ``"bench"`` or ``"smoke"``)."""
    if isinstance(name, ExperimentScale):
        return name
    key = str(name).strip().lower()
    if key not in _SCALES:
        known = ", ".join(sorted(_SCALES))
        raise ValueError(f"unknown experiment scale {name!r}; expected one of: {known}")
    return _SCALES[key]


def quality_defaults(scale: str | ExperimentScale = "bench") -> ExperimentDefaults:
    """Defaults of the quality experiments for the given scale."""
    return get_scale(scale).quality


def scalability_defaults(scale: str | ExperimentScale = "bench") -> ExperimentDefaults:
    """Defaults of the scalability experiments for the given scale."""
    return get_scale(scale).scalability
