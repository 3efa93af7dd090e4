"""ServiceConfig: validation, argparse round-trip, and the builders."""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro.core.errors import IngestError
from repro.service import ServiceConfig
from repro.service.cli import build_parser


def test_defaults_mirror_the_cli():
    args = build_parser().parse_args(["serve"])
    config = ServiceConfig.from_args(args)
    # The CLI pins the backend explicitly; every other default matches.
    assert config == ServiceConfig(backend=config.backend)
    assert config.effective_k_max == 20


def test_from_args_maps_flags_and_serial_execution():
    args = build_parser().parse_args(
        ["serve", "--users", "50", "--items", "10", "--store", "sparse",
         "--wal-dir", "/tmp/x",
         "--snapshot-every", "5", "--fsync-every", "3"]
    )
    config = ServiceConfig.from_args(args)
    assert config.users == 50 and config.items == 10
    assert config.store == "sparse"
    assert config.wal_dir == "/tmp/x"
    assert config.snapshot_every == 5 and config.fsync_every == 3
    assert config.effective_k_max == 10  # clamped to the catalogue

    # Sparse namespaces (benchmarks) fall back to defaults per field.
    partial = ServiceConfig.from_args(argparse.Namespace(users=7))
    assert partial.users == 7 and partial.items == ServiceConfig().items


def test_to_dict_is_json_shaped():
    out = ServiceConfig(users=5, items=4).to_dict()
    assert out["users"] == 5 and out["wal_dir"] is None
    assert set(out) == set(ServiceConfig.__dataclass_fields__)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"users": 0},
        {"store": "columnar"},
        {"density": 0.0},
        {"kernel_threads": 0},
        {"snapshot_every": -1},
        {"k_max": 0},
        {"batch_window": -0.1},
        {"fsync_every": 0},
    ],
)
def test_invalid_configs_raise(kwargs):
    with pytest.raises(IngestError):
        ServiceConfig(**kwargs)


def test_build_pipeline_requires_wal_dir():
    with pytest.raises(IngestError):
        ServiceConfig(users=5, items=4).build_pipeline()


def test_builders_produce_a_working_stack(tmp_path):
    config = ServiceConfig(
        users=20, items=8, seed=3, shards=2, wal_dir=str(tmp_path),
        snapshot_every=2,
    )
    store = config.build_store()
    assert store.shape == (20, 8)

    pipeline = config.build_pipeline()
    pipeline.apply(upserts=[(0, 0, 5.0)])
    live_items = pipeline.service.index.items.copy()
    live_values = pipeline.service.index.values.copy()
    pipeline.close()

    # Reopening through the same config recovers the same stack.
    reopened = ServiceConfig(
        users=20, items=8, seed=3, shards=2, wal_dir=str(tmp_path),
        snapshot_every=2,
    ).build_pipeline()
    assert np.array_equal(reopened.service.index.items, live_items)
    assert np.array_equal(reopened.service.index.values, live_values)

    # A different --k-max over the same WAL directory is not a recovery.
    reopened.snapshot()
    reopened.close()
    with pytest.raises(IngestError):
        ServiceConfig(
            users=20, items=8, seed=3, shards=2, k_max=3,
            wal_dir=str(tmp_path),
        ).build_pipeline()


def test_malformed_kernel_threads_env_fails_validation(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "abc")
    with pytest.raises(IngestError, match="REPRO_KERNEL_THREADS"):
        ServiceConfig(users=5, items=4)
    # An explicit thread count does not consult the environment.
    assert ServiceConfig(users=5, items=4, kernel_threads=2).kernel_threads == 2
