"""Bit-identity of the in-place synthetic generators against their spec.

The generators fill preallocated arrays in place (sparse: sort-based
dedup written straight into the CSR arrays; dense: one output array) for
time and memory.  The oracles below are the straightforward expression
forms they replace — ``np.unique`` per block and one concatenation for
the sparse store, full-size ``np.where`` temporaries for
:func:`archetype_population` — and every generated instance must match
them byte for byte: same seed, same draw order, same arrays and dtypes.

The three perfbench-shaped instances are pinned by sha256 digests
(recorded with the oracle forms) instead of recomputed here, because the
``np.unique`` oracle takes seconds at those sizes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy import sparse as sp

from repro.datasets import synthetic_yahoo_music
from repro.datasets.synthetic import (
    archetype_population,
    iter_synthetic_triples,
    synthetic_sparse_store,
)
from repro.recsys.matrix import RatingScale
from repro.utils.rng import ensure_rng

# --------------------------------------------------------------------- #
# Oracles: the expression forms of the generators.
# --------------------------------------------------------------------- #


def _oracle_block_coords(n_block_users, n_items, density, levels, generator):
    n_cells = n_block_users * n_items
    target = int(round(density * n_cells))
    if target <= 0:
        target = 1
    flat = np.unique(generator.integers(0, n_cells, size=target, dtype=np.int64))
    rows, cols = np.divmod(flat, n_items)
    ratings = generator.choice(levels, size=flat.size).astype(np.float64)
    return rows, cols, ratings


def _oracle_sparse_csr(n_users, n_items, density, rng, block_users=65_536,
                       scale=None):
    scale = scale if scale is not None else RatingScale(1.0, 5.0)
    generator = ensure_rng(rng)
    levels = scale.integer_levels().astype(np.float64)
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    indices_chunks, data_chunks = [], []
    for start in range(0, n_users, block_users):
        stop = min(start + block_users, n_users)
        rows, cols, ratings = _oracle_block_coords(
            stop - start, n_items, density, levels, generator
        )
        indptr[start + 1:stop + 1] = np.bincount(rows, minlength=stop - start)
        indices_chunks.append(cols.astype(np.int32))
        data_chunks.append(ratings)
    np.cumsum(indptr, out=indptr)
    data = np.concatenate(data_chunks)
    indices = np.concatenate(indices_chunks)
    if indptr[-1] <= np.iinfo(np.int32).max:
        indptr = indptr.astype(np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=(n_users, n_items))


def _oracle_archetype_values(
    n_users, n_items, n_archetypes=12, fidelity=0.95, dislike_rate=0.03,
    head_fraction=0.3, favorites_per_archetype=8, popularity_skew=0.8,
    scale=None, rng=None,
):
    scale = scale if scale is not None else RatingScale(1.0, 5.0)
    generator = ensure_rng(rng)
    r_max, r_min = scale.maximum, scale.minimum
    n_head = int(np.clip(round(head_fraction * n_items), 1, n_items))
    n_favorites = min(favorites_per_archetype, n_head)
    weights = 1.0 / np.power(np.arange(1, n_head + 1), popularity_skew)
    weights = weights / weights.sum()
    middling = np.clip(np.array([2.0, 3.0]), r_min, r_max)
    prototypes = np.empty((n_archetypes, n_head))
    for archetype in range(n_archetypes):
        prototypes[archetype] = generator.choice(middling, size=n_head)
        favourites = generator.choice(
            n_head, size=n_favorites, replace=False, p=weights
        )
        prototypes[archetype, favourites] = r_max
    assignments = generator.integers(0, n_archetypes, size=n_users)
    head_values = prototypes[assignments].copy()
    perturb = generator.random(size=head_values.shape) > fidelity
    shifts = generator.choice(np.array([-1.0, 1.0]), size=head_values.shape)
    head_values = np.where(perturb, scale.clip(head_values + shifts), head_values)
    tail_levels = np.arange(int(np.ceil(r_min)), int(r_max))
    if tail_levels.size == 0:
        tail_levels = np.array([int(r_min)])
    tail_values = generator.choice(
        tail_levels.astype(float), size=(n_users, n_items - n_head)
    )
    values = np.concatenate([head_values, tail_values], axis=1)
    if dislike_rate > 0.0:
        dislikes = generator.random(size=values.shape) < dislike_rate
        low = r_min + generator.integers(0, 2, size=values.shape)
        values = np.where(dislikes, np.minimum(values, low), values)
    return values


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        _assert_same_bytes(getattr(got, name), getattr(want, name))


# --------------------------------------------------------------------- #
# Sparse generator
# --------------------------------------------------------------------- #

SPARSE_GRID = [
    # (n_users, n_items, density, block_users)
    (1, 1, 1.0, 65_536),
    (50, 40, 0.05, 65_536),
    (200, 30, 0.3, 64),  # several blocks, the last one short
    (257, 19, 0.9, 16),  # dense blocks: heavy birthday collisions
    (100, 100, 1e-6, 65_536),  # target rounds to 1 cell
    (90, 7, 1e-5, 8),  # every block's target rounds to 1 cell
    (1_000, 500, 0.01, 300),
]


@pytest.mark.parametrize(("n_users", "n_items", "density", "block_users"), SPARSE_GRID)
@pytest.mark.parametrize("seed", [0, 1, 97])
def test_sparse_store_matches_the_oracle(n_users, n_items, density, block_users, seed):
    got = synthetic_sparse_store(
        n_users, n_items, density, rng=seed, block_users=block_users
    ).csr
    want = _oracle_sparse_csr(n_users, n_items, density, seed, block_users)
    _assert_same_csr(got, want)
    assert got.has_sorted_indices and got.has_canonical_format


def test_sparse_store_matches_the_oracle_on_another_scale():
    scale = RatingScale(0.0, 10.0)
    got = synthetic_sparse_store(
        300, 40, 0.2, scale=scale, rng=5, block_users=70
    ).csr
    want = _oracle_sparse_csr(300, 40, 0.2, 5, 70, scale=scale)
    _assert_same_csr(got, want)


def test_sparse_store_leaves_a_shared_generator_where_the_oracle_does():
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    synthetic_sparse_store(120, 25, 0.1, rng=got_rng, block_users=50)
    _oracle_sparse_csr(120, 25, 0.1, want_rng, 50)
    assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)


@pytest.mark.parametrize(("n_users", "n_items", "density", "block_users"), SPARSE_GRID)
def test_streamed_triples_reproduce_the_store(n_users, n_items, density, block_users):
    store = synthetic_sparse_store(
        n_users, n_items, density, rng=11, block_users=block_users
    )
    triples = list(iter_synthetic_triples(
        n_users, n_items, density, rng=11, block_users=block_users
    ))
    coo = store.csr.tocoo()
    # Same cells, same ratings, same (CSR) order.
    assert triples == list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


# --------------------------------------------------------------------- #
# Dense generator
# --------------------------------------------------------------------- #

DENSE_GRID = [
    dict(n_users=1, n_items=1),
    dict(n_users=40, n_items=25),
    dict(n_users=300, n_items=60, n_archetypes=5),
    dict(n_users=120, n_items=10, head_fraction=1.0),  # n_head == n_items
    dict(n_users=80, n_items=30, dislike_rate=0.0),
    dict(n_users=80, n_items=30, dislike_rate=1.0),
    dict(n_users=90, n_items=45, fidelity=0.0),
    dict(n_users=90, n_items=45, fidelity=1.0),
    dict(n_users=70, n_items=50, head_fraction=0.0, favorites_per_archetype=3),
    dict(n_users=60, n_items=33, scale=RatingScale(1.0, 10.0),
         popularity_skew=0.0),
    dict(n_users=60, n_items=20, scale=RatingScale(1.0, 2.0)),  # one tail level
    # More rows than one dislike chunk: the chunked minimum spans chunks.
    dict(n_users=1_100, n_items=2_000, n_archetypes=10, fidelity=0.93,
         dislike_rate=0.05, popularity_skew=0.9),
]


@pytest.mark.parametrize("params", DENSE_GRID)
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_archetype_population_matches_the_oracle(params, seed):
    got = archetype_population(rng=seed, **params).values
    want = _oracle_archetype_values(rng=seed, **params)
    _assert_same_bytes(got, want)


def test_archetype_population_leaves_a_shared_generator_where_the_oracle_does():
    got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
    archetype_population(64, 30, rng=got_rng)
    _oracle_archetype_values(64, 30, rng=want_rng)
    assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)


def test_archetype_population_returns_an_owned_contiguous_array():
    matrix = archetype_population(50, 20, rng=4)
    assert matrix.values.flags.c_contiguous and matrix.values.flags.owndata


# --------------------------------------------------------------------- #
# Pinned perfbench-shaped instances
# --------------------------------------------------------------------- #


def test_batch_sparse_instance_is_pinned():
    csr = synthetic_sparse_store(50_000, 10_000, 0.01, rng=1).csr
    assert (csr.indptr.dtype, csr.indices.dtype, csr.data.dtype) == (
        np.int32, np.int32, np.float64,
    )
    assert _digest(csr.indptr, csr.indices, csr.data) == (
        "9250edd095cd8c702a44ce524b1c66fb9f7bafe202978bbc5f6b8ca565dc2546"
    )


def test_serve_ingest_instance_is_pinned():
    csr = synthetic_sparse_store(20_000, 2_000, 0.02, rng=1).csr
    assert _digest(csr.indptr, csr.indices, csr.data) == (
        "3564220e55b3abaea7ff30109fca680939f010aea4d33c91b2e4aa787a2f9f29"
    )


def test_serve_read_instance_is_pinned():
    values = synthetic_yahoo_music(20_000, 1_000, rng=1).values
    assert _digest(values) == (
        "2f63cff5984b8fe72a0d51e912fe860e3d30f2156d35860a73abd88ca92220b7"
    )
