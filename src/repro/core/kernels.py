"""Low-level, allocation-conscious kernels of the formation hot path.

Profiling million-user formation runs shows nearly all the time goes to two
single-core kernels: ranking every user's top-``k`` items (the
:class:`~repro.core.topk_index.TopKIndex` build) and grouping users whose
top-``k`` key rows are identical (step 1 bucketing).  This module owns both,
with one path per stage:

Every compiled kernel lives in the one C library of
:mod:`repro.core.kernels_cc`, built on first use with the system compiler
and loaded once per process; each stage runs it whenever it loads.

**Top-k** runs the library's compiled kernel (threaded over rows).
Without a C compiler — or with ``REPRO_KERNEL_CC=none`` — it runs
the numpy blocked kernel: bounded **row blocks** over reusable thread-local
scratch, an argmax peel while ``k`` is small and a partition-select with a
deterministic tail re-sort once ``k`` grows.  Both reproduce the
library-wide tie-break (rating descending, item index ascending) of the
stable-argsort specification :func:`repro.core.preferences.top_k_table`
bit for bit; the compiled kernel's rows are independent, so results are
identical for every thread count (:func:`set_kernel_threads`, the
``--kernel-threads`` flag and the ``REPRO_KERNEL_THREADS`` environment
variable).

**Bucketing** follows the same rule: the library's hash grouping when it
loads, numpy otherwise.
The numpy leg hashes each bucket key to one 64-bit polynomial
**fingerprint** in a fused pass over the top-k tables (the packed key
matrix is never materialised), groups users by one integer argsort
(re-sorted within fingerprint runs only when some run holds more than
one user), verifies the groups against the exact keys, and runs an exact
lexsort over the packed keys only when a fingerprint collision is
detected.  Both legs return the same bytes: buckets numbered by first
occurrence (ascending representative), members ascending.  **Selection**
(:func:`select_best_buckets`) finds the ``ℓ - 1`` best buckets by
``(score, representative)`` with one partition and a sort of the few
candidates, not a full lexsort.

A :class:`~repro.recsys.store.SparseStore` is ranked by a separate CSR
top-k kernel (:func:`csr_top_k_table`): it selects over each row's stored
entries and the fill-valued items and never builds a dense block, runs
compiled when the library loads, and falls back to a numpy kernel
otherwise.  It is bit-identical to :func:`top_k_table` on the densified
rows.  A store whose values sit on integer levels hands it a ``uint8``
level code per stored entry (:func:`entry_levels`), and both
implementations then rank by level instead of comparing float64 values.

**Group scoring** (step 3) has two kernels, both behind an exactness gate
that admits only inputs whose reduction order cannot change a bit (no
``-0.0``; for AV sums, integer values bounded by ``2**53``): the compiled
column reduce scores the left-over group in place, from a sparse store's
CSR rows (:func:`csr_item_scores`, numpy fallback) or a dense store's
array rows (:func:`dense_item_scores`), and :func:`segment_scores`
reduces every selected group at once over flat ``(member_ids, offsets)``
segments.  A left-over group holding most of a sparse store's rows is
scored from per-item level counts instead (:func:`csr_level_counts`,
:func:`level_item_scores`): the whole store's counts minus those of the
few rows outside the group.

``tests/core/test_kernels.py``, ``tests/core/test_bucketing.py``,
``tests/core/test_segment_scoring.py`` and
``tests/core/test_dense_scoring.py`` check every path against the
specifications.

Inputs are assumed NaN-free (every rating store validates completeness);
``±inf`` is handled exactly by the compiled and partition-select paths,
and explicit ``-inf`` ratings route the numpy path to the stable sort
(the peel uses ``-inf`` as its mask sentinel).
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

from repro.core.errors import GroupFormationError
from repro.core.preferences import _top_k_table_sorted
from repro.core.semantics import Semantics
from repro.obs.registry import (
    H_KERNEL_BUCKETIZE,
    H_KERNEL_SCORE,
    H_KERNEL_TOPK,
    K_KERNEL_BUCKETIZE_CALLS,
    K_KERNEL_TOPK_CALLS,
)
from repro.obs.runtime import observed

__all__ = [
    "KERNEL_THREADS_ENV",
    "bucket_reduce",
    "bucketize",
    "clear_scratch",
    "csr_cells",
    "csr_item_scores",
    "csr_level_counts",
    "csr_top_k_table",
    "dense_item_scores",
    "entry_levels",
    "fingerprint_rows",
    "float_to_ordinal",
    "fused_fingerprint_rows",
    "get_kernel_threads",
    "group_key_rows",
    "level_item_scores",
    "level_scores_exact",
    "pack_key_rows",
    "parallel_available",
    "segment_positions",
    "segment_scores",
    "select_best_buckets",
    "set_kernel_threads",
    "top_k_table",
    "use_kernel_threads",
]

#: Environment variable supplying the default kernel thread count.
KERNEL_THREADS_ENV = "REPRO_KERNEL_THREADS"

_scratch = threading.local()

#: Explicit kernel thread count (``None`` = auto: the
#: :data:`KERNEL_THREADS_ENV` environment variable, else the CPU count).
_threads: int | None = None

#: The CPU count, read once: ``os.cpu_count()`` costs tens of microseconds
#: on some hosts, and every kernel call asks for its thread count.
_CPU_COUNT = os.cpu_count() or 1

#: Peak bytes of the reusable float64 scratch block (per thread); the numpy
#: top-k kernel sizes its row blocks so one block fits in cache and the
#: peak working set stays bounded on dense 1M x 10k inputs.
_SCRATCH_TARGET_BYTES = 8 << 20
_MAX_BLOCK_ROWS = 2048
_MIN_BLOCK_ROWS = 64

#: Candidates (stored entries plus ``k`` fill candidates per row) the numpy
#: CSR top-k ranks per block, sized from the same scratch target as the
#: dense blocks: its temporaries take ~100 bytes per candidate, so a block
#: peaks near 13 MB however many rows one call ranks.
_CSR_BLOCK_ENTRIES = _SCRATCH_TARGET_BYTES // 64

#: Entries :func:`entry_levels` encodes and :func:`csr_level_counts`
#: counts per pass, at least (the temporaries take ~24 bytes per entry:
#: ~2 MiB here, where 2**20 entries added ~26 MiB to batch-sparse's peak
#: RSS and ran slower; the encode took 11 ms per 5M entries here, 23 ms
#: at 2**20).
_LEVEL_CHUNK_ENTRIES = 1 << 16

#: Odd 64-bit multiplier (2^64 / golden ratio) for the polynomial row hash.
_FINGERPRINT_MULTIPLIER = 0x9E3779B97F4A7C15

#: Bit pattern of ``-0.0``: it compares equal to ``+0.0`` with different
#: bits, so ``min`` (and an all-zero sum) depends on reduction order.
_NEGATIVE_ZERO_BITS = np.uint64(1 << 63)

#: Largest magnitude below which every integer-valued float64 sum is exact.
_EXACT_INTEGER_LIMIT = float(2**53)


def _load_compiled():
    """The compiled kernels, or ``None`` when they cannot be built/loaded."""
    from repro.core import kernels_cc

    return kernels_cc.load_compiled()


def parallel_available() -> bool:
    """Whether the compiled kernels can run in this process.

    Building/loading the compiled library happens (once) on the first
    call; a box without a C compiler — or with the backend disabled via
    ``REPRO_KERNEL_CC=none`` — reports ``False`` and :func:`top_k_table`
    runs the numpy kernel instead.
    """
    return _load_compiled() is not None


def get_kernel_threads() -> int:
    """The kernel thread count compiled kernels run with (always >= 1).

    Resolution order: an explicit :func:`set_kernel_threads` value, the
    :data:`KERNEL_THREADS_ENV` environment variable, then the CPU count.
    Thread count never affects results — the compiled kernels are
    row-independent — only wall-clock time.

    Raises
    ------
    ValueError
        When :data:`KERNEL_THREADS_ENV` is set to anything but a positive
        integer (instead of silently falling back to the CPU count).
    """
    if _threads is not None:
        return _threads
    env = os.environ.get(KERNEL_THREADS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(
                f"{KERNEL_THREADS_ENV} must be a positive integer, got {env!r}"
            )
        return value
    return _CPU_COUNT


def set_kernel_threads(n: int | None) -> int | None:
    """Set the kernel thread count process-wide.

    Parameters
    ----------
    n:
        Thread count (>= 1), or ``None`` to restore the automatic
        default (environment variable, then CPU count).

    Returns
    -------
    int or None
        The previous explicit setting (``None`` when it was automatic),
        so callers can restore it.
    """
    global _threads
    if n is not None:
        n = int(n)
        if n < 1:
            raise ValueError(f"kernel thread count must be >= 1, got {n}")
    previous = _threads
    _threads = n
    return previous


@contextmanager
def use_kernel_threads(n: int | None) -> Iterator[int]:
    """Context manager: run a block with the given kernel thread count.

    Parameters
    ----------
    n:
        Thread count (>= 1) or ``None`` for automatic; the previous
        setting is restored on exit.
    """
    previous = set_kernel_threads(n)
    try:
        yield get_kernel_threads()
    finally:
        set_kernel_threads(previous)


def clear_scratch() -> None:
    """Drop this thread's reusable kernel scratch buffers.

    The numpy kernels keep one set of block-sized work arrays per thread to
    avoid re-faulting fresh pages on every call; long-lived hosts that want
    the memory back (or tests measuring allocations) call this.
    """
    _scratch.__dict__.clear()


def _scratch_array(name: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A reusable per-thread array of at least ``shape`` (uninitialised)."""
    key = (name, np.dtype(dtype).str)
    cached = _scratch.__dict__.get(key)
    needed = int(np.prod(shape))
    if cached is None or cached.size < needed:
        cached = np.empty(needed, dtype=dtype)
        _scratch.__dict__[key] = cached
    return cached[:needed].reshape(shape)


# --------------------------------------------------------------------------- #
# Monotone float -> uint64 ordinal transform
# --------------------------------------------------------------------------- #


def float_to_ordinal(values: np.ndarray) -> np.ndarray:
    """Map floats to ``uint64`` ordinals that sort and compare like the floats.

    The transform is the standard sign-flip trick on the IEEE-754 bit
    pattern: non-negative patterns get the sign bit set, negative patterns
    are bitwise complemented.  It is a **bijection** on bit patterns with
    two properties the kernels rely on:

    * **order**: for non-NaN ``a < b`` implies ``ord(a) < ord(b)`` — packed
      score columns keep their exact ordering under unsigned integer
      comparison (``-0.0`` orders strictly below ``+0.0``, refining the IEEE
      tie);
    * **equality**: ``ord(a) == ord(b)`` exactly when ``a`` and ``b`` have
      identical bit patterns — the same equality the reference backend's
      byte keys implement (so ``-0.0`` and ``+0.0`` stay *distinct* keys,
      and every NaN payload is distinct but deterministic).

    ``float32`` input is upcast to ``float64`` first (exact and monotone),
    so both widths share one ordinal space.  Subnormals and ``±inf`` need no
    special cases: subnormal patterns already sit between zero and the
    smallest normal, and ``±inf`` between the finite range and the NaN
    patterns (positive NaNs map above ``+inf``, negative NaNs below
    ``-inf``).

    Parameters
    ----------
    values:
        Array of ``float64`` or ``float32`` (any shape).

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of the same shape.
    """
    values = np.asarray(values)
    if values.dtype != np.float64:
        values = values.astype(np.float64)
    bits = np.ascontiguousarray(values).view(np.uint64)
    sign = np.uint64(1) << np.uint64(63)
    return np.where(bits & sign, ~bits, bits | sign)


# --------------------------------------------------------------------------- #
# Top-k table kernels
# --------------------------------------------------------------------------- #


def _block_rows(n_items: int) -> int:
    """Rows per block so one float64 block hits the scratch byte target."""
    rows = _SCRATCH_TARGET_BYTES // (8 * max(n_items, 1))
    return max(_MIN_BLOCK_ROWS, min(_MAX_BLOCK_ROWS, int(rows)))


def _topk_block_peel(
    block: np.ndarray, k: int, items_out: np.ndarray, values_out: np.ndarray
) -> None:
    """Argmax-peel one row block over reusable scratch (small ``k``).

    ``np.argmax`` returns the first occurrence of the maximum — the lowest
    item index — which is exactly the library tie-break, so ``k`` peels
    reproduce the stable-sort table bit for bit.  The scratch copy keeps
    the peel's ``-inf`` masking off the caller's data, and the output
    values are gathered from the original ``block`` so bit patterns (e.g.
    ``-0.0``) survive untouched.
    """
    n_rows = block.shape[0]
    work = _scratch_array("topk_work", block.shape, np.float64)
    np.copyto(work, block)
    rows = np.arange(n_rows)
    for rank in range(k):
        best = np.argmax(work, axis=1)
        items_out[:, rank] = best
        work[rows, best] = -np.inf
    values_out[:] = np.take_along_axis(block, items_out, axis=1)


def _topk_block_select(
    block: np.ndarray, k: int, items_out: np.ndarray, values_out: np.ndarray
) -> None:
    """Partition-select one row block with a deterministic tail re-sort.

    One in-place introselect over scratch finds each row's k-th largest
    value; items strictly above it are all selected, and ties *at* the
    boundary are resolved to the lowest item indices (the library
    tie-break) by ranking the equal entries in index order.  A stable
    ``O(k log k)`` argsort of the selected candidates then reproduces the
    (rating descending, item ascending) order bit for bit — equal values
    keep the ascending index order the candidates arrive in.  Exact for
    ``±inf``; only NaN (excluded by store validation) is undefined.
    """
    n_rows, n_items = block.shape
    work = _scratch_array("topk_work", block.shape, np.float64)
    np.copyto(work, block)
    work.partition(n_items - k, axis=1)
    boundary = np.ascontiguousarray(work[:, n_items - k])[:, None]

    keep = _scratch_array("topk_keep", block.shape, np.bool_)
    np.greater_equal(block, boundary, out=keep)
    equal = _scratch_array("topk_equal", block.shape, np.bool_)
    np.equal(block, boundary, out=equal)
    n_keep = keep.sum(axis=1)
    n_equal = equal.sum(axis=1)
    # Of the entries equal to the boundary, only the first
    # (k - #strictly-greater) per row survive.
    quota = (k - (n_keep - n_equal))[:, None]
    rank = _scratch_array("topk_rank", block.shape, np.int32)
    np.cumsum(equal, axis=1, dtype=np.int32, out=rank)
    spill = _scratch_array("topk_spill", block.shape, np.bool_)
    np.greater(rank, quota, out=spill)
    spill &= equal
    keep &= ~spill

    candidates = np.nonzero(keep)[1].reshape(n_rows, k)
    candidate_values = np.take_along_axis(block, candidates, axis=1)
    order = np.argsort(-candidate_values, axis=1, kind="stable")
    items_out[:] = np.take_along_axis(candidates, order, axis=1)
    values_out[:] = np.take_along_axis(candidate_values, order, axis=1)


def _top_k_table_numpy(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The numpy blocked top-k kernel (validation already done)."""
    n_users, n_items = values.shape
    items_table = np.empty((n_users, k), dtype=np.int64)
    values_table = np.empty((n_users, k), dtype=np.float64)
    # The peel streams k cache-resident passes; the partition-select pays a
    # few extra mask passes but only one selection pass, which wins once k
    # grows past a small fraction of the catalogue (measured crossover).
    use_peel = k <= max(16, n_items // 8)
    block_rows = _block_rows(n_items)
    for start in range(0, n_users, block_rows):
        stop = min(start + block_rows, n_users)
        block = values[start:stop]
        if use_peel:
            _topk_block_peel(block, k, items_table[start:stop], values_table[start:stop])
        else:
            _topk_block_select(
                block, k, items_table[start:stop], values_table[start:stop]
            )
    return items_table, values_table


def top_k_table(
    values: np.ndarray, k: int, assume_finite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user top-``k`` items and ratings (compiled, else numpy).

    Runs the compiled kernel when it loads and the numpy blocked kernel
    otherwise; both implement the library tie-break (rating descending,
    item index ascending) bit for bit, so only speed differs.  ``k`` is
    checked here (the compiled kernel writes ``k`` slots per row); the
    rest of the validation (2-D shape, no NaN) is the caller's
    responsibility, matching the internal kernels this function fronts.

    Parameters
    ----------
    values:
        Complete ``(n_users, n_items)`` float rating array (NaN-free).
    k:
        Top-k prefix length.
    assume_finite:
        Promise that ``values`` contains no ``-inf``; lets the numpy path
        skip its sentinel scan (an explicit ``-inf`` would collide with
        the peel's mask sentinel, so such rows take the stable sort; the
        compiled kernel compares values and needs no sentinel at all).

    Returns
    -------
    (items, values):
        ``(n_users, k)`` int64 item table and float64 rating table.
    """
    values = np.asarray(values, dtype=np.float64)
    n_items = values.shape[1]
    if not 1 <= k <= n_items:
        raise ValueError(f"k must be between 1 and n_items ({n_items}), got {k}")
    with observed("kernel.top_k", H_KERNEL_TOPK, counter=K_KERNEL_TOPK_CALLS):
        backend = _load_compiled()
        if backend is not None:
            return backend.top_k(values, k, get_kernel_threads())
        if not assume_finite and np.isneginf(values).any():
            return _top_k_table_sorted(values, k)
        return _top_k_table_numpy(values, k)


def segment_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Positions of the segments ``[starts[i], starts[i] + sizes[i])``, concatenated.

    The gather index that packs those segments contiguously in the given
    order (position ``j`` of segment ``i`` lands at its packed start +
    ``j``), without a Python loop over segments.

    Parameters
    ----------
    starts:
        ``int64`` first position of each segment in the source array.
    sizes:
        ``int64`` length of each segment.
    """
    packed_starts = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) + np.repeat(starts - packed_starts, sizes)


def _csr_row_entries(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every stored entry of the CSR ``rows``, row by row in ``rows`` order.

    Returns
    -------
    (entry_row, positions):
        Per entry, its row's position in ``rows`` and its position in the
        matrix's ``data``/``indices`` arrays.
    """
    starts = indptr[rows].astype(np.int64)
    counts = indptr[rows + 1].astype(np.int64) - starts
    return np.repeat(np.arange(rows.size), counts), segment_positions(starts, counts)


def _cell_positions(
    entry_row: np.ndarray,
    items: np.ndarray,
    n_items: int,
    row: np.ndarray,
    item: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Where the cells ``(row, item)`` (broadcast) sit among gathered entries.

    The entries (``entry_row``, ``items`` from :func:`_csr_row_entries`)
    are keyed ``entry_row * n_items + item``, ascending because each row's
    indices are sorted, so one ``searchsorted`` places every wanted cell.

    Returns
    -------
    (at, found):
        Per cell, its insertion point among the entries and whether the
        entry there is the cell itself (a stored cell).
    """
    wanted = row * np.int64(n_items) + item
    if not items.size:
        return np.zeros(wanted.shape, dtype=np.int64), np.zeros(wanted.shape, dtype=bool)
    keys = entry_row * np.int64(n_items) + items
    at = np.searchsorted(keys, wanted)
    return at, keys[np.minimum(at, keys.size - 1)] == wanted


def _lookup_cells(
    entry_row: np.ndarray,
    items: np.ndarray,
    values: np.ndarray,
    n_items: int,
    row: np.ndarray,
    item: np.ndarray,
    fill: float,
) -> np.ndarray:
    """Cells ``(row, item)`` (broadcast) among gathered entries, else ``fill``.

    The entries are ``entry_row``, ``items``, ``values`` from
    :func:`_csr_row_entries`, located by :func:`_cell_positions`.
    """
    at, found = _cell_positions(entry_row, items, n_items, row, item)
    cells = np.full(found.shape, fill, dtype=np.float64)
    cells[found] = values[at[found]]
    return cells


def _fill_level(fill: float, lowest: float, n_levels: int) -> tuple[int, int]:
    """Where ``fill`` sits among the levels ``lowest + j``, by comparison.

    Returns
    -------
    (fill_code, above):
        The fill's own level (``-1`` when it is on none) and the first
        level above it (``n_levels`` when none is).
    """
    levels = lowest + np.arange(n_levels, dtype=np.float64)
    above = int(np.searchsorted(levels, fill, side="right"))
    on_level = above > 0 and levels[above - 1] == fill
    return (above - 1 if on_level else -1), above


def _csr_top_k_numpy(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    rows: np.ndarray,
    n_items: int,
    k: int,
    fill: float,
    levels: tuple[np.ndarray, float, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy CSR top-k kernel (used when no C compiler is available).

    Ranks ``rows`` in blocks of at most :data:`_CSR_BLOCK_ENTRIES`
    candidates (a row's stored entries plus its ``k`` fill candidates; a
    heavier row is a block of its own), so the temporaries stay bounded
    however many rows one call ranks.  Rows are independent, so the
    blocks never change the result.  ``levels`` is as in
    :func:`csr_top_k_table`.
    """
    n_rows = rows.size
    items_table = np.empty((n_rows, k), dtype=np.int64)
    values_table = np.empty((n_rows, k), dtype=np.float64)
    cost = np.cumsum(indptr[rows + 1].astype(np.int64) - indptr[rows] + k)
    start = 0
    while start < n_rows:
        spent = int(cost[start - 1]) if start else 0
        stop = int(np.searchsorted(cost, spent + _CSR_BLOCK_ENTRIES, side="right"))
        stop = max(stop, start + 1)
        items_table[start:stop], values_table[start:stop] = _csr_top_k_block(
            data, indices, indptr, rows[start:stop], n_items, k, fill, levels
        )
        start = stop
    return items_table, values_table


def _csr_top_k_block(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    rows: np.ndarray,
    n_items: int,
    k: int,
    fill: float,
    levels: tuple[np.ndarray, float, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One block of :func:`_csr_top_k_numpy`.

    A row's dense top-``k`` lies among its stored entries that differ from
    ``fill`` plus its first ``k`` fill-valued items (unstored cells, or
    stored entries equal to ``fill``, whose own bits are kept), all of
    which tie, so the lowest indices rank first.  The ``m``-th fill-valued
    item of a row is ``m`` plus the number of its other entries ``s_i``
    (the ``i``-th, ascending) with ``s_i - i <= m``: one ``searchsorted``
    over all rows.  The candidates, each row's differing entries then its
    fill-valued items, both in ascending item order, are sorted stably by
    (row, rating descending); equal ratings within a row only occur
    inside one of the two lists, so ties keep ascending item order.

    Without ``levels`` the sort is a ``lexsort`` of the float64 values
    (comparisons only: ``-0.0`` ties ``+0.0`` exactly as in the dense
    kernels).  With them it is one stable ``argsort`` of the integer key
    ``row * R + (R - rank)``, where a level ``j`` ranks ``2j + 1``, the
    fill ranks with its level or, off the levels, ``2 * above`` between
    its neighbours, and ``R = 2 * n_levels + 2`` exceeds every rank.
    Values are then ``lowest + j``, and ``fill`` for the fill band: no
    ``-0.0`` is coded and :func:`csr_top_k_table` ranks a ``-0.0`` fill
    by value, so a stored fill-valued entry has the fill's bits.
    """
    n_rows = rows.size
    entry_row, positions = _csr_row_entries(indptr, rows)
    items = indices[positions].astype(np.int64)
    if levels is None:
        values = data[positions]
        other = values != fill
    else:
        codes, lowest, n_levels = levels
        fill_code, above = _fill_level(fill, lowest, n_levels)
        entry_codes = codes[positions]
        other = entry_codes != fill_code
    other_row, other_item = entry_row[other], items[other]
    other_first = np.searchsorted(other_row, np.arange(n_rows))
    width = np.int64(n_items + 1)
    gaps = other_row * width + other_item - (
        np.arange(other_row.size) - other_first[other_row]
    )
    fill_row = np.repeat(np.arange(n_rows), k)
    rank = np.tile(np.arange(k), n_rows)
    fill_item = (
        rank
        + np.searchsorted(gaps, fill_row * width + rank, side="right")
        - other_first[fill_row]
    )
    valid = fill_item < n_items
    fill_row, fill_item = fill_row[valid], fill_item[valid]

    cand_row = np.concatenate((other_row, fill_row))
    cand_item = np.concatenate((other_item, fill_item))
    if levels is None:
        fill_values = _lookup_cells(
            entry_row, items, values, n_items, fill_row, fill_item, fill
        )
        cand_value = np.concatenate((values[other], fill_values))
        order = np.lexsort((-cand_value, cand_row))
    else:
        other_codes = entry_codes[other].astype(np.int64)
        fill_rank = 2 * fill_code + 1 if fill_code >= 0 else 2 * above
        span = 2 * n_levels + 2
        key = np.concatenate((
            other_row * span + (span - 1 - 2 * other_codes),
            fill_row * span + (span - fill_rank),
        ))
        order = np.argsort(key, kind="stable")
        cand_value = np.concatenate((
            lowest + other_codes.astype(np.float64),
            np.full(fill_row.size, fill),
        ))
    per_row = np.bincount(cand_row, minlength=n_rows)
    position = np.arange(order.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    take = order[position < k]
    return cand_item[take].reshape(n_rows, k), cand_value[take].reshape(n_rows, k)


def csr_top_k_table(
    csr,
    rows: np.ndarray,
    k: int,
    fill: float,
    ceiling: float,
    levels: tuple[np.ndarray, float, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of CSR rows read as dense rows filled with ``fill``.

    Bit-identical to :func:`top_k_table` on the densified rows (rating
    descending, item index ascending) at ``O(nnz + k)`` per row instead of
    ``O(n_items)``: no dense canvas is ever built.  Runs the compiled CSR
    kernel of :mod:`repro.core.kernels_cc` (built on the first call) and
    falls back to the numpy kernel when no C compiler is available; the
    fallback ranks in row blocks of a fixed entry budget, so one call over
    every row of a million-user store keeps its temporaries bounded.

    With ``levels`` both rank the entries' ``uint8`` level codes instead
    of their float64 values (ROADMAP item 9B).  The compiled kernel keeps,
    per row, a count and the first ``k`` items of each level, and stops
    reading a row once its top level holds ``k`` entries above the fill;
    the numpy fallback sorts one integer key per candidate.  A ``-0.0``
    fill ranks by value (a stored ``+0.0`` in its band keeps its own bits,
    which the codes do not carry).

    Without ``levels`` the compiled kernel compares values and stops
    reading a row's stored entries once its ``k`` best sit at
    ``ceiling``: a full top-k buffer admits only values strictly greater
    than its worst, so with ``ceiling`` an upper bound of every stored
    value nothing later can enter and the table is unchanged.  The numpy
    fallback ranks a block by one sort and has no scan to stop.

    Parameters
    ----------
    csr:
        ``scipy.sparse`` CSR matrix with sorted, unique column indices per
        row (the :class:`~repro.recsys.store.SparseStore` invariant).
    rows:
        Row ids to rank, in output order.
    k:
        Top-k prefix length (``1 <= k <= n_items``).
    fill:
        Rating of every unstored cell.
    ceiling:
        Upper bound of every stored value (a validated store's scale
        maximum; ``+inf`` bounds any NaN-free data and never stops a
        scan).  A bound that some stored value exceeds gives wrong tables.
    levels:
        ``(codes, lowest, n_levels)``: per stored entry (aligned with
        ``csr.indices``) the ``uint8`` code ``j`` of its value
        ``lowest + j`` (:func:`entry_levels`), with ``n_levels`` distinct,
        exactly representable levels; ``None`` ranks the float64 values.
        Codes that disagree with ``csr.data`` give wrong tables.

    Returns
    -------
    (items, values):
        ``(len(rows), k)`` int64 item table and float64 rating table.
    """
    n_items = csr.shape[1]
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if not 1 <= k <= n_items:
        raise ValueError(f"k must be between 1 and n_items ({n_items}), got {k}")
    if rows.size and (rows.min() < 0 or rows.max() >= csr.shape[0]):
        raise IndexError("CSR top-k row id out of range")
    if levels is not None and _has_negative_zero(fill):
        levels = None
    with observed("kernel.top_k", H_KERNEL_TOPK, counter=K_KERNEL_TOPK_CALLS):
        backend = _load_compiled()
        if backend is None:
            return _csr_top_k_numpy(
                csr.data, csr.indices, csr.indptr, rows, n_items, k, fill, levels
            )
        if levels is None:
            return backend.csr_top_k(
                csr.data, csr.indices, csr.indptr, rows, n_items, k, fill,
                ceiling, get_kernel_threads(),
            )
        codes, lowest, n_levels = levels
        return backend.level_top_k(
            codes, csr.indices, csr.indptr, rows, n_items, k, fill, lowest,
            n_levels, get_kernel_threads(),
        )


# --------------------------------------------------------------------------- #
# Group scoring kernels
# --------------------------------------------------------------------------- #


def csr_cells(
    csr, rows: np.ndarray, columns: np.ndarray, fill: float
) -> np.ndarray:
    """Cells ``(rows[i], columns[i, j])`` of CSR rows read with ``fill`` elsewhere.

    The rows' stored entries are gathered once and every cell is looked
    up with one ``searchsorted``; no dense row is built.

    Parameters
    ----------
    csr:
        ``scipy.sparse`` CSR matrix with sorted, unique column indices per
        row (the :class:`~repro.recsys.store.SparseStore` invariant).
    rows:
        ``(n,)`` validated ``int64`` row ids.
    columns:
        ``(n, k)`` item ids, row ``i`` read from ``rows[i]``.
    fill:
        Value of every unstored cell.

    Returns
    -------
    numpy.ndarray
        ``(n, k)`` float64 cells (stored bits kept, else ``fill``).
    """
    entry_row, positions = _csr_row_entries(csr.indptr, rows)
    return _lookup_cells(
        entry_row, csr.indices[positions], csr.data[positions], csr.shape[1],
        np.arange(rows.size, dtype=np.int64)[:, None], columns, fill,
    )


def _has_negative_zero(values: np.ndarray | float) -> bool:
    """Whether any element of the float64 ``values`` is ``-0.0``."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    return bool((bits == _NEGATIVE_ZERO_BITS).any())


def _csr_column_reduce_numpy(
    csr, members: np.ndarray, least_misery: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """The numpy column reduce (used when no C compiler is available).

    Gathers the members' rows and reduces them per item with ``bincount``
    / ``np.minimum.at``; same contract as
    :meth:`repro.core.kernels_cc.CompiledKernels.column_reduce`.
    """
    gathered = csr[members]
    values, items = gathered.data, gathered.indices
    if _has_negative_zero(values):
        return None
    n_items = csr.shape[1]
    counts = np.bincount(items, minlength=n_items)
    if least_misery:
        low = np.full(n_items, np.inf)
        np.minimum.at(low, items, values)
        return counts, low
    largest = float(np.abs(values).max(initial=0.0))
    if (
        largest * members.size > _EXACT_INTEGER_LIMIT
        or not bool((np.trunc(values) == values).all())
    ):
        return None
    return counts, np.bincount(items, weights=values, minlength=n_items)


def _score_members(members: np.ndarray, n_rows: int) -> np.ndarray:
    """``members`` as a non-empty ``int64`` array of row ids in ``[0, n_rows)``.

    Checked before any kernel reads a row: the compiled kernel has no
    bounds check.
    """
    members = np.asarray(members, dtype=np.int64).ravel()
    if members.size == 0:
        raise GroupFormationError("cannot score items for an empty group")
    if members.min() < 0 or members.max() >= n_rows:
        raise GroupFormationError(f"group member ids must lie in [0, {n_rows})")
    return members


def csr_item_scores(
    csr, members: np.ndarray, fill: float, semantics: Semantics
) -> np.ndarray | None:
    """Group score of every item for ``members``, reduced from CSR rows.

    Rows read densely with ``fill`` in every unstored cell: LM-min is the
    minimum of the stored values, folded with ``fill`` where some member
    lacks the item; AV-sum is the stored sum plus ``fill`` times the
    members lacking it.  The compiled kernel
    (:mod:`repro.core.kernels_cc`) reads the members' rows in place in one
    threaded pass; without a C compiler a numpy kernel gathers and reduces
    them.

    Exactness gate: the result must equal the dense reduction in any
    order, so it is only computed when the order cannot matter.  LM needs
    no ``-0.0`` among the stored values and the fill (signed zeros make
    ``min`` order-dependent).  AV additionally needs every value and the
    fill integer-valued with ``max|v| * len(members) <= 2**53``, where
    float64 sums are exact in any order.

    Parameters
    ----------
    csr:
        ``scipy.sparse`` CSR matrix with sorted, unique column indices per
        row (the :class:`~repro.recsys.store.SparseStore` invariant).
    members:
        Non-empty user (row) ids; duplicates count once per occurrence.
    fill:
        Rating of every unstored cell.
    semantics:
        :class:`~repro.core.semantics.Semantics` to reduce under.

    Returns
    -------
    numpy.ndarray or None
        ``(n_items,)`` float64 group scores, or ``None`` when the gate
        fails (the caller then runs the dense streaming reduction).

    Raises
    ------
    GroupFormationError
        When ``members`` is empty or holds an id outside ``[0, n_rows)``
        (checked before any kernel reads ``indptr``).
    """
    members = _score_members(members, csr.shape[0])
    least_misery = semantics is Semantics.LEAST_MISERY
    if _has_negative_zero(fill) or (
        not least_misery
        and (
            not float(fill).is_integer()
            or abs(fill) * members.size > _EXACT_INTEGER_LIMIT
        )
    ):
        return None
    with observed("kernel.score", H_KERNEL_SCORE):
        backend = _load_compiled()
        if backend is not None:
            reduced = backend.column_reduce(
                csr.data, csr.indices, csr.indptr, members, csr.shape[1],
                least_misery, get_kernel_threads(),
            )
        else:
            reduced = _csr_column_reduce_numpy(csr, members, least_misery)
        if reduced is None:
            return None
        counts, reduced = reduced
        if least_misery:
            lacking = counts < members.size
            reduced[lacking] = np.minimum(reduced[lacking], fill)
            return reduced
        return reduced + fill * (members.size - counts)


def dense_item_scores(
    values: np.ndarray, members: np.ndarray, semantics: Semantics
) -> np.ndarray | None:
    """Group score of every item for ``members``, reduced from dense rows.

    The column reduce of :func:`csr_item_scores` with a dense row source:
    the compiled kernel reads the members' rows of ``values`` in place (no
    row copy) and reduces them per item, behind the same exactness gate
    (no ``-0.0``; for AV integer values with ``max|v| * len(members) <=
    2**53``), so the result equals
    :meth:`~repro.core.semantics.Semantics.item_scores` bit for bit.

    Parameters
    ----------
    values:
        Complete ``(n_users, n_items)`` float64 rating array.
    members:
        Non-empty user (row) ids; duplicates count once per occurrence.
    semantics:
        :class:`~repro.core.semantics.Semantics` to reduce under.

    Returns
    -------
    numpy.ndarray or None
        ``(n_items,)`` float64 group scores, or ``None`` when the gate
        fails, no compiled kernel is available, or ``values`` is not a
        C-contiguous float64 array (the caller then runs the streaming
        reduction).

    Raises
    ------
    GroupFormationError
        When ``members`` is empty or holds an id outside ``[0, n_users)``.
    """
    members = _score_members(members, values.shape[0])
    backend = _load_compiled()
    if (
        backend is None
        or values.dtype != np.float64
        or not values.flags.c_contiguous
    ):
        return None
    least_misery = semantics is Semantics.LEAST_MISERY
    with observed("kernel.score", H_KERNEL_SCORE):
        reduced = backend.column_reduce(
            values, None, None, members, values.shape[1], least_misery,
            get_kernel_threads(),
        )
    return None if reduced is None else reduced[1]


def entry_levels(
    values: np.ndarray, lowest: float, n_levels: int
) -> np.ndarray | None:
    """The ``uint8`` code ``j`` of each of ``values`` on the levels ``lowest + j``.

    One pass in chunks of :data:`_LEVEL_CHUNK_ENTRIES` values, so the
    temporaries stay bounded however many values there are.  A value is
    on a level when it is an integer in ``[lowest, lowest + n_levels)``;
    ``lowest`` must be an integer with ``|lowest| + n_levels <= 2**53``
    and ``n_levels <= 256``, so every level is exact and ``value -
    lowest`` is its code.  The check also proves every value finite.

    Returns ``None`` when some value is not on a level (a fraction, out
    of range, non-finite) or is ``-0.0``, whose bits a code cannot carry.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    codes = np.empty(values.size, dtype=np.uint8)
    highest = lowest + (n_levels - 1)
    for start in range(0, values.size, _LEVEL_CHUNK_ENTRIES):
        chunk = values[start:start + _LEVEL_CHUNK_ENTRIES]
        on_levels = (chunk >= lowest) & (chunk <= highest) & (np.trunc(chunk) == chunk)
        if not on_levels.all() or _has_negative_zero(chunk):
            return None
        codes[start:start + chunk.size] = chunk - lowest
    return codes


def csr_level_counts(csr, codes: np.ndarray, n_levels: int) -> np.ndarray:
    """Stored entries of ``csr`` per item and level, counted from ``codes``.

    One ``bincount`` of ``indices * n_levels + codes`` per
    :data:`_LEVEL_CHUNK_ENTRIES` entries (or the table's size, if larger:
    each ``bincount`` returns a whole table), so the temporaries stay
    bounded however large the store.

    Parameters
    ----------
    csr:
        ``scipy.sparse`` CSR matrix.
    codes:
        ``uint8`` level code of every stored entry, aligned with
        ``csr.indices`` (:func:`entry_levels`).
    n_levels:
        Number of levels (every code is below it).

    Returns
    -------
    numpy.ndarray
        ``(n_items, n_levels)`` int64 counts.
    """
    nnz = int(csr.indptr[-1])
    counts = np.zeros(csr.shape[1] * n_levels, dtype=np.int64)
    step = max(_LEVEL_CHUNK_ENTRIES, counts.size)
    for start in range(0, nnz, step):
        stop = min(start + step, nnz)
        keys = csr.indices[start:stop] * np.int64(n_levels)
        keys += codes[start:stop]
        counts += np.bincount(keys, minlength=counts.size)
    return counts.reshape(csr.shape[1], n_levels)


def level_scores_exact(
    fill: float, lowest: float, n_levels: int, n_members: int, semantics: Semantics
) -> bool:
    """Whether :func:`level_item_scores` may score ``n_members`` rows.

    The exactness gate of :func:`csr_item_scores` under ``semantics``,
    applied to the ``n_levels`` levels from ``lowest`` up: no ``-0.0``
    fill (the level counts hold no ``-0.0``); for AV also an integer fill
    and ``max|v| * n_members <= 2**53`` over the fill and every level.
    Where it holds, the direct reduce's gate holds on every member set of
    that size too, so both paths give the same bits.
    """
    if _has_negative_zero(fill):
        return False
    if semantics is Semantics.LEAST_MISERY:
        return True
    largest = max(abs(fill), abs(lowest), abs(lowest + n_levels - 1))
    return float(fill).is_integer() and largest * n_members <= _EXACT_INTEGER_LIMIT


def level_item_scores(
    counts: np.ndarray,
    csr,
    codes: np.ndarray,
    complement: np.ndarray,
    n_members: int,
    fill: float,
    lowest: float,
    semantics: Semantics,
) -> np.ndarray:
    """Group score of every item for the rows *outside* ``complement``.

    The members' level counts are the whole matrix's ``counts`` minus the
    counts of the ``complement`` rows' stored entries, so the cost is the
    complement's entries plus one pass over the ``(n_items, n_levels)``
    table, however many members there are.  LM-min is the lowest level
    with a remaining count, folded with ``fill`` where some member lacks
    the item; AV-sum is the int64 sum of level x count plus ``fill`` times
    the members lacking the item.  Both equal :func:`csr_item_scores`
    bit for bit wherever :func:`level_scores_exact` holds (the caller
    checks it).

    Parameters
    ----------
    counts:
        ``(n_items, n_levels)`` int64 stored-entry counts of every row of
        ``csr`` (:func:`csr_level_counts`).
    csr:
        The counted ``scipy.sparse`` CSR matrix.
    codes:
        ``uint8`` level code of every stored entry of ``csr``.
    complement:
        ``int64`` ids of the rows that are not members, each once.
    n_members:
        Number of member rows (``n_rows - len(complement)``).
    fill:
        Rating of every unstored cell.
    lowest:
        The value of level 0 of ``counts``.
    semantics:
        :class:`~repro.core.semantics.Semantics` to reduce under.

    Returns
    -------
    numpy.ndarray
        ``(n_items,)`` float64 group scores.
    """
    with observed("kernel.score", H_KERNEL_SCORE):
        n_levels = counts.shape[1]
        _, positions = _csr_row_entries(csr.indptr, complement)
        keys = csr.indices[positions] * np.int64(n_levels)
        keys += codes[positions]
        remaining = counts - np.bincount(keys, minlength=counts.size).reshape(
            counts.shape
        )
        stored = remaining.sum(axis=1)
        if semantics is Semantics.LEAST_MISERY:
            low = lowest + (remaining > 0).argmax(axis=1).astype(np.float64)
            scores = np.where(stored > 0, low, np.inf)
            lacking = stored < n_members
            scores[lacking] = np.minimum(scores[lacking], fill)
            return scores
        level_values = np.arange(n_levels, dtype=np.int64) + int(lowest)
        sums = (remaining @ level_values).astype(np.float64)
        return sums + fill * (n_members - stored)


def segment_scores(
    cells: np.ndarray, offsets: np.ndarray, semantics: Semantics
) -> np.ndarray:
    """Per-group, per-column LM minimum / AV sum of stacked member cells.

    Group ``g``'s members are the rows ``cells[offsets[g]:offsets[g + 1]]``
    and each column is one item of the group's list.  Every group is
    reduced by one ``np.minimum.reduceat`` / ``np.add.reduceat`` over
    ``offsets``, behind the exactness gate of :func:`csr_item_scores`
    (checked per group, on the cells): LM needs no ``-0.0`` among them, AV
    integer-valued cells with ``max|v| * size <= 2**53``.  A group that
    fails the gate has each column reduced on its own, in member order —
    the reduction :func:`repro.core.grouping.build_group` runs — so every
    group's scores are bit-identical to that path.

    Parameters
    ----------
    cells:
        ``(n_members, k)`` float64 ratings, group segments stacked.
    offsets:
        ``(n_groups + 1,)`` segment boundaries; every segment non-empty.
    semantics:
        :class:`~repro.core.semantics.Semantics` to reduce under.

    Returns
    -------
    numpy.ndarray
        ``(n_groups, k)`` float64 group scores.
    """
    starts = offsets[:-1]
    if starts.size == 0:
        return np.empty((0, cells.shape[1]))
    signed_zero = (cells.view(np.uint64) == _NEGATIVE_ZERO_BITS).any(axis=1)
    if semantics is Semantics.LEAST_MISERY:
        scores = np.minimum.reduceat(cells, starts, axis=0)
        inexact = np.logical_or.reduceat(signed_zero, starts)
    else:
        scores = np.add.reduceat(cells, starts, axis=0)
        fractional = (np.trunc(cells) != cells).any(axis=1)
        largest = np.maximum.reduceat(np.abs(cells).max(axis=1), starts)
        inexact = np.logical_or.reduceat(signed_zero | fractional, starts) | (
            largest * np.diff(offsets) > _EXACT_INTEGER_LIMIT
        )
    for group in np.flatnonzero(inexact):
        columns = np.ascontiguousarray(cells[offsets[group]:offsets[group + 1]].T)
        scores[group] = (
            columns.min(axis=1)
            if semantics is Semantics.LEAST_MISERY
            else columns.sum(axis=1)
        )
    return scores


# --------------------------------------------------------------------------- #
# Bucketing kernels
# --------------------------------------------------------------------------- #


def pack_key_rows(
    items_table: np.ndarray, scores_table: np.ndarray, key_scores: str
) -> np.ndarray:
    """Pack each user's bucket key into one row of ``uint64`` words.

    Item indices are stored as their integer values; the score columns a
    variant keys on (``key_scores`` of ``"none"`` / ``"first"`` / ``"last"``
    / ``"all"``) are stored as their :func:`float_to_ordinal` ordinals, so
    two packed rows are equal exactly when the reference backend's
    concatenated byte keys are equal *and* unsigned comparison of the packed
    words preserves the score ordering.

    Parameters
    ----------
    items_table, scores_table:
        The ``(n_users, k)`` ranked top-k tables.
    key_scores:
        Which score columns join the key (see
        :class:`~repro.core.greedy_framework.GreedyVariant`).
    """
    n_users, k = items_table.shape
    if key_scores == "none":
        score_part = None
    elif key_scores == "first":
        score_part = scores_table[:, :1]
    elif key_scores == "last":
        score_part = scores_table[:, -1:]
    else:
        score_part = scores_table
    n_score_cols = 0 if score_part is None else score_part.shape[1]
    packed = np.empty((n_users, k + n_score_cols), dtype=np.uint64)
    packed[:, :k] = items_table.astype(np.uint64, copy=False)
    if score_part is not None:
        packed[:, k:] = float_to_ordinal(score_part)
    return packed


def fingerprint_rows(packed: np.ndarray) -> np.ndarray:
    """Hash each packed key row to one ``uint64`` polynomial fingerprint.

    The fingerprint of row ``r`` is ``sum_j packed[r, j] * R**(j+1)`` in
    wrapping 64-bit arithmetic with ``R`` an odd multiplier, so equal rows
    always share a fingerprint and unequal rows collide with probability
    ``~2^-64`` per pair.  Collisions are *detected* (and survived) by
    :func:`group_key_rows`, never assumed absent.

    Parameters
    ----------
    packed:
        ``(n_rows, width)`` ``uint64`` key matrix from :func:`pack_key_rows`.
    """
    return (packed * _fingerprint_weights(packed.shape[1])).sum(axis=1, dtype=np.uint64)


def _fingerprint_weights(width: int) -> np.ndarray:
    """``w[j] = R^(j+1)`` in wrapping uint64 arithmetic, ``R`` the multiplier."""
    weights = np.empty(width, dtype=np.uint64)
    acc = 1
    for j in range(width):
        acc = (acc * _FINGERPRINT_MULTIPLIER) & 0xFFFFFFFFFFFFFFFF
        weights[j] = acc
    return weights


def _key_score_columns(k: int, key_scores: str) -> tuple[int, ...]:
    """Which ``scores_table`` columns join the bucket key for ``key_scores``."""
    if key_scores == "none":
        return ()
    if key_scores == "first":
        return (0,)
    if key_scores == "last":
        return (k - 1,)
    return tuple(range(k))


def fused_fingerprint_rows(
    items_table: np.ndarray, scores_table: np.ndarray, key_scores: str
) -> np.ndarray:
    """Bucket-key fingerprints in one fused pass over the top-k tables.

    Word-for-word identical to
    ``fingerprint_rows(pack_key_rows(items_table, scores_table,
    key_scores))`` — same weights, same wrapping arithmetic — but the
    packed key matrix is never materialised: column products accumulate
    over reusable scratch, so the packing, ordinal-transform and product
    temporaries never exist.

    Parameters
    ----------
    items_table, scores_table:
        The ``(n_users, k)`` ranked top-k tables.
    key_scores:
        Which score columns join the key (``"none"`` / ``"first"`` /
        ``"last"`` / ``"all"``).
    """
    n_users, k = items_table.shape
    cols = _key_score_columns(k, key_scores)
    weights = _fingerprint_weights(k + len(cols))
    out = np.zeros(n_users, dtype=np.uint64)
    tmp = _scratch_array("fp_tmp", (n_users,), np.uint64)
    items_bits = np.ascontiguousarray(items_table, dtype=np.int64).view(np.uint64)
    for j in range(k):
        np.multiply(items_bits[:, j], weights[j], out=tmp)
        out += tmp
    if cols:
        score_bits = np.ascontiguousarray(scores_table, dtype=np.float64).view(np.uint64)
        ordinal = _scratch_array("fp_ordinal", (n_users,), np.uint64)
        sign = np.uint64(1) << np.uint64(63)
        for t, j in enumerate(cols):
            bits = score_bits[:, j]
            # In-place float_to_ordinal: xor with the all-ones mask for
            # negative bit patterns (arithmetic shift of the sign bit) or
            # with just the sign bit for non-negative ones.
            np.right_shift(bits.view(np.int64), np.int64(63), out=ordinal.view(np.int64))
            np.right_shift(ordinal, np.uint64(1), out=ordinal)
            np.bitwise_or(ordinal, sign, out=ordinal)
            np.bitwise_xor(ordinal, bits, out=ordinal)
            np.multiply(ordinal, weights[k + t], out=tmp)
            out += tmp
    return out


def _group_rows_lexsort(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact grouping: stable lexsort over every packed key column."""
    n_rows = packed.shape[0]
    order = np.lexsort(packed.T[::-1])
    srt = packed[order]
    new_segment = np.empty(n_rows, dtype=bool)
    new_segment[0] = True
    np.any(srt[1:] != srt[:-1], axis=1, out=new_segment[1:])
    return order, new_segment


def _group_by_fingerprint(
    fingerprints: np.ndarray,
    packed: Callable[[], np.ndarray],
    rows_differ: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by fingerprint, verify exactly, lexsort on a collision.

    Parameters
    ----------
    fingerprints:
        ``(n_rows,)`` ``uint64`` key fingerprints.
    packed:
        Returns the ``(n_rows, width)`` packed key matrix; only called when
        verification goes dense or a collision forces the exact lexsort.
    rows_differ:
        ``rows_differ(a, b)[i]`` says whether rows ``a[i]`` and ``b[i]``
        have unequal keys (the sparse verification path).
    """
    n_rows = fingerprints.shape[0]
    order = np.argsort(fingerprints)
    sorted_fp = fingerprints[order]
    same_fp = sorted_fp[1:] == sorted_fp[:-1]
    new_segment = np.empty(n_rows, dtype=bool)
    new_segment[0] = True
    np.logical_not(same_fp, out=new_segment[1:])
    if not new_segment.all():
        # The unstable argsort may scramble rows within a fingerprint run.
        # One sort of ``run * n_rows + row`` puts each run's rows back in
        # ascending order (runs keep their positions), so each bucket's
        # first member is its representative, exactly as in the lexsort
        # grouping.
        run_base = np.cumsum(new_segment, dtype=np.int64)
        run_base -= 1
        run_base *= n_rows
        order += run_base
        order.sort()
        order -= run_base
    # Verify every adjacent same-fingerprint pair against the exact keys:
    # a genuine bucket is a run of identical rows, so any difference inside
    # a same-fingerprint run proves a collision.  (An interleaved run like
    # A,B,A always has an adjacent differing pair, so this scan cannot miss.)
    suspects = np.flatnonzero(same_fp) + 1
    if suspects.size:
        if suspects.size * 4 >= n_rows:
            # Dense buckets: one contiguous gather + adjacent compare is
            # cheaper than two fancy-indexed subset gathers.
            srt = packed()[order]
            collision = np.any(srt[1:] != srt[:-1], axis=1)[suspects - 1]
        else:
            collision = rows_differ(order[suspects], order[suspects - 1])
        if collision.any():
            return _group_rows_lexsort(packed())
    return order, new_segment


def _table_rows_differ(
    items_table: np.ndarray,
    scores_table: np.ndarray,
    cols: tuple[int, ...],
    rows_a: np.ndarray,
    rows_b: np.ndarray,
) -> np.ndarray:
    """Whether each ``(rows_a[i], rows_b[i])`` pair has unequal bucket keys.

    The exact-key comparison of the fused bucketing path: item columns
    compare as integers, score columns compare as IEEE-754 **bit
    patterns** (the same equality the ordinal transform implements), so
    this is precisely packed-key inequality without building packed keys.

    Parameters
    ----------
    items_table, scores_table:
        The ``(n_users, k)`` ranked top-k tables.
    cols:
        Score columns participating in the key.
    rows_a, rows_b:
        Equal-length arrays of row indices to compare pairwise.
    """
    differ = np.any(items_table[rows_a] != items_table[rows_b], axis=1)
    if cols:
        cols_list = list(cols)
        bits_a = np.ascontiguousarray(
            scores_table[rows_a][:, cols_list], dtype=np.float64
        ).view(np.uint64)
        bits_b = np.ascontiguousarray(
            scores_table[rows_b][:, cols_list], dtype=np.float64
        ).view(np.uint64)
        differ |= np.any(bits_a != bits_b, axis=1)
    return differ


def group_key_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a packed key matrix.

    Only :func:`repro.core.sharded.merge_summaries` calls it, so no
    production path does.

    Returns
    -------
    (order, new_segment):
        ``order`` lists all row indices with equal rows contiguous and each
        group's rows in ascending index order; ``new_segment[i]`` marks
        positions in ``order`` where a new group starts.  Groups are
        enumerated by first row, as :func:`bucketize` numbers buckets.

    Parameters
    ----------
    packed:
        ``(n_rows, width)`` ``uint64`` key matrix from :func:`pack_key_rows`.
    """
    if packed.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool)
    return _by_first_row(*_group_by_fingerprint(
        fingerprint_rows(packed),
        lambda: packed,
        lambda a, b: np.any(packed[a] != packed[b], axis=1),
    ))


def _by_first_row(
    order: np.ndarray, new_segment: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re-enumerate a grouping's groups in ascending order of first row.

    Parameters
    ----------
    order, new_segment:
        A grouping as :func:`_group_by_fingerprint` returns it: each
        group's rows contiguous and ascending, groups in any order.
    """
    starts = np.flatnonzero(new_segment)
    sizes = np.diff(starts, append=order.size)
    by_first = np.argsort(order[starts])
    sizes = sizes[by_first]
    order = order[segment_positions(starts[by_first], sizes)]
    new_segment = np.zeros(order.size, dtype=bool)
    new_segment[np.cumsum(sizes) - sizes] = True
    return order, new_segment


def bucketize(
    items_table: np.ndarray, scores_table: np.ndarray, key_scores: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group users with equal bucket keys (step 1 of the greedy skeleton).

    Runs the compiled hash grouping
    (:meth:`~repro.core.kernels_cc.CompiledKernels.bucket_rows`) when the
    compiled library loads, the numpy fingerprint grouping otherwise: fingerprints come straight off the top-k tables
    (:func:`fused_fingerprint_rows`), and the packed key matrix is only
    built when verification goes dense or a collision forces the exact
    lexsort.  Both return the same bytes.

    Parameters
    ----------
    items_table, scores_table:
        The ``(n_users, k)`` ranked top-k tables.
    key_scores:
        Which score columns join the key (see
        :class:`~repro.core.greedy_framework.GreedyVariant`).

    Returns
    -------
    (inverse, sorted_users, starts):
        ``inverse[u]`` is the bucket id of user ``u``; ``sorted_users``
        lists all users with buckets contiguous and members ascending;
        ``starts`` holds each bucket's first position in ``sorted_users``.
        Buckets are numbered by first occurrence, i.e. in ascending
        representative (smallest member) order, the reference backend's
        dict order.
    """
    n_users, k = items_table.shape
    if n_users == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    with observed(
        "kernel.bucketize", H_KERNEL_BUCKETIZE, counter=K_KERNEL_BUCKETIZE_CALLS
    ):
        cols = _key_score_columns(k, key_scores)
        compiled = _load_compiled() if n_users < 2**31 else None
        if compiled is not None:
            return compiled.bucket_rows(
                items_table, scores_table, cols[0] if cols else 0, len(cols)
            )
        order, new_segment = _by_first_row(*_group_by_fingerprint(
            fused_fingerprint_rows(items_table, scores_table, key_scores),
            lambda: pack_key_rows(items_table, scores_table, key_scores),
            lambda a, b: _table_rows_differ(items_table, scores_table, cols, a, b),
        ))
        starts = np.flatnonzero(new_segment)
        inverse = np.empty(n_users, dtype=np.int64)
        inverse[order] = np.cumsum(new_segment) - 1
        return inverse, order, starts


def bucket_reduce(
    inverse: np.ndarray,
    contributions: np.ndarray,
    n_buckets: int,
    combine: str,
    representatives: np.ndarray,
) -> np.ndarray:
    """Reduce per-user contributions to one heap score per bucket.

    The ``"sum"`` rule is a single fused ``np.bincount`` accumulation —
    members are added in ascending user order, the same sequential order
    (and therefore the same floating-point rounding) as the reference
    backend's dict loop, with no intermediate per-bucket arrays or copies.
    The ``"first"`` rule gathers each representative's contribution.

    Parameters
    ----------
    inverse:
        ``(n_users,)`` bucket id per user.
    contributions:
        ``(n_users,)`` per-user personal aggregated top-k values.
    n_buckets:
        Number of buckets.
    combine:
        ``"sum"`` or ``"first"`` (see
        :class:`~repro.core.greedy_framework.GreedyVariant`).
    representatives:
        ``(n_buckets,)`` first (smallest-index) member per bucket.
    """
    if combine == "sum":
        return np.bincount(inverse, weights=contributions, minlength=n_buckets)
    return contributions[representatives]


def select_best_buckets(
    scores: np.ndarray, reps: np.ndarray, count: int
) -> np.ndarray:
    """Indices of the ``count`` best buckets, best first (step 2 of GRD).

    Equal to ``np.lexsort((reps, -scores))[:count]`` — score descending,
    ties by ascending representative, then by index — in ``O(n)`` for
    ``count < n``: a partition finds the ``count``-th best score, every
    bucket strictly above it is taken, the tied buckets with the smallest
    representatives fill the rest, and only that candidate set is sorted.

    Parameters
    ----------
    scores:
        ``(n_buckets,)`` heap score of each bucket.
    reps:
        ``(n_buckets,)`` representative (smallest member) of each bucket.
    count:
        How many buckets to select; clamped to ``[0, n_buckets]``.
    """
    n_buckets = scores.size
    count = max(0, min(count, n_buckets))
    negated = -scores
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count < n_buckets:
        # Tie-heavy scores (few rating levels) often tie ``count`` buckets
        # at the best score, and the partition is slowest on ties.
        threshold = negated.min()
        if np.count_nonzero(negated == threshold) < count:
            threshold = np.partition(negated, count - 1)[count - 1]
        # NaN sorts last in both the partition and lexsort, so a NaN
        # threshold leaves no strict order to select on: sort everything.
        if not np.isnan(threshold):
            above = np.flatnonzero(negated < threshold)
            tied = np.flatnonzero(negated == threshold)
            need = count - above.size
            if need < tied.size:
                tied_reps = reps[tied]
                cut = np.partition(tied_reps, need - 1)[need - 1]
                below_cut = tied[tied_reps < cut]
                at_cut = tied[tied_reps == cut][: need - below_cut.size]
                tied = np.concatenate((below_cut, at_cut))
            candidates = np.sort(np.concatenate((above, tied)))
            return candidates[np.lexsort((reps[candidates], negated[candidates]))]
    return np.lexsort((reps, negated))[:count]
