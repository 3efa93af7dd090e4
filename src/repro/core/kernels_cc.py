"""Build and load the compiled kernel library.

:func:`repro.core.kernels.top_k_table` runs its per-row top-k selection
in a small C library compiled **on first use** with the system C compiler
and loaded through :mod:`ctypes`.  A compiled extension was chosen over
numba because it adds **zero** Python dependencies: any box with ``cc``
(every CI runner, most dev machines) gets threaded compiled top-k, and a
box without one runs the numpy kernel instead.

Design constraints the C source honours:

* **Bit-identical results.**  The kernels perform no floating-point
  arithmetic — only IEEE-754 comparisons plus exact ``int64`` sums behind
  an exactness gate — so no compiler flag, FMA contraction or
  vectorisation choice can change a result.  The top-k selection
  reproduces the library tie-break (rating descending, item index
  ascending; ``-0.0 == +0.0`` under comparison, resolved by index).  The
  column reduce (group scoring) takes minima by comparison and sums
  only where its gate holds (no ``-0.0``; for sums, integer-valued values
  with ``max|v| * n_members <= 2**53``), where every ``float64`` partial
  sum is an exact integer, so summation order cannot change a bit.
* **Thread-count independence.**  Rows are independent and the driver
  only partitions the row loop into contiguous chunks (a deterministic
  function of ``(n_rows, n_threads)``), so any thread count produces the
  same bytes.  The column reduce gives each chunk its own partial arrays
  and merges them after the join; counts, exact sums and minima are
  order-independent.
* **Fork safety.**  Threads are plain POSIX threads created per call and
  joined before the call returns — no persistent pool and no runtime
  state that survives a ``fork()``.  OpenMP was deliberately avoided:
  libgomp deadlocks in a worker forked after the parent ran a parallel
  region, and the replica pool forks its workers from a live host.
* **Graceful degradation.**  If ``cc -pthread`` fails the build retries
  without the flag; if no compiler works, :func:`load_compiled` reports
  the reason and the caller runs the numpy kernel.

One library is built from one source (``_SOURCE``), behind one facade
(:class:`CompiledKernels`):

* the per-row top-k of :func:`repro.core.kernels.top_k_table` on a dense
  array;
* the CSR top-k of :func:`repro.core.kernels.csr_top_k_table` on float64
  values or ``uint8`` level codes, row-parallel on the same thread loop;
* the column reduce, reading its rows from CSR arrays
  (:func:`repro.core.kernels.csr_item_scores`) or from a dense array
  (:func:`repro.core.kernels.dense_item_scores`);
* the single-threaded step-1 hash grouping
  (:meth:`CompiledKernels.bucket_rows`, behind
  :func:`repro.core.kernels.bucketize`).

The compiled library is cached by source hash under
``$REPRO_KERNEL_CACHE`` (default: ``~/.cache/repro-kernels``), so a
process pays the ~1 s compile at most once per source revision per
machine.  Set ``REPRO_KERNEL_CC`` to a compiler executable to override
discovery (an empty value discovers it too), or to ``none``/``off``/``0``
to disable the compiled backend entirely (CI uses this to exercise the
numpy leg).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "CompiledKernels",
    "load_compiled",
    "unavailable_reason",
]

#: Environment variable naming the C compiler (or disabling the backend).
CC_ENV = "REPRO_KERNEL_CC"

#: Environment variable overriding the compiled-library cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"

_DISABLE_VALUES = {"none", "off", "0", "disabled"}

#: The C driver's thread cap (``MAX_THREADS`` in the source).
_MAX_THREADS = 128

#: Cap on the column reduce's per-chunk partial cells (chunks x items), so
#: a wide catalogue runs on fewer threads instead of large partials.
_SCORE_PARTIAL_ELEMENTS = 1 << 24

#: Fewest dense cells per column-reduce chunk: starting a thread costs
#: more than reducing a smaller chunk inline.
_SCORE_MIN_CHUNK_CELLS = 1 << 17

_THREADS_SOURCE = r"""
#include <pthread.h>
#include <stdint.h>
#include <string.h>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

/* ------------------------------------------------------------------ */
/* Row-parallel driver: contiguous chunks over per-call POSIX threads.
 *
 * Threads are created per call and joined before returning — no
 * persistent pool and no runtime state that survives the call.  This is
 * deliberate: the execution plane forks worker processes, and OpenMP
 * runtimes (libgomp) deadlock in children forked after the parent ran a
 * parallel region.  Fresh pthreads per call are fork-safe, and the
 * per-call cost (tens of microseconds) is noise against the
 * multi-millisecond row loops this library exists for.
 *
 * Rows are independent and chunks are a deterministic function of
 * (n_rows, n_threads) only, so every thread count produces identical
 * bytes.  If pthread_create fails the chunk runs inline instead.      */

typedef void (*row_range_fn)(void *ctx, int64_t start, int64_t stop);

typedef struct {
    row_range_fn fn;
    void *ctx;
    int64_t start, stop;
} chunk_task;

static void *chunk_thread(void *arg)
{
    chunk_task *task = (chunk_task *)arg;
    task->fn(task->ctx, task->start, task->stop);
    return NULL;
}

#define MAX_THREADS 128

static void run_rows(row_range_fn fn, void *ctx, int64_t n_rows,
                     int32_t n_threads)
{
    if (n_threads > MAX_THREADS)
        n_threads = MAX_THREADS;
    if ((int64_t)n_threads > n_rows)
        n_threads = (int32_t)n_rows;
    if (n_threads < 2) {
        fn(ctx, 0, n_rows);
        return;
    }
    pthread_t tids[MAX_THREADS];
    chunk_task tasks[MAX_THREADS];
    int started[MAX_THREADS];
    for (int32_t i = 0; i < n_threads; ++i) {
        tasks[i].fn = fn;
        tasks[i].ctx = ctx;
        tasks[i].start = n_rows * i / n_threads;
        tasks[i].stop = n_rows * (i + 1) / n_threads;
    }
    for (int32_t i = 1; i < n_threads; ++i)
        started[i] = pthread_create(&tids[i], NULL, chunk_thread, &tasks[i]) == 0;
    for (int32_t i = 1; i < n_threads; ++i)
        if (!started[i])
            chunk_thread(&tasks[i]);
    chunk_thread(&tasks[0]);
    for (int32_t i = 1; i < n_threads; ++i)
        if (started[i])
            pthread_join(tids[i], NULL);
}
"""

#: The column reduce (group scoring) of dense and CSR rows.
_REDUCE_SOURCE = r"""
/* CSR index arrays are int32 or int64 (scipy picks per matrix); `wide`
 * selects the width, so neither array is ever copied or converted. */
static inline int64_t csr_index(const void *array, int32_t wide, int64_t i)
{
    return wide ? ((const int64_t *)array)[i] : (int64_t)((const int32_t *)array)[i];
}

/* Per-item column reduction of the member rows, read in place: LM minima
 * (comparisons only) or AV sums, plus, for CSR rows, the stored-entry
 * count per item.  Rows come from one of two sources: CSR arrays
 * (`indptr` set; unstored cells are the caller's fill) or a dense
 * row-major array of `n_items` cells per row (`indptr` NULL; every cell
 * is stored, so no counts are kept).
 *
 * The exactness gate is checked in the same pass: no -0.0, and for AV
 * every value integer-valued with |v| * n_members <= 2**53 (the caller
 * checks the fill).  Under the gate every partial sum is an integer of
 * magnitude <= 2**53, so each float64 addition is exact and the sums
 * equal the float64 sum of any summation order.  Each chunk of the row
 * loop owns one partial slice; exact sums, counts and minima are
 * order-independent, so the merge after the join gives the same bytes
 * for every thread count. */
#define NEGATIVE_ZERO_BITS 0x8000000000000000ULL
#define EXACT_INTEGER_LIMIT 9007199254740992.0 /* 2**53 */

typedef struct {
    const double *data;
    const void *indices, *indptr;   /* indptr NULL: dense rows */
    int32_t wide, lm;
    const int64_t *rows;
    int64_t n_rows, n_items, n_chunks;
    double n_members;
    int64_t *counts;   /* n_chunks x n_items, zero initialised (CSR only) */
    double *acc;       /* n_chunks x n_items: +inf (LM) or zero (AV) */
    int32_t *failed;   /* n_chunks */
} score_ctx;

static inline int is_negative_zero(double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    return bits == NEGATIVE_ZERO_BITS;
}

/* The gate on one cell, checked exactly. */
static inline int cell_is_exact(double v, int32_t lm, double n_members)
{
    if (is_negative_zero(v))
        return 0;
    if (lm)
        return 1;
    double magnitude = v < 0 ? -v : v;
    return magnitude * n_members <= EXACT_INTEGER_LIMIT
           && (double)(int64_t)v == v;
}

/* Fold one cell into its minimum (LM) or sum (AV). */
static inline void fold_cell(double v, int32_t lm, double *acc)
{
    if (!lm)
        *acc += v;
    else if (v < *acc)
        *acc = v;
}

/* Columns [from, n_items) of `m` dense rows, gate checked cell by cell;
 * 0 when a cell fails it. */
static int score_dense_cells(const score_ctx *c, const double *const *cells,
                             int m, int64_t from, double *acc)
{
    for (int64_t j = from; j < c->n_items; ++j)
        for (int r = 0; r < m; ++r) {
            if (!cell_is_exact(cells[r][j], c->lm, c->n_members))
                return 0;
            fold_cell(cells[r][j], c->lm, acc + j);
        }
    return 1;
}

/* Four dense rows at once; 0 when a cell fails the gate.  With SSE2 the
 * rows are folded two columns at a time (MINPD is the `v < low ? v : low`
 * select; under the gate every sum is exact, so adding the four rows
 * before the accumulator cannot change a bit) while a screen flags any
 * cell that might fail the gate: a zero (it may be -0.0) and, for AV, a
 * value that does not survive the int32 round trip (a fraction, or
 * |v| >= 2**31, which the gate admits only below 2**53 / n_members).
 * Only a block with a flagged cell is re-checked cell by cell.  Rows are
 * read from DRAM at random, so each cache line of the next block's rows
 * is prefetched while the same columns of this block are folded. */
static int score_dense_block(const score_ctx *c, const int64_t *rows,
                             int has_next, double *acc)
{
    const double *cells[4];
    for (int r = 0; r < 4; ++r)
        cells[r] = c->data + rows[r] * c->n_items;
    int64_t j = 0;
#if defined(__SSE2__)
    const double *next[4];
    for (int r = 0; r < 4; ++r)
        next[r] = has_next ? c->data + rows[4 + r] * c->n_items : cells[r];
    const double *a = cells[0], *b = cells[1], *d = cells[2], *e = cells[3];
    __m128d zero = _mm_setzero_pd();
    /* Integers below 2**31 pass |v| * n <= 2**53 for n <= 2**22; a
     * larger AV group is always checked cell by cell. */
    __m128d flagged = c->lm || c->n_members <= 4194304.0
        ? zero : _mm_cmpeq_pd(zero, zero);
    for (; j + 2 <= c->n_items; j += 2) {
        if (!(j & 7))
            for (int r = 0; r < 4; ++r)
                _mm_prefetch((const char *)(next[r] + j), _MM_HINT_T0);
        __m128d va = _mm_loadu_pd(a + j), vb = _mm_loadu_pd(b + j);
        __m128d vd = _mm_loadu_pd(d + j), ve = _mm_loadu_pd(e + j);
        flagged = _mm_or_pd(flagged, _mm_or_pd(
            _mm_or_pd(_mm_cmpeq_pd(va, zero), _mm_cmpeq_pd(vb, zero)),
            _mm_or_pd(_mm_cmpeq_pd(vd, zero), _mm_cmpeq_pd(ve, zero))));
        __m128d folded = _mm_loadu_pd(acc + j);
        if (c->lm) {
            folded = _mm_min_pd(
                _mm_min_pd(_mm_min_pd(va, vb), _mm_min_pd(vd, ve)), folded);
        } else {
#define ROUND_TRIP(v) _mm_cmpneq_pd(_mm_cvtepi32_pd(_mm_cvttpd_epi32(v)), (v))
            flagged = _mm_or_pd(flagged, _mm_or_pd(
                _mm_or_pd(ROUND_TRIP(va), ROUND_TRIP(vb)),
                _mm_or_pd(ROUND_TRIP(vd), ROUND_TRIP(ve))));
#undef ROUND_TRIP
            folded = _mm_add_pd(
                _mm_add_pd(_mm_add_pd(va, vb), _mm_add_pd(vd, ve)), folded);
        }
        _mm_storeu_pd(acc + j, folded);
    }
    if (_mm_movemask_pd(flagged))
        for (int r = 0; r < 4; ++r)
            for (int64_t i = 0; i < j; ++i)
                if (!cell_is_exact(cells[r][i], c->lm, c->n_members))
                    return 0;
#else
    (void)has_next;
#endif
    return score_dense_cells(c, cells, 4, j, acc);
}

/* One CSR row's stored entries; 0 when an entry fails the gate. */
static int score_csr_row(const score_ctx *c, int64_t row, int64_t *count,
                         double *acc)
{
    int64_t hi = csr_index(c->indptr, c->wide, row + 1);
    for (int64_t p = csr_index(c->indptr, c->wide, row); p < hi; ++p) {
        double v = c->data[p];
        if (!cell_is_exact(v, c->lm, c->n_members))
            return 0;
        int64_t j = csr_index(c->indices, c->wide, p);
        ++count[j];
        fold_cell(v, c->lm, acc + j);
    }
    return 1;
}

static void score_range(void *vctx, int64_t start, int64_t stop)
{
    score_ctx *c = (score_ctx *)vctx;
    /* run_rows' chunk i starts at n_rows * i / n_chunks; chunks are
     * non-empty, so the start identifies the chunk. */
    int64_t chunk = 0;
    while (c->n_rows * chunk / c->n_chunks != start)
        ++chunk;
    int64_t offset = chunk * c->n_items;
    double *acc = c->acc + offset;
    int64_t r = start;
    if (!c->indptr)
        for (; r + 4 <= stop; r += 4)
            if (!score_dense_block(c, c->rows + r, r + 8 <= stop, acc)) {
                c->failed[chunk] = 1;
                return;
            }
    for (; r < stop; ++r) {
        const double *cells = c->data + c->rows[r] * c->n_items;
        int ok = c->indptr
            ? score_csr_row(c, c->rows[r], c->counts + offset, acc)
            : score_dense_cells(c, &cells, 1, 0, acc);
        if (!ok) {
            c->failed[chunk] = 1;
            return;
        }
    }
}

/* Returns 1 when the gate failed (outputs then undefined), else 0 with
 * the merged counts and minima/sums in the first partial slice.
 * `counts` is ignored (and may be NULL) for dense rows. */
int32_t repro_column_reduce(const double *data, const void *indices,
                            const void *indptr, int32_t wide,
                            const int64_t *rows, int64_t n_rows,
                            int64_t n_items, int32_t lm, int64_t *counts,
                            double *acc, int32_t *failed, int32_t n_chunks)
{
    score_ctx ctx = {data, indices, indptr, wide, lm, rows, n_rows, n_items,
                     n_chunks, (double)n_rows, counts, acc, failed};
    run_rows(score_range, &ctx, n_rows, n_chunks);
    for (int32_t t = 0; t < n_chunks; ++t)
        if (failed[t])
            return 1;
    for (int32_t t = 1; t < n_chunks; ++t) {
        const double *part = acc + (int64_t)t * n_items;
        if (indptr)
            for (int64_t j = 0; j < n_items; ++j)
                counts[j] += counts[(int64_t)t * n_items + j];
        for (int64_t j = 0; j < n_items; ++j)
            fold_cell(part[j], lm, acc + j);
    }
    return 0;
}
"""

#: Step-1 bucketing.
_BUCKET_SOURCE = r"""
/* Group rows with equal bucket keys, single threaded.  A key
 * is the row's k item ids plus its score columns [col, col + n_cols),
 * the scores compared as uint64 bit patterns (so -0.0 and +0.0, and NaN
 * payloads, stay distinct, as in byte keys).  Rows are walked in
 * ascending order; each key is hashed into an open-addressing table of
 * int32 bucket ids (`mask + 1` slots, a power of two >= 2 * n_rows, every
 * slot -1) and compared exactly against the first row of the bucket it
 * finds, so a hash collision only costs another probe.  A miss opens a
 * new bucket: buckets are numbered by first occurrence, which is
 * ascending representative order.  `sorted_users` holds each bucket's
 * first row until the counting pass lays the members out bucket by
 * bucket, ascending; `starts` holds the counts until then.  Returns the
 * number of buckets; n_rows must stay below 2**31. */
#define HASH_MULTIPLIER 0x9E3779B97F4A7C15ULL

static inline uint64_t hash_finish(uint64_t h)   /* MurmurHash3's fmix64 */
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 33);
}

int64_t repro_bucket_rows(const int64_t *items, const uint64_t *score_bits,
                          int64_t n_rows, int64_t k, int64_t col,
                          int64_t n_cols, int32_t *table, int64_t mask,
                          int64_t *inverse, int64_t *sorted_users,
                          int64_t *starts)
{
    /* Every hash first, into `inverse`: without the probe's branches in
     * the same loop, the multiplies of consecutive rows overlap. */
    uint64_t *hashes = (uint64_t *)inverse;
    for (int64_t r = 0; r < n_rows; ++r) {
        const int64_t *row_items = items + r * k;
        const uint64_t *row_bits = score_bits + r * k + col;
        uint64_t h = 0, weight = HASH_MULTIPLIER;
        for (int64_t j = 0; j < k; ++j, weight *= HASH_MULTIPLIER)
            h += (uint64_t)row_items[j] * weight;
        for (int64_t j = 0; j < n_cols; ++j, weight *= HASH_MULTIPLIER)
            h += row_bits[j] * weight;
        hashes[r] = hash_finish(h);
    }
    int64_t n_buckets = 0;
    for (int64_t r = 0; r < n_rows; ++r) {
        const int64_t *row_items = items + r * k;
        const uint64_t *row_bits = score_bits + r * k + col;
        int64_t slot = (int64_t)(hashes[r] & (uint64_t)mask), bucket;
        for (;; slot = (slot + 1) & mask) {
            int32_t id = table[slot];
            if (id < 0) {
                bucket = n_buckets++;
                table[slot] = (int32_t)bucket;
                sorted_users[bucket] = r;
                starts[bucket] = 0;
                break;
            }
            int64_t first = sorted_users[id];
            const int64_t *first_items = items + first * k;
            const uint64_t *first_bits = score_bits + first * k + col;
            int64_t j = 0;
            while (j < k && first_items[j] == row_items[j])
                ++j;
            if (j < k)
                continue;
            j = 0;
            while (j < n_cols && first_bits[j] == row_bits[j])
                ++j;
            if (j == n_cols) {
                bucket = id;
                break;
            }
        }
        inverse[r] = bucket;
        ++starts[bucket];
    }
    /* Counts to bucket ends, then members placed from the last row down,
     * which leaves each bucket's members ascending and `starts` at each
     * bucket's first position. */
    int64_t total = 0;
    for (int64_t b = 0; b < n_buckets; ++b) {
        total += starts[b];
        starts[b] = total;
    }
    for (int64_t r = n_rows - 1; r >= 0; --r)
        sorted_users[--starts[inverse[r]]] = r;
    return n_buckets;
}
"""

#: The library: the thread loop, column reduce, bucketing and dense top-k
#: first, in that order, then the CSR top-k kernels appended after them.
_SOURCE = _THREADS_SOURCE + _REDUCE_SOURCE + _BUCKET_SOURCE + r"""
/* Top-k of one row under the library tie-break: rating descending, item
 * index ascending.  The output buffer is kept sorted by (value desc,
 * index asc); a new item is inserted after every incumbent with an equal
 * or greater value, so equal values keep ascending index order and the
 * boundary tie resolves to the lowest indices.  Comparisons treat
 * -0.0 == +0.0 (resolved by index) and handle +-inf exactly, matching
 * the numpy kernels; NaN input is excluded by store validation.
 */
static void topk_insert(double v, int64_t idx, int64_t k,
                        int64_t *items_out, double *values_out)
{
    int64_t p = k - 1;
    while (p > 0 && values_out[p - 1] < v)
        --p;
    /* shift [p, k-2] one slot right, dropping the old last slot */
    if (k - 1 - p > 0) {
        memmove(&values_out[p + 1], &values_out[p],
                (size_t)(k - 1 - p) * sizeof(double));
        memmove(&items_out[p + 1], &items_out[p],
                (size_t)(k - 1 - p) * sizeof(int64_t));
    }
    values_out[p] = v;
    items_out[p] = idx;
}

static void topk_one_row(const double *row, int64_t n_items, int64_t k,
                         int64_t *items_out, double *values_out)
{
    /* Fill phase: the first min(k, n_items) items, kept sorted. */
    int64_t fill = k < n_items ? k : n_items;
    int64_t j = 0;
    for (; j < fill; ++j) {
        double v = row[j];
        int64_t p = j;
        while (p > 0 && values_out[p - 1] < v)
            --p;
        if (j - p > 0) {
            memmove(&values_out[p + 1], &values_out[p],
                    (size_t)(j - p) * sizeof(double));
            memmove(&items_out[p + 1], &items_out[p],
                    (size_t)(j - p) * sizeof(int64_t));
        }
        values_out[p] = v;
        items_out[p] = j;
    }
    if (j >= n_items)
        return;
    /* Scan phase.  `worst` mirrors values_out[k-1] in a register; an item
     * enters the buffer only when strictly greater (boundary ties keep the
     * incumbent lower indices).  Blocks where nothing beats `worst` are
     * skipped via a branchless compare-reduction the compiler can
     * vectorise; skipped elements are exactly the ones the element-wise
     * loop would reject, so blocking cannot change the result. */
    double worst = values_out[k - 1];
    enum { BLK = 32 };
#if defined(__SSE2__)
    /* CMPPD(GT) is the same IEEE-754 ordered comparison as the scalar
     * `>` (NaN compares false either way), so the vector screen rejects
     * exactly the elements the scalar loop would. */
    __m128d vworst = _mm_set1_pd(worst);
    for (; j + BLK <= n_items; j += BLK) {
        __m128d hits = _mm_setzero_pd();
        for (int b = 0; b < BLK; b += 2)
            hits = _mm_or_pd(
                hits, _mm_cmpgt_pd(_mm_loadu_pd(row + j + b), vworst));
        if (!_mm_movemask_pd(hits))
            continue;
        for (int b = 0; b < BLK; ++b) {
            double v = row[j + b];
            if (!(v > worst))
                continue;
            topk_insert(v, j + b, k, items_out, values_out);
            worst = values_out[k - 1];
        }
        vworst = _mm_set1_pd(worst);
    }
#else
    for (; j + BLK <= n_items; j += BLK) {
        int any = 0;
        for (int b = 0; b < BLK; ++b)
            any |= (row[j + b] > worst);
        if (!any)
            continue;
        for (int b = 0; b < BLK; ++b) {
            double v = row[j + b];
            if (!(v > worst))
                continue;
            topk_insert(v, j + b, k, items_out, values_out);
            worst = values_out[k - 1];
        }
    }
#endif
    for (; j < n_items; ++j) {
        double v = row[j];
        if (!(v > worst))
            continue;
        topk_insert(v, j, k, items_out, values_out);
        worst = values_out[k - 1];
    }
}

typedef struct {
    const double *values;
    int64_t n_items, k;
    int64_t *items_out;
    double *values_out;
} topk_ctx;

static void topk_range(void *vctx, int64_t start, int64_t stop)
{
    topk_ctx *c = (topk_ctx *)vctx;
    for (int64_t r = start; r < stop; ++r)
        topk_one_row(c->values + r * c->n_items, c->n_items, c->k,
                     c->items_out + r * c->k, c->values_out + r * c->k);
}

void repro_topk_rows(const double *values, int64_t n_users, int64_t n_items,
                     int64_t k, int64_t *items_out, double *values_out,
                     int32_t n_threads)
{
    topk_ctx ctx = {values, n_items, k, items_out, values_out};
    run_rows(topk_range, &ctx, n_users, n_threads);
}

/* Insert (v, idx) into a buffer of `n` entries (capacity `cap`) kept
 * sorted by (value desc, index asc).  Candidates arrive in ascending index
 * order, so an equal value goes after the incumbents and a full buffer
 * only admits a strictly greater value.  Returns the new entry count. */
static int64_t bounded_insert(double v, int64_t idx, int64_t n, int64_t cap,
                              int64_t *items, double *values)
{
    int64_t p;
    if (n == cap) {
        if (!(v > values[cap - 1]))
            return n;
        p = cap - 1;
    } else {
        p = n++;
    }
    while (p > 0 && values[p - 1] < v) {
        values[p] = values[p - 1];
        items[p] = items[p - 1];
        --p;
    }
    values[p] = v;
    items[p] = idx;
    return n;
}

/* Top-k of one CSR row read as a dense row whose unstored cells hold
 * `fill`, under the library tie-break (rating descending, item index
 * ascending; comparisons only, so -0.0 == +0.0 resolves by index exactly
 * as the dense kernels do).  The row's stored indices are sorted and
 * unique (SparseStore guarantees it).  Three bands, in rank order:
 *   1. stored entries above fill, selected by value;
 *   2. fill-valued items (unstored, or stored equal to fill, whose stored
 *      bits are kept) in ascending item order;
 *   3. stored entries below fill, selected by value.
 * Band 2 stops after k items, so a row costs O(nnz + k), not O(n_items).
 * `ceiling` bounds every stored value from above (a store's scale maximum,
 * or +inf when nothing is known).  Band 1 returns as soon as the buffer is
 * full and its worst entry has reached the ceiling: a full buffer admits
 * only values strictly greater than its worst, and no later entry can be,
 * so the entries it skips are exactly the ones the scan would reject. */
static void csr_topk_row(const double *data, const void *indices,
                         int32_t wide, int64_t lo, int64_t hi,
                         int64_t n_items, int64_t k, double fill,
                         double ceiling, int64_t *items_out,
                         double *values_out)
{
    int64_t n = 0;
    for (int64_t p = lo; p < hi; ++p)
        if (data[p] > fill) {
            n = bounded_insert(data[p], csr_index(indices, wide, p), n, k,
                               items_out, values_out);
            if (n == k && values_out[k - 1] >= ceiling)
                return;
        }
    int64_t p = lo;
    for (int64_t j = 0; n < k && j < n_items; ++j) {
        while (p < hi && csr_index(indices, wide, p) < j)
            ++p;
        if (p < hi && csr_index(indices, wide, p) == j) {
            if (data[p] == fill) {
                items_out[n] = j;
                values_out[n++] = data[p];
            }
        } else {
            items_out[n] = j;
            values_out[n++] = fill;
        }
    }
    if (n == k)
        return;
    int64_t m = 0;
    for (int64_t q = lo; q < hi; ++q)
        if (data[q] < fill)
            m = bounded_insert(data[q], csr_index(indices, wide, q), m, k - n,
                               items_out + n, values_out + n);
}

typedef struct {
    const double *data;
    const void *indices, *indptr;
    int32_t wide;
    const int64_t *rows;
    int64_t n_items, k;
    double fill, ceiling;
    int64_t *items_out;
    double *values_out;
} csr_ctx;

static void csr_range(void *vctx, int64_t start, int64_t stop)
{
    csr_ctx *c = (csr_ctx *)vctx;
    for (int64_t r = start; r < stop; ++r) {
        int64_t row = c->rows[r];
        csr_topk_row(c->data, c->indices, c->wide,
                     csr_index(c->indptr, c->wide, row),
                     csr_index(c->indptr, c->wide, row + 1),
                     c->n_items, c->k, c->fill, c->ceiling,
                     c->items_out + r * c->k, c->values_out + r * c->k);
    }
}

void repro_csr_topk_rows(const double *data, const void *indices,
                         const void *indptr, int32_t wide,
                         const int64_t *rows, int64_t n_rows,
                         int64_t n_items, int64_t k, double fill,
                         double ceiling, int64_t *items_out,
                         double *values_out, int32_t n_threads)
{
    csr_ctx ctx = {data, indices, indptr, wide, rows, n_items, k, fill,
                   ceiling, items_out, values_out};
    run_rows(csr_range, &ctx, n_rows, n_threads);
}

/* The chunk of run_rows whose rows start at `start`, as in score_range. */
static int64_t chunk_of(int64_t start, int64_t n_rows, int64_t n_chunks)
{
    int64_t chunk = 0;
    while (n_rows * chunk / n_chunks != start)
        ++chunk;
    return chunk;
}

/* Level-bucketed top-k of one CSR row from its entries' uint8 level codes
 * (level j is the value lowest + j; levels ascend with j).  Items arrive
 * in ascending index order, so the first k items of a level are its k
 * best under the tie-break, and a row needs only a count and the first k
 * items per level: no value is compared or moved.  The fill's own level
 * (`fill_code`, -1 when the fill is on none) starts full, so its entries
 * are dropped like those of any full level; they rank in the fill band.
 * The same three bands as csr_topk_row follow: levels above the fill
 * (`above` and up) in descending order, the fill band, then the levels
 * below the fill.  The scan stops once the top level, if it lies
 * above the fill, holds k entries: nothing later can rank above them.
 * Values are written as lowest + level, and the fill band as the fill:
 * the caller codes no -0.0 and ranks a -0.0 fill by value, so these are
 * the stored bits.  `count` and `first` are the chunk's scratch
 * (n_levels and n_levels x (k + 1) entries). */
typedef struct {
    const uint8_t *codes;
    const void *indices, *indptr;
    int32_t wide, fill_code;
    const int64_t *rows;
    int64_t n_rows, n_items, k, n_levels, above, n_chunks;
    double lowest, fill;
    int64_t *scratch;   /* n_chunks slices of `stride` >= n_levels x (k + 2) */
    int64_t stride;
    int64_t *items_out;
    double *values_out;
} level_ctx;

static int64_t emit_levels(const level_ctx *c, int64_t from, int64_t to,
                           const int64_t *count, const int64_t *first,
                           int64_t n, int64_t *items_out, double *values_out)
{
    for (int64_t level = from; level >= to && n < c->k; --level)
        for (int64_t i = 0; i < count[level] && n < c->k; ++i) {
            items_out[n] = first[level * (c->k + 1) + i];
            values_out[n++] = c->lowest + (double)level;
        }
    return n;
}

static void level_topk_row(const level_ctx *c, int64_t lo, int64_t hi,
                           int64_t *count, int64_t *first,
                           int64_t *items_out, double *values_out)
{
    const int64_t k = c->k, top = c->n_levels - 1;
    const int64_t stop_level = top >= c->above ? top : -1;
    memset(count, 0, (size_t)c->n_levels * sizeof *count);
    if (c->fill_code >= 0)
        count[c->fill_code] = k;
    /* Branch-free on the level: an entry of a full level lands in its
     * level's spare slot k and leaves the count at k. */
    for (int64_t p = lo; p < hi; ++p) {
        int64_t level = c->codes[p], n = count[level];
        first[level * (k + 1) + n] = csr_index(c->indices, c->wide, p);
        count[level] = n + (n < k);
        if (level == stop_level && n + 1 == k)
            break;
    }
    int64_t n = emit_levels(c, top, c->above, count, first, 0, items_out,
                            values_out);
    int64_t p = lo;
    for (int64_t j = 0; n < k && j < c->n_items; ++j) {
        while (p < hi && csr_index(c->indices, c->wide, p) < j)
            ++p;
        if (p < hi && csr_index(c->indices, c->wide, p) == j
            && c->codes[p] != c->fill_code)
            continue;
        items_out[n] = j;
        values_out[n++] = c->fill;
    }
    emit_levels(c, c->above - 1 - (c->fill_code >= 0), 0, count, first, n,
                items_out, values_out);
}

static void level_range(void *vctx, int64_t start, int64_t stop)
{
    level_ctx *c = (level_ctx *)vctx;
    int64_t *count = c->scratch
                     + chunk_of(start, c->n_rows, c->n_chunks) * c->stride;
    int64_t *first = count + c->n_levels;
    for (int64_t r = start; r < stop; ++r) {
        int64_t row = c->rows[r];
        level_topk_row(c, csr_index(c->indptr, c->wide, row),
                       csr_index(c->indptr, c->wide, row + 1), count, first,
                       c->items_out + r * c->k, c->values_out + r * c->k);
    }
}

void repro_csr_level_topk_rows(const uint8_t *codes, const void *indices,
                               const void *indptr, int32_t wide,
                               const int64_t *rows, int64_t n_rows,
                               int64_t n_items, int64_t k, double fill,
                               double lowest, int64_t n_levels,
                               int64_t *scratch, int64_t stride,
                               int64_t *items_out, double *values_out,
                               int32_t n_chunks)
{
    /* Place the fill among the levels by comparison. */
    int64_t above = 0;
    while (above < n_levels && lowest + (double)above <= fill)
        ++above;
    int32_t fill_code = above > 0 && lowest + (double)(above - 1) == fill
                        ? (int32_t)(above - 1) : -1;
    level_ctx ctx = {codes, indices, indptr, wide, fill_code, rows, n_rows,
                     n_items, k, n_levels, above, n_chunks, lowest, fill,
                     scratch, stride, items_out, values_out};
    run_rows(level_range, &ctx, n_rows, n_chunks);
}

"""

def _library_dir() -> Path:
    """The directory the compiled library is cached in (created on demand)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _find_compiler() -> str | None:
    """The C compiler ``REPRO_KERNEL_CC`` names, else the first one found.

    An unset, empty or blank ``REPRO_KERNEL_CC`` discovers ``cc``, ``gcc``
    or ``clang``; ``None`` when no compiler is found.
    """
    requested = os.environ.get(CC_ENV, "").strip()
    if requested:
        return shutil.which(requested)
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _compile(compiler: str, source: str, destination: Path) -> None:
    """Compile ``source`` to the shared library ``destination``.

    The build lands in a temporary file first and is moved into place
    atomically, so concurrent processes racing on a cold cache each see
    either nothing or a complete library.

    Parameters
    ----------
    compiler:
        Path to the C compiler executable.
    source:
        The C source text.
    destination:
        Final ``.so`` path inside the cache directory.

    Raises
    ------
    RuntimeError
        When both the ``-pthread`` and the flag-free builds fail.
    """
    destination.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=destination.parent) as workdir:
        source_path = Path(workdir) / "repro_kernels.c"
        source_path.write_text(source, encoding="utf-8")
        built = Path(workdir) / destination.name
        base_cmd = [compiler, "-O3", "-fPIC", "-shared",
                    str(source_path), "-o", str(built)]
        errors = []
        for extra in (["-pthread"], []):
            proc = subprocess.run(
                base_cmd[:1] + extra + base_cmd[1:],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode == 0:
                os.replace(built, destination)
                return
            errors.append(proc.stderr.strip().splitlines()[-1] if proc.stderr else
                          f"exit status {proc.returncode}")
        raise RuntimeError(f"compilation failed: {'; '.join(errors)}")


def _check_index_arrays(indices: np.ndarray, indptr: np.ndarray) -> None:
    if indices.dtype != indptr.dtype or indices.dtype not in (np.int32, np.int64):
        raise ValueError(
            f"CSR index arrays must share int32 or int64, got "
            f"{indices.dtype} and {indptr.dtype}"
        )


class CompiledKernels:
    """ctypes facade over the compiled kernel library.

    Wrapper methods validate/coerce array layouts once and hand raw
    pointers to C; the ctypes calls release the GIL, so the library's
    worker threads and any Python-side threads genuinely overlap.

    Parameters
    ----------
    library:
        The loaded :class:`ctypes.CDLL`.
    """

    def __init__(self, library: ctypes.CDLL) -> None:
        self._lib = library
        i64, f64, i32 = ctypes.c_int64, ctypes.c_double, ctypes.c_int32
        p = ctypes.POINTER
        library.repro_topk_rows.restype = None
        library.repro_topk_rows.argtypes = [
            p(f64), i64, i64, i64, p(i64), p(f64), i32,
        ]
        library.repro_csr_topk_rows.restype = None
        library.repro_csr_topk_rows.argtypes = [
            p(f64), ctypes.c_void_p, ctypes.c_void_p, i32, p(i64), i64,
            i64, i64, f64, f64, p(i64), p(f64), i32,
        ]
        # Raw addresses (``ndarray.ctypes.data``) for the other kernels: a
        # read scores one group, where building typed pointers would cost
        # more than a small group's reduce.
        void = ctypes.c_void_p
        library.repro_csr_level_topk_rows.restype = None
        library.repro_csr_level_topk_rows.argtypes = [
            void, void, void, i32, void, i64, i64, i64, f64, f64, i64,
            void, i64, void, void, i32,
        ]
        library.repro_column_reduce.restype = i32
        library.repro_column_reduce.argtypes = [
            void, void, void, i32, void, i64, i64, i32, void, void, void, i32,
        ]
        library.repro_bucket_rows.restype = i64
        library.repro_bucket_rows.argtypes = [
            void, void, i64, i64, i64, i64, void, i64, void, void, void,
        ]

    def bucket_rows(
        self,
        items_table: np.ndarray,
        scores_table: np.ndarray,
        first_col: int,
        n_cols: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group rows with equal bucket keys, buckets by first occurrence.

        Parameters
        ----------
        items_table, scores_table:
            The ``(n_rows, k)`` ranked top-k tables (any layout and integer
            / float width; ``n_rows < 2**31``).
        first_col, n_cols:
            The score columns ``[first_col, first_col + n_cols)`` that join
            the key, compared as float64 bit patterns.

        Returns
        -------
        (inverse, sorted_users, starts):
            As :func:`repro.core.kernels.bucketize`: bucket ``b`` is the
            ``b``-th distinct key in row order, its members ascending.
        """
        items = np.ascontiguousarray(items_table, dtype=np.int64)
        scores = np.ascontiguousarray(scores_table, dtype=np.float64)
        n_rows, k = items.shape
        if (scores.shape != items.shape or n_rows >= 2**31
                or not 0 <= first_col <= first_col + n_cols <= k):
            raise ValueError(
                f"cannot bucket {items.shape} items / {scores.shape} scores "
                f"tables on score columns [{first_col}, {first_col + n_cols})"
            )
        # int32 bucket ids in a power-of-two table at most half full.
        table = np.full(1 << (2 * n_rows - 1).bit_length(), -1, dtype=np.int32)
        inverse = np.empty(n_rows, dtype=np.int64)
        sorted_users = np.empty(n_rows, dtype=np.int64)
        starts = np.empty(n_rows, dtype=np.int64)
        n_buckets = self._lib.repro_bucket_rows(
            items.ctypes.data, scores.ctypes.data, n_rows, k, int(first_col),
            int(n_cols), table.ctypes.data, table.size - 1,
            inverse.ctypes.data, sorted_users.ctypes.data, starts.ctypes.data,
        )
        return inverse, sorted_users, starts[:n_buckets]

    def column_reduce(
        self,
        data: np.ndarray,
        indices: np.ndarray | None,
        indptr: np.ndarray | None,
        rows: np.ndarray,
        n_items: int,
        least_misery: bool,
        n_threads: int,
    ) -> tuple[np.ndarray | None, np.ndarray] | None:
        """Per-item LM minimum / AV sum of matrix rows, read in place.

        Parameters
        ----------
        data, indices, indptr:
            Arrays of a CSR matrix (as in :meth:`csr_top_k`),
            or a dense row source: a C-contiguous ``(n_rows, n_items)``
            float64 matrix as ``data`` with ``indices`` and ``indptr``
            ``None``, whose every cell is stored.
        rows:
            Non-empty ``int64`` row ids, every one in ``[0, n_rows)`` of the
            matrix (the caller validates them: the kernel reads each row
            without a bounds check).
        n_items:
            Column count of the matrix.
        least_misery:
            Reduce the minimum (LM) instead of the sum (AV).
        n_threads:
            Number of row chunks, each with its own partial arrays
            (results are identical for every value).

        Returns
        -------
        (counts, reduced) or None:
            ``int64`` stored-entry counts per item (``None`` for dense
            rows) and the float64 minima (``+inf`` where no entry is
            stored) or exact sums; ``None`` when the exactness gate fails
            (a ``-0.0``, or for AV a fractional value or
            ``|v| * len(rows) > 2**53``).
        """
        dense = indptr is None
        if not dense:
            _check_index_arrays(indices, indptr)
            indices = np.ascontiguousarray(indices)
            indptr = np.ascontiguousarray(indptr)
        data = np.ascontiguousarray(data, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        chunks = max(1, min(int(n_threads), rows.size, _MAX_THREADS,
                            _SCORE_PARTIAL_ELEMENTS // max(1, int(n_items))))
        if dense:
            chunks = max(1, min(chunks, rows.size * n_items // _SCORE_MIN_CHUNK_CELLS))
        counts = None if dense else np.zeros((chunks, n_items), dtype=np.int64)
        reduced = np.full((chunks, n_items), np.inf if least_misery else 0.0)
        failed = np.zeros(chunks, dtype=np.int32)
        status = self._lib.repro_column_reduce(
            data.ctypes.data,
            None if dense else indices.ctypes.data,
            None if dense else indptr.ctypes.data,
            int(not dense and indices.dtype == np.int64),
            rows.ctypes.data, rows.size, int(n_items), int(least_misery),
            None if dense else counts.ctypes.data,
            reduced.ctypes.data, failed.ctypes.data, chunks,
        )
        if status:
            return None
        return (None if dense else counts[0]), reduced[0]

    def top_k(
        self, values: np.ndarray, k: int, n_threads: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row top-``k`` of a complete float64 matrix, threaded over rows.

        Parameters
        ----------
        values:
            ``(n_users, n_items)`` NaN-free rating matrix.
        k:
            Top-k prefix length (``1 <= k <= n_items``).
        n_threads:
            Thread count for the row loop (results are identical
            for every value).

        Returns
        -------
        (items, values):
            ``(n_users, k)`` int64 item table and float64 rating table,
            bit-identical to :func:`repro.core.preferences.top_k_table`.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        n_users, n_items = values.shape
        items_out = np.empty((n_users, k), dtype=np.int64)
        values_out = np.empty((n_users, k), dtype=np.float64)
        if n_users:
            self._lib.repro_topk_rows(
                values.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
                n_users, n_items, k,
                items_out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
                values_out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
                int(n_threads),
            )
        return items_out, values_out

    def csr_top_k(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        rows: np.ndarray,
        n_items: int,
        k: int,
        fill: float,
        ceiling: float,
        n_threads: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row top-``k`` of CSR rows read densely with ``fill`` elsewhere.

        Parameters
        ----------
        data, indices, indptr:
            Arrays of a CSR matrix with sorted, unique column indices per
            row; ``indices`` and ``indptr`` share one integer width (int32
            or int64) and are read in place.
        rows:
            ``int64`` row ids to rank, in output order.
        n_items:
            Column count of the matrix.
        k:
            Top-k prefix length (``1 <= k <= n_items``).
        fill:
            Value of every unstored cell.
        ceiling:
            Upper bound of every stored value (``math.inf`` when none is
            known).  A row's scan stops once its ``k`` best stored values
            reach it; a bound that some stored value exceeds gives wrong
            tables.
        n_threads:
            Thread count for the row loop (results are identical for every
            value).

        Returns
        -------
        (items, values):
            ``(len(rows), k)`` int64 item table and float64 rating table,
            bit-identical to :func:`repro.core.kernels.top_k_table` on the
            densified rows.
        """
        _check_index_arrays(indices, indptr)
        data = np.ascontiguousarray(data, dtype=np.float64)
        indices = np.ascontiguousarray(indices)
        indptr = np.ascontiguousarray(indptr)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        items_out = np.empty((rows.size, k), dtype=np.int64)
        values_out = np.empty((rows.size, k), dtype=np.float64)
        if rows.size:
            self._lib.repro_csr_topk_rows(
                data.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
                indices.ctypes.data, indptr.ctypes.data,
                int(indices.dtype == np.int64),
                rows.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)), rows.size,
                int(n_items), int(k), float(fill), float(ceiling),
                items_out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
                values_out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
                int(n_threads),
            )
        return items_out, values_out

    def level_top_k(
        self,
        codes: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        rows: np.ndarray,
        n_items: int,
        k: int,
        fill: float,
        lowest: float,
        n_levels: int,
        n_threads: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row top-``k`` of CSR rows from their entries' level codes.

        Parameters
        ----------
        codes:
            ``uint8`` level code of every stored entry (level ``j`` is the
            value ``lowest + j``), aligned with ``indices``.
        indices, indptr, rows, n_items, k, fill:
            As in :meth:`csr_top_k`; ``fill`` must not be ``-0.0``.
        lowest, n_levels:
            The value of level 0 and the number of distinct, exactly
            representable levels (every code is below it).
        n_threads:
            Thread count for the row loop (results are identical for every
            value); each thread keeps ``n_levels x (k + 2)`` int64 scratch.

        Returns
        -------
        (items, values):
            As :meth:`csr_top_k` on the values ``lowest + code``.
        """
        _check_index_arrays(indices, indptr)
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        indices = np.ascontiguousarray(indices)
        indptr = np.ascontiguousarray(indptr)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        items_out = np.empty((rows.size, k), dtype=np.int64)
        values_out = np.empty((rows.size, k), dtype=np.float64)
        # run_rows' chunk count, so each chunk owns one scratch slice; the
        # slices sit at least a cache line apart, or the chunks' counters
        # would share one (false sharing cost ~40% at 2 threads).
        chunks = max(1, min(int(n_threads), _MAX_THREADS, rows.size))
        stride = -(-n_levels * (k + 2) // 8) * 8 + 8
        scratch = np.empty((chunks, stride), dtype=np.int64)
        if rows.size:
            self._lib.repro_csr_level_topk_rows(
                codes.ctypes.data, indices.ctypes.data, indptr.ctypes.data,
                int(indices.dtype == np.int64), rows.ctypes.data, rows.size,
                int(n_items), int(k), float(fill), float(lowest),
                int(n_levels), scratch.ctypes.data, stride,
                items_out.ctypes.data, values_out.ctypes.data, chunks,
            )
        return items_out, values_out


@functools.cache
def _load() -> tuple[CompiledKernels | None, str | None]:
    """Build (on a cold cache) and load the library, once per process.

    Returns the facade and ``None``, or ``None`` and the reason the
    library is unavailable; a failed load is not retried.
    """
    requested = os.environ.get(CC_ENV, "").strip().lower()
    if requested in _DISABLE_VALUES:
        return None, f"disabled via {CC_ENV}={os.environ[CC_ENV]!r}"
    compiler = _find_compiler()
    if compiler is None:
        return None, (
            f"no C compiler found (set {CC_ENV} to a compiler, or install "
            f"cc/gcc/clang)"
        )
    try:
        digest = hashlib.sha256(_SOURCE.encode("utf-8")).hexdigest()[:16]
        library_path = _library_dir() / f"repro_kernels_{digest}.so"
        if not library_path.exists():
            _compile(compiler, _SOURCE, library_path)
        return CompiledKernels(ctypes.CDLL(str(library_path))), None
    except Exception as exc:  # noqa: BLE001 - any failure means "unavailable"
        return None, str(exc)


def load_compiled() -> CompiledKernels | None:
    """The process-wide compiled kernels, building/loading them on first call.

    Returns ``None`` when the backend is disabled (``REPRO_KERNEL_CC=none``),
    no C compiler is available, or the build/load fails — the reason is
    then available from :func:`unavailable_reason`.  The outcome is cached:
    a failed load is not retried within the process.
    """
    return _load()[0]


def unavailable_reason() -> str | None:
    """Why the compiled kernels are unavailable (``None`` when they load)."""
    return _load()[1]
