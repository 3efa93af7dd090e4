"""CSR top-k parity: both CSR kernels equal the dense kernel on densified rows.

:func:`repro.core.kernels.csr_top_k_table` ranks a
:class:`~repro.recsys.store.SparseStore` straight from its CSR arrays.  Its
two implementations — the compiled kernel of :mod:`repro.core.kernels_cc`
and the numpy fallback used without a C compiler — are called directly, in
one process, and must be bit-identical (items, and value *bit patterns*) to
:func:`repro.core.kernels.top_k_table` on the densified rows for:

* stored entries equal to the fill value (they rank inside the fill band,
  by item index, with their own bits);
* empty rows and rows whose every stored entry equals the fill;
* ``k`` above the row's stored count and ``k = n_items``;
* a fill above some stored values (the below-fill band ranks last);
* tie-heavy integer ratings and ``±0.0`` (``-0.0 == +0.0`` ties resolve by
  index, exactly like the dense kernels);
* int32 and int64 ``indptr``/``indices``, read in place without a copy.

A process that only forms groups over dense ratings never loads the
compiled CSR library.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core import kernels, kernels_cc

#: Few levels (heavy ties), both zero signs and a fractional value.
LEVELS = (0.0, -0.0, 1.0, 2.0, 3.0, 2.5)


def compiled_top_k(data, indices, indptr, rows, n_items, k, fill):
    backend = kernels_cc.load_csr()
    if backend is None:
        pytest.skip("compiled CSR kernel unavailable (no C compiler)")
    return backend.top_k(data, indices, indptr, rows, n_items, k, fill, 2)


IMPLEMENTATIONS = {
    "compiled": compiled_top_k,
    "numpy": kernels._csr_top_k_numpy,
}


def assert_bit_identical(got, expected):
    __tracebackhide__ = True
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(
        np.ascontiguousarray(got[1]).view(np.uint64),
        np.ascontiguousarray(expected[1]).view(np.uint64),
    )


@st.composite
def csr_instances(draw):
    """A canonical CSR matrix, its densified rows, a row selection and k."""
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n_items = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    fill = draw(st.sampled_from(LEVELS))
    stored = rng.random((n_rows, n_items)) < draw(st.floats(0.0, 1.0))
    values = rng.choice(LEVELS, size=(n_rows, n_items))
    if draw(st.booleans()):
        values[0] = fill  # an all-fill row (every stored entry equals fill)
    if n_rows > 1 and draw(st.booleans()):
        stored[-1] = False  # an empty row
    dense = np.where(stored, values, fill)
    rows, cols = np.nonzero(stored)
    csr = sp.csr_matrix(
        (values[rows, cols], (rows, cols)), shape=(n_rows, n_items)
    )
    index_dtype = draw(st.sampled_from((np.int32, np.int64)))
    csr.indices = csr.indices.astype(index_dtype)
    csr.indptr = csr.indptr.astype(index_dtype)
    selection = rng.permutation(n_rows)[: draw(st.integers(0, n_rows))]
    k = draw(st.integers(min_value=1, max_value=n_items))
    return csr, dense, selection.astype(np.int64), k, fill


@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
@settings(max_examples=300, deadline=None)
@given(instance=csr_instances())
def test_matches_dense_top_k(implementation, instance):
    csr, dense, rows, k, fill = instance
    got = IMPLEMENTATIONS[implementation](
        csr.data, csr.indices, csr.indptr, rows, csr.shape[1], k, fill
    )
    if rows.size:
        expected = kernels.top_k_table(dense[rows], k)
    else:
        expected = (np.empty((0, k), np.int64), np.empty((0, k)))
    assert_bit_identical(got, expected)


@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
@pytest.mark.parametrize("fill", [2.0, 0.0])
def test_bands_and_signed_zeros(implementation, fill):
    # Row 0 stores 1, 3, 2, 0.5: with fill 2.0 two stored values rank below
    # the fill and the stored 2.0 joins the fill band at its own index.
    # Row 1 stores -0.0 and 5: with fill 0.0 the -0.0 ties the unstored
    # +0.0 cells, ranks by index and keeps its sign bit.
    csr = sp.csr_matrix(
        ([1.0, 3.0, 2.0, 0.5, -0.0, 5.0], [0, 1, 2, 3, 0, 2], [0, 4, 6]),
        shape=(2, 5),
    )
    dense = np.array(
        [[1.0, 3.0, 2.0, 0.5, fill], [-0.0, fill, 5.0, fill, fill]]
    )
    got = IMPLEMENTATIONS[implementation](
        csr.data, csr.indices, csr.indptr, np.array([0, 1]), 5, 5, fill
    )
    assert_bit_identical(got, kernels.top_k_table(dense, 5))


@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_index_arrays_read_in_place(implementation, index_dtype):
    # Ranking three rows of a large matrix must not copy or convert the
    # nnz-sized index array: peak allocation stays far below its size.
    n_rows, per_row, stride = 20_000, 50, 100
    n_items = per_row * stride
    rng = np.random.default_rng(3)
    shifts = rng.integers(0, stride, size=(n_rows, 1))
    indices = (np.arange(per_row) * stride + shifts).ravel().astype(index_dtype)
    indptr = np.arange(0, n_rows * per_row + 1, per_row, dtype=index_dtype)
    data = rng.integers(1, 6, size=indices.size).astype(np.float64)
    rows = np.array([5, 0, 19_999])
    IMPLEMENTATIONS[implementation](data, indices, indptr, rows, n_items, 4, 1.0)
    tracemalloc.start()
    try:
        IMPLEMENTATIONS[implementation](data, indices, indptr, rows, n_items, 4, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < indices.nbytes // 16


def test_dense_formation_never_loads_the_csr_library():
    # A dense-store process ranks with the dense kernels only, so it must
    # not pay the CSR library's build or load (checked in a fresh process:
    # this one may already have loaded it).
    script = (
        "import numpy as np\n"
        "from repro.core import FormationEngine, kernels_cc\n"
        "from repro.core.sharded import ShardedFormation\n"
        "values = np.random.default_rng(0).integers(1, 6, (60, 12)).astype(float)\n"
        "FormationEngine('numpy').run(values, 4, 3, 'av', 'sum')\n"
        "ShardedFormation(shards=3).run(values, 4, 3, 'lm', 'min')\n"
        "assert not kernels_cc._CSR_LIBRARY.attempted\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(kernels.__file__).parents[2]), env.get("PYTHONPATH", "")]
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_public_entry_point_validates_and_dispatches():
    csr = sp.csr_matrix(np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 4.0]]))
    items, values = kernels.csr_top_k_table(csr, np.array([1, 0]), 2, 1.0)
    assert items.tolist() == [[2, 0], [0, 2]]
    assert values.tolist() == [[4.0, 1.0], [3.0, 2.0]]
    with pytest.raises(ValueError):
        kernels.csr_top_k_table(csr, np.array([0]), 4, 1.0)
    with pytest.raises(IndexError):
        kernels.csr_top_k_table(csr, np.array([2]), 1, 1.0)
