"""Left-over scoring by complement: ``SparseStore`` level counts.

A group holding more than half of a sparse store's rows (each once) is
scored from the store's per-item level counts minus those of the other
rows (:func:`repro.core.kernels.level_item_scores`).  It must give the
bits of the direct column reduce (:func:`repro.core.kernels.csr_item_scores`)
and of the dense specification, for both semantics, and the table the
store keeps current across writes must equal a fresh count.  The store
builds the table only after the direct reduce has scored
``_DIRECT_SCORES_BEFORE_BUILD`` such groups.

The table is counted from the store's ``uint8`` level code per stored
entry, which the store encodes at construction and keeps current across
every write; the codes must equal a fresh encode of the stored values
after writes, a snapshot round trip and a shared-memory attach.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core import kernels
from repro.core.engine import FormationEngine
from repro.core.semantics import Semantics
from repro.core.errors import RatingDataError
from repro.core.topk_index import MutableTopKIndex
from repro.execution.shm import SharedExports, attach_store, detach_all
from repro.ingest.snapshot import SnapshotManager
from repro.recsys.matrix import RatingScale
from repro.recsys.store import _DIRECT_SCORES_BEFORE_BUILD, SparseStore

LM, AV = Semantics.LEAST_MISERY, Semantics.AGGREGATE_VOTING

#: (scale, stored-value pool, fill) cases: heavy ties, stored fill-valued
#: entries, a fractional fill, and a scale through 0 with a stored -0.0.
CASES = [
    (RatingScale(1.0, 5.0), (5.0,), 1.0),
    (RatingScale(1.0, 5.0), (4.0, 5.0), 5.0),
    (RatingScale(1.0, 5.0), (1.0, 2.0, 3.0, 4.0, 5.0), 1.0),
    (RatingScale(1.0, 5.0), (1.0, 3.0, 5.0), 3.0),
    (RatingScale(1.0, 5.0), (1.0, 2.0, 4.0), 2.5),
    (RatingScale(-2.0, 3.0), (-2.0, 0.0, 3.0), 0.0),
    (RatingScale(-2.0, 3.0), (-2.0, -0.0, 0.0, 1.0), 1.0),
    (RatingScale(-2.0, 3.0), (-1.0, 2.0), -0.0),
    (RatingScale(-2.0, 3.0), (0.0, 1.0), -0.0),
]


def assert_bits_equal(got, expected):
    __tracebackhide__ = True
    assert np.array_equal(
        np.asarray(got, dtype=np.float64).view(np.uint64),
        np.asarray(expected, dtype=np.float64).view(np.uint64),
    )


def random_store(rng, n_users, n_items, density, pool, fill, scale):
    """A SparseStore with values drawn from ``pool`` and its dense twin."""
    stored = rng.random((n_users, n_items)) < density
    ratings = rng.choice(np.asarray(pool), size=(n_users, n_items))
    rows, cols = np.nonzero(stored)
    csr = sp.csr_matrix((ratings[rows, cols], (rows, cols)), shape=(n_users, n_items))
    return SparseStore(csr, fill_value=fill, scale=scale)


def fresh_codes(store: SparseStore) -> np.ndarray | None:
    return kernels.entry_levels(store.csr.data, *store._level_range)


def fresh_counts(store: SparseStore) -> np.ndarray | None:
    codes = fresh_codes(store)
    if codes is None:
        return None
    return kernels.csr_level_counts(store.csr, codes, store._level_range[1])


def assert_codes_current(store: SparseStore) -> None:
    """Kept codes equal a fresh encode; a store without codes has no table.

    A store drops its codes for good once it stores an off-level value, so
    it may have none while its values are back on the levels.
    """
    __tracebackhide__ = True
    if store._codes is None:
        assert store._level_counts is None
    else:
        assert store._codes.dtype == np.uint8
        assert np.array_equal(store._codes, fresh_codes(store))


def member_sets(rng, n_users):
    """Every member shape the path choice turns on: all rows, exactly half
    (direct reduce) and one more (complement), and duplicates."""
    halves = sorted({n_users // 2, n_users // 2 + 1} - {0})
    return [
        np.arange(n_users),
        *(rng.choice(n_users, size=size, replace=False) for size in halves),
        rng.choice(n_users, size=n_users // 2 + 2, replace=True),
    ]


def build_table(store: SparseStore) -> bool:
    """Score every row until the store builds its table; whether it did."""
    for _ in range(_DIRECT_SCORES_BEFORE_BUILD + 1):
        store.item_scores(np.arange(store.n_users), LM)
    return isinstance(store._level_counts, np.ndarray)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_users=st.integers(1, 24),
    n_items=st.integers(1, 9),
    density=st.floats(0.0, 1.0),
    case=st.sampled_from(CASES),
)
def test_complement_direct_and_dense_agree(seed, n_users, n_items, density, case):
    scale, pool, fill = case
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users, n_items, density, pool, fill, scale)
    dense = store.to_dense()
    # Built wherever the values sit on levels and LM's gate admits the fill.
    assert build_table(store) == (
        fresh_counts(store) is not None and not np.signbit(fill)
    )
    for members in member_sets(rng, n_users):
        for semantics in (LM, AV):
            expected = semantics.item_scores(dense, members)
            assert_bits_equal(store.item_scores(members, semantics), expected)
            direct = kernels.csr_item_scores(store.csr, members, fill, semantics)
            if direct is not None:
                assert_bits_equal(direct, expected)
            table = fresh_counts(store)
            unique = np.unique(members).size == members.size
            if table is None or not unique or not kernels.level_scores_exact(
                fill, *store._level_range, members.size, semantics
            ):
                continue
            outside = np.setdiff1d(np.arange(n_users), members)
            assert_bits_equal(
                kernels.level_item_scores(
                    table, store.csr, fresh_codes(store), outside, members.size,
                    fill, store._level_range[0], semantics,
                ),
                expected,
            )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_users=st.integers(2, 30),
    n_items=st.integers(2, 8),
    density=st.floats(0.0, 1.0),
    max_groups=st.integers(1, 3),
    k=st.integers(1, 3),
    case=st.sampled_from(CASES[:5]),
)
def test_formation_matches_the_reference_backend(
    seed, n_users, n_items, density, max_groups, k, case
):
    """A few groups leave most users over, so the numpy engine scores the
    left-over group by complement; the reference backend on the dense
    matrix is the specification."""
    scale, pool, fill = case
    k = min(k, n_items)
    store = random_store(
        np.random.default_rng(seed), n_users, n_items, density, pool, fill, scale
    )
    assert build_table(store)
    for semantics in ("lm", "av"):
        ours = FormationEngine("numpy").run(store, max_groups, k, semantics, "min")
        spec = FormationEngine("reference").run(
            store.to_dense(), max_groups, k, semantics, "min"
        )
        assert [g.members for g in ours.groups] == [g.members for g in spec.groups]
        assert [g.items for g in ours.groups] == [g.items for g in spec.groups]
        for mine, theirs in zip(ours.groups, spec.groups):
            assert_bits_equal(mine.item_scores, theirs.item_scores)
        assert ours.objective == spec.objective


# Chunk 1 rises to the table size (55 cells), so ~264 entries take 5 chunks.
@pytest.mark.parametrize("chunk", [1, kernels._LEVEL_CHUNK_ENTRIES])
def test_level_counts_match_the_stored_values(chunk, monkeypatch):
    monkeypatch.setattr(kernels, "_LEVEL_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(4)
    store = random_store(
        rng, 60, 11, 0.4, (1.0, 2.0, 3.0, 4.0, 5.0), 1.0, RatingScale(1.0, 5.0)
    )
    table = fresh_counts(store)
    stored = store.csr.toarray()  # unstored cells read 0, no level
    for level in range(5):
        assert np.array_equal(table[:, level], (stored == level + 1).sum(axis=0))
    # Off-level values, non-finite ones and -0.0 cannot be coded.
    for bad in (2.5, -0.0, 6.0, -3.0, np.inf, np.nan):
        data = store.csr.data.copy()
        data[3] = bad
        assert kernels.entry_levels(data, -2.0, 8) is None


@pytest.mark.parametrize("bad, message", [
    (np.nan, "non-finite"), (np.inf, "non-finite"), (6.0, "outside"),
    (0.5, "outside"),
])
def test_off_level_data_raises_the_same_error_at_construction(bad, message):
    # Encoding proves on-level data valid; data it cannot encode runs the
    # two validation passes, which raise as before.
    csr = sp.csr_matrix(([1.0, bad, 4.0], [0, 1, 2], [0, 2, 3]), shape=(2, 3))
    with pytest.raises(RatingDataError, match=message):
        SparseStore(csr, fill_value=1.0, scale=RatingScale(1.0, 5.0))


@pytest.mark.parametrize("values, coded", [
    ((1.0, 3.0, 5.0), True), ((1.0, 2.5), False), ((-0.0, 1.0), False),
    ((0.0, 1.0), True),
])
def test_codes_at_construction(values, coded):
    csr = sp.csr_matrix((list(values), [0] * len(values), range(len(values) + 1)),
                        shape=(len(values), 1))
    store = SparseStore(csr, fill_value=1.0, scale=RatingScale(-2.0, 5.0))
    assert (store._codes is not None) == coded == (fresh_codes(store) is not None)
    assert_codes_current(store)
    extra = store._codes.nbytes if coded else 0
    assert store.nbytes == (
        store.csr.data.nbytes + store.csr.indices.nbytes
        + store.csr.indptr.nbytes + extra
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    fill=st.sampled_from([1.0, 3.0, 2.5]),
    steps=st.lists(
        st.sampled_from(["upsert", "fractional", "delete", "clear", "append"]),
        min_size=1,
        max_size=8,
    ),
)
def test_maintained_table_equals_a_fresh_count(seed, fill, steps):
    rng = np.random.default_rng(seed)
    levels = (1.0, 2.0, 3.0, 4.0, 5.0)
    store = random_store(rng, 20, 7, 0.3, levels, fill, RatingScale(1.0, 5.0))
    assert build_table(store)
    assert np.array_equal(store._level_counts, fresh_counts(store))
    assert store.nbytes == (
        store.csr.data.nbytes + store.csr.indices.nbytes
        + store.csr.indptr.nbytes + store._codes.nbytes
        + store._level_counts.nbytes
    )
    for step in steps:
        n = int(rng.integers(1, 12))
        users = rng.integers(0, store.n_users, size=n)
        items = rng.integers(0, store.n_items, size=n)
        built = isinstance(store._level_counts, np.ndarray)
        if step == "upsert":
            store.upsert(users, items, rng.choice(levels, size=n))
        elif step == "fractional":
            store.upsert(users[:1], items[:1], [3.5])
        elif step == "delete":
            store.delete(users, items)
        elif step == "clear":
            store.clear_rows(np.append(users[:3], users[0]))  # repeats a user
        else:
            store.append_users(rng.choice(levels, size=(2, store.n_items)))
        assert_codes_current(store)
        if isinstance(store._level_counts, np.ndarray):
            assert np.array_equal(store._level_counts, fresh_counts(store)), step
        elif built:  # dropped by this write: it stored an off-level value
            assert fresh_counts(store) is None and store._codes is None, step
        everyone = np.arange(store.n_users)
        for semantics in (LM, AV):
            assert_bits_equal(
                store.item_scores(everyone[1:], semantics),
                semantics.item_scores(store.to_dense(), everyone[1:]),
            )


def test_a_few_formations_build_no_table(monkeypatch):
    """One build costs more than the direct reduce of the one left-over
    group a formation scores, so a store formed a few times (here once
    under each semantics) never counts."""
    store = random_store(
        np.random.default_rng(2), 40, 8, 0.4, (1.0, 3.0, 5.0), 1.0, RatingScale()
    )
    counted = []
    monkeypatch.setattr(kernels, "csr_level_counts", lambda *a: counted.append(a))
    for semantics in ("lm", "av"):
        FormationEngine("numpy").run(store, 2, 3, semantics, "min")
    assert counted == [] and store._level_counts is None


def test_an_off_level_write_drops_the_table_for_good():
    store = random_store(
        np.random.default_rng(1), 10, 5, 0.5, (1.0, 5.0), 2.5, RatingScale(1.0, 5.0)
    )
    assert build_table(store)  # under LM: AV's gate refuses the 2.5 fill
    row = int(np.flatnonzero(np.diff(store.csr.indptr))[0])
    store.clear_rows([row])  # stores the 2.5 fill
    assert store._codes is None and store._level_counts is None
    assert fresh_counts(store) is None
    store.item_scores(np.arange(10), LM)  # never rebuilt
    assert store._codes is None and store._level_counts is None
    store.upsert([0], [0], [5.0])  # an on-level write does not restore them
    assert store._codes is None


def test_table_after_a_snapshot_round_trip_equals_a_fresh_count(tmp_path):
    rng = np.random.default_rng(8)
    store = random_store(rng, 25, 10, 0.3, (1.0, 2.0, 4.0, 5.0), 1.0, RatingScale())
    assert build_table(store)
    store.upsert([0, 3, 24], [1, 9, 0], [5.0, 2.0, 4.0])
    store.clear_rows([3, 7])
    manager = SnapshotManager(tmp_path)
    manager.save(MutableTopKIndex(store, k_max=4), applied_seq=1)
    loaded = manager.load_latest().store
    assert loaded._codes is not None
    assert_codes_current(loaded)
    assert np.array_equal(loaded._codes, store._codes)
    assert loaded._level_counts is None  # rebuilt lazily
    assert build_table(loaded)
    assert np.array_equal(loaded._level_counts, store._level_counts)
    assert np.array_equal(loaded._level_counts, fresh_counts(store))


def test_codes_after_a_shared_memory_attach_equal_a_fresh_encode():
    rng = np.random.default_rng(12)
    store = random_store(rng, 30, 9, 0.4, (1.0, 2.0, 4.0, 5.0), 1.0, RatingScale())
    store.upsert([1, 2, 29], [0, 8, 3], [3.0, 5.0, 2.0])
    store.delete([1], [0])
    with SharedExports() as exports:
        attached = attach_store(exports.export_store(store))
        assert attached._codes is not None
        assert_codes_current(attached)
        assert np.array_equal(attached._codes, store._codes)
        assert attached._codes is not store._codes
        detach_all()


def test_full_population_scores_read_only_the_complement_once_built(monkeypatch):
    rng = np.random.default_rng(3)
    store = random_store(rng, 40, 8, 0.5, (1.0, 3.0, 5.0), 1.0, RatingScale())
    members = np.delete(np.arange(40), [5, 17, 30])
    dense = store.to_dense()

    read_rows, counted, reduced = [], [], []

    def spy(name, calls, record):
        original = getattr(kernels, name)

        def wrapper(*args):
            calls.append(record(*args))
            return original(*args)

        monkeypatch.setattr(kernels, name, wrapper)

    spy("_csr_row_entries", read_rows, lambda indptr, rows: np.array(rows).tolist())
    spy("csr_level_counts", counted, lambda *a: a)
    spy("csr_item_scores", reduced, lambda csr, rows, *a: np.array(rows).tolist())

    # The first scores reduce the members directly and build no table, so
    # a store scored only a few times never pays the build.
    direct = _DIRECT_SCORES_BEFORE_BUILD
    for semantics in ((LM, AV) * direct)[:direct]:
        assert_bits_equal(
            store.item_scores(members, semantics),
            semantics.item_scores(dense, members),
        )
    assert reduced == [members.tolist()] * direct
    assert counted == [] and read_rows == [] and store._level_counts is None
    # The next builds the table; it and every later one read only the
    # three rows outside the group.
    for semantics in (LM, AV, LM):
        assert_bits_equal(
            store.item_scores(members, semantics),
            semantics.item_scores(dense, members),
        )
    assert len(counted) == 1 and len(reduced) == direct
    assert read_rows == [[5, 17, 30]] * 3
    # Exactly half the rows: the direct reduce reads the members' rows.
    store.item_scores(np.arange(20), LM)
    assert reduced[direct:] == [list(range(20))] and len(read_rows) == 3


def test_the_build_has_its_own_span_and_scores_stay_under_kernel_score():
    from repro.obs import trace

    store = random_store(
        np.random.default_rng(6), 30, 6, 0.5, (1.0, 2.0, 5.0), 1.0, RatingScale()
    )
    handle = trace.begin("level-counts")
    try:
        for start in range(_DIRECT_SCORES_BEFORE_BUILD + 2):
            store.item_scores(np.arange(start, 30), (AV, LM)[start % 2])
        names = [span["name"] for span in trace.active().spans]
    finally:
        trace.end(handle)
    # Direct reduces, then the build and a complement score, then another.
    assert names == ["kernel.score"] * _DIRECT_SCORES_BEFORE_BUILD + [
        "store.level_counts", "kernel.score", "kernel.score"
    ]
