"""Property: concurrent reads only ever observe fully-applied versions."""

from __future__ import annotations

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recsys.store import DenseStore
from repro.service import FormationService, ReplicaPool
from repro.service.pool import canonical_response

USERS, ITEMS = 30, 8
READ = dict(k=3, max_groups=5)

events = st.tuples(
    st.integers(0, USERS - 1),
    st.integers(0, ITEMS - 1),
    st.integers(1, 5).map(float),
)
batches = st.lists(
    st.lists(events, min_size=1, max_size=4), min_size=1, max_size=3
)


def make_values() -> np.ndarray:
    return np.random.default_rng(7).integers(1, 6, size=(USERS, ITEMS)).astype(float)


def reference_by_version(batch_list) -> dict[int, dict]:
    """Canonical single-process response after each fully-applied batch."""
    service = FormationService(DenseStore(make_values()), k_max=5)
    try:
        refs = {0: canonical_response(service.recommend(**READ).as_dict())}
        for batch in batch_list:
            service.apply_updates(upserts=batch)
            refs[service.version] = canonical_response(
                service.recommend(**READ).as_dict()
            )
        return refs
    finally:
        service.close()


@settings(max_examples=6, deadline=None)
@given(batch_list=batches, data=st.data())
def test_interleaved_reads_observe_only_published_versions(batch_list, data):
    """However event batches and reads interleave, every routed response is
    bit-identical to a single-process service *at the version the response
    reports* — a read can never observe a half-applied batch or a
    half-swapped index."""
    # Where the writer pauses (in reads) between batch+publish steps is
    # hypothesis-controlled, so shrinking explores interleavings.
    pauses = data.draw(
        st.lists(
            st.integers(0, 2),
            min_size=len(batch_list),
            max_size=len(batch_list),
        )
    )
    refs = reference_by_version(batch_list)
    service = FormationService(DenseStore(make_values()), k_max=5)
    pool = ReplicaPool(service, replicas=2, inflight=2, queue_depth=32)
    pool.start()

    observed: list[tuple[int, dict]] = []

    async def reader(reads: int) -> None:
        for _ in range(reads):
            payload = await pool.recommend(**READ)
            observed.append(
                (payload["extras"]["service_version"],
                 canonical_response(payload))
            )
            await asyncio.sleep(0)

    async def writer() -> None:
        loop = asyncio.get_running_loop()
        for batch, pause in zip(batch_list, pauses):
            for _ in range(pause):
                await asyncio.sleep(0.005)
            await loop.run_in_executor(None, service.apply_updates, batch)
            await pool.publish()

    async def scenario() -> None:
        try:
            await asyncio.gather(writer(), reader(4), reader(4))
            # After the last publish every replica serves the final version.
            final = await pool.recommend(**READ)
            observed.append(
                (final["extras"]["service_version"],
                 canonical_response(final))
            )
            assert final["pool_version"] == len(batch_list)
        finally:
            await pool.shutdown()

    try:
        asyncio.run(scenario())
    finally:
        service.close()

    assert observed, "no reads completed"
    for version, response in observed:
        assert version in refs, (
            f"read observed version {version}, which was never fully applied"
        )
        assert response == refs[version], (
            f"read at version {version} differs from the single-process "
            f"reference — a partially-applied or half-swapped index leaked"
        )
