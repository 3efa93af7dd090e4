"""Fixtures shared by the service suites."""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections.abc import Iterator

import pytest

from repro.service import ServiceServer


async def _settle(timeout: float) -> list[str]:
    """Wait for every other task on this loop; describe those still pending.

    Tasks that outlive ``timeout`` are cancelled (so closing the loop does
    not destroy them mid-flight) and reported.
    """
    current = asyncio.current_task()
    tasks = [task for task in asyncio.all_tasks() if task is not current]
    if not tasks:
        return []
    _, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    return [repr(task) for task in pending]


@contextlib.contextmanager
def serve_in_background(
    srv: ServiceServer, settle_timeout: float = 5.0
) -> Iterator[ServiceServer]:
    """Run ``srv`` on its own event loop in a daemon thread.

    On exit the server is shut down on that loop
    (:meth:`ServiceServer.shutdown`), the connection handlers still
    closing are awaited, and the loop is stopped, joined and closed.  The
    exit asserts that no task was left pending: a handler still running
    when its loop is closed is destroyed with it and logs "Task was
    destroyed but it is pending!" into whichever test runs then.

    Parameters
    ----------
    srv:
        The server to run (``port=0`` picks a free port).
    settle_timeout:
        Seconds to wait for remaining tasks after the shutdown.
    """
    loop = asyncio.new_event_loop()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.time() + 5
    while srv._server is None:
        if time.time() > deadline:  # pragma: no cover - startup failure
            raise RuntimeError("server did not start")
        time.sleep(0.01)
    try:
        yield srv
    finally:
        asyncio.run_coroutine_threadsafe(srv.shutdown(), loop).result(timeout=30)
        pending = asyncio.run_coroutine_threadsafe(
            _settle(settle_timeout), loop
        ).result(timeout=settle_timeout + 5)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()
    assert not pending, f"tasks left pending after shutdown: {pending}"


@pytest.fixture(scope="session")
def background_server():
    """The :func:`serve_in_background` context manager."""
    return serve_in_background
