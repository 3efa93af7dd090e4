"""``repro serve`` startup validation: bad flags fail fast, one line, rc 2."""

from __future__ import annotations

import os
import subprocess
import sys


def _run_serve(*extra_args: str, env_extra=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.service.cli", "serve",
         "--users", "10", "--items", "4", "--port", "0", *extra_args],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_unusable_wal_dir_fails_fast(tmp_path):
    # A path nested under a regular file can never become a directory —
    # this stays unwritable even when the suite runs as root.
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    result = _run_serve("--wal-dir", str(blocker / "wal"))
    assert result.returncode == 2
    lines = [line for line in result.stderr.splitlines() if line.strip()]
    assert len(lines) == 1
    assert lines[0].startswith("repro serve: error:")
    assert "wal" in lines[0]
    # Fail-fast means no server banner and no stack trace.
    assert "listening" not in result.stdout
    assert "Traceback" not in result.stderr


def test_wal_dir_path_that_is_a_file_fails_fast(tmp_path):
    target = tmp_path / "occupied"
    target.write_text("x")
    result = _run_serve("--wal-dir", str(target))
    assert result.returncode == 2
    assert result.stderr.startswith("repro serve: error:")
    assert "not a directory" in result.stderr


def test_invalid_faults_schedule_fails_fast(tmp_path):
    result = _run_serve(
        "--wal-dir", str(tmp_path / "wal"), "--faults", "bogus.site=io"
    )
    assert result.returncode == 2
    lines = [line for line in result.stderr.splitlines() if line.strip()]
    assert len(lines) == 1
    assert lines[0].startswith("repro serve: error:")
    assert "bogus.site" in lines[0]


def test_invalid_respawn_knobs_fail_fast(tmp_path):
    result = _run_serve(
        "--wal-dir", str(tmp_path / "wal"),
        "--replicas", "2", "--respawn-budget", "0",
    )
    assert result.returncode == 2
    assert result.stderr.startswith("repro serve: error:")


def test_malformed_kernel_threads_env_fails_fast():
    for raw in ("abc", "0"):
        result = _run_serve(env_extra={"REPRO_KERNEL_THREADS": raw})
        assert result.returncode == 2, raw
        lines = [line for line in result.stderr.splitlines() if line.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("repro serve: error:")
        assert "REPRO_KERNEL_THREADS" in lines[0]
        assert "listening" not in result.stdout


def test_mmap_threshold_pins_on_glibc():
    # Run in a child: the setting is process-wide and must not leak into
    # the test process's allocator.
    import platform

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "from repro.service.cli import pin_mmap_threshold as p; print(p())"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    expected = "True" if platform.libc_ver()[0] == "glibc" else "False"
    assert result.stdout.strip() == expected
