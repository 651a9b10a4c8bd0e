"""Provenance stamp: where, when and on what every recorded number was
measured."""

from __future__ import annotations

import datetime
import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

LIBRARIES = ("sympy", "numpy", "scipy", "networkx")


def source_digest(root: Path) -> str:
    """SHA-256 over every file under ``src/`` (path and bytes): identifies
    the measured code where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def library_versions() -> dict:
    return {name: _version(name) for name in LIBRARIES}


def native_replay_status() -> dict:
    """Load (building if needed) the program's native replay core and
    report whether it is in use."""
    from repro.schedule._native import native_replay_lib, native_status

    native_replay_lib()
    return native_status()


def stamp(root: Path, native: dict | None) -> dict:
    """The stamp every result carries.  ``commit``/``dirty`` are ``None``
    outside a git checkout; ``source_sha256`` always identifies the code."""
    status = _git(root, "status", "--porcelain")
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "libraries": library_versions(),
        "cpu_count": os.cpu_count(),
        "native_replay": native,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
