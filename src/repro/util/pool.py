"""Process-pool sizing shared by every parallel driver."""

from __future__ import annotations

import os


def pool_workers(jobs: int, tasks: int) -> int:
    """Pool width for ``tasks`` CPU-bound tasks: ``jobs``, capped at the
    task count and at the machine's core count (callers may forward
    user-supplied ``jobs`` values; one request must not fork a process per
    task on a large corpus)."""
    return max(1, min(int(jobs), int(tasks), os.cpu_count() or 1))
