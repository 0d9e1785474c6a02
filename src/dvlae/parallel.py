"""How many CPUs this process may use; the descriptor and t-SNE pools size
themselves by it."""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
