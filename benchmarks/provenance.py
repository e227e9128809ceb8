"""Host and code fields the benchmark scripts stamp on their rows.

``bench_micro.py``, ``bench_solver.py``, ``bench_staticcheck.py``,
``bench_stats.py`` and ``bench_sweep.py`` import it by its bare name:
run as a script, a benchmark has ``benchmarks/`` first on
``sys.path``, and pytest puts the directory there too when it collects
them.  (``benchmarks.conftest`` is importable only under pytest.)
"""

import os
import subprocess
from pathlib import Path

import repro


def provenance(**extra):
    """``cpu_count`` and ``git_rev``, followed by the ``extra`` fields.

    ``git_rev`` describes the checkout holding the imported ``repro``
    package, with a ``-dirty`` suffix for uncommitted changes, and is
    ``None`` outside a git tree.
    """
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True, timeout=10,
            cwd=Path(repro.__file__).resolve().parent).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {"cpu_count": os.cpu_count(), "git_rev": rev or None, **extra}
