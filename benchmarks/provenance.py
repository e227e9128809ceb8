"""Host and code fields the benchmark scripts stamp on their rows, and
the end-to-end timer of ``repro`` commands.

``bench_micro.py``, ``bench_solver.py``, ``bench_staticcheck.py``,
``bench_stats.py`` and ``bench_sweep.py`` import it by its bare name:
run as a script, a benchmark has ``benchmarks/`` first on
``sys.path``, and pytest puts the directory there too when it collects
them.  (``benchmarks.conftest`` is importable only under pytest.)
"""

import os
import subprocess
import sys
import time
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


def time_repro(argv, rounds, cwd, env=None):
    """Best wall time of ``rounds`` runs of ``python -m repro *argv``
    in ``cwd``, and the last run's completed process (stderr kept).

    Each run is a fresh interpreter importing the same ``repro``
    package as this process, so the time is what a user waits for:
    start-up (the imports a command pays before it works), the work
    and the exit.  ``env`` adds environment variables to this
    process's.
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        best = min(best, time.perf_counter() - started)
    return best, proc
