"""The check-cold input: a frozen source tree with seeded violations.

``corpus.tar.gz`` holds ``src tests benchmarks examples`` as of
revision e232646, which is check-clean.  :func:`materialize` writes
it out and plants a seed-chosen set of contract-rule violations, each
in a new module with a seed-chosen name and a seed-chosen number of
leading comment lines.  It returns the exact ``(rule, path, line)``
set a correct analyzer must report and the tree's lines of Python
source.  Only the contract rules the roadmap keeps are planted (layer
DAG, snapshot completeness, CRN and determinism, parallel safety).
"""

import os
import tarfile

import numpy as np

ARCHIVE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "corpus.tar.gz")

#: The corpus roots the analyzer runs over.
ROOTS = ("src", "tests", "benchmarks", "examples")

#: Violations planted per seed, drawn without replacement.
PLANTS_PER_SEED = 5

# Each template: (package dir, {module role: source}, [(rule, role,
# line)]).  ``{task}`` in a source is replaced by the task module's
# name; lines count from the end of the padding.
TEMPLATES = {
    "GW001": ("src/repro/queueing", {
        "main": "from repro.experiments.base import Table\n",
    }, [("GW001", "main", 1)]),
    "GW401": ("src/repro/sim", {
        "main": (
            "from repro.sim.queues import QueuePolicy\n"
            "\n"
            "\n"
            "class _LeakyQueue(QueuePolicy):\n"
            "    def __init__(self):\n"
            "        self._packets = []\n"
            "        self._served = 0\n"
            "\n"
            "    def push(self, item):\n"
            "        self._packets.append(item)\n"
            "\n"
            "    def complete(self):\n"
            "        self._served += 1\n"
            "\n"
            "    def state_snapshot(self):\n"
            "        clone = _LeakyQueue()\n"
            "        clone._packets = list(self._packets)\n"
            "        return clone\n"),
    }, [("GW401", "main", 15)]),
    "GW501": ("src/repro/sim", {
        "main": (
            "def _service_time(rng, mu):\n"
            "    return float(rng.exponential(1.0 / mu))\n"),
    }, [("GW501", "main", 2)]),
    "GW502": ("src/repro/numerics", {
        "main": (
            "import time\n"
            "\n"
            "\n"
            "def _stamp():\n"
            "    return time.perf_counter()\n"),
    }, [("GW502", "main", 5)]),
    "GW503": ("src/repro/sim", {
        "main": (
            "def _gaps(stream, n):\n"
            "    out = []\n"
            "    for _ in range(n):\n"
            "        out.append(stream.draw())\n"
            "    return out\n"),
    }, [("GW503", "main", 3)]),
    "GW601": ("src/repro/sim", {
        "main": (
            "from multiprocessing import Pool\n"
            "\n"
            "from repro.sim.{task} import _run_task\n"
            "\n"
            "\n"
            "def _run_all(items):\n"
            "    with Pool(2) as pool:\n"
            "        return pool.map(_run_task, items)\n"),
        "task": (
            "_CALLS = 0\n"
            "\n"
            "\n"
            "def _run_task(item):\n"
            "    global _CALLS\n"
            "    _CALLS += 1\n"
            "    return item\n"),
    }, [("GW601", "task", 5)]),
    "GW602": ("src/repro/sim", {
        "main": (
            "from multiprocessing import Pool\n"
            "\n"
            "\n"
            "def _run_all(items):\n"
            "    with Pool(2) as pool:\n"
            "        return pool.map(lambda x: x + 1, items)\n"),
    }, [("GW602", "main", 6)]),
    "GW604": ("src/repro/sweep", {
        "main": (
            "async def _drain(futures):\n"
            "    return [future.result() for future in futures]\n"),
    }, [("GW604", "main", 2)]),
}


def plan(seed):
    """The seed's plants: ``[(template, tag, {role: padding})]``."""
    rng = np.random.default_rng([seed, 0x9C])
    chosen = sorted(rng.choice(sorted(TEMPLATES), PLANTS_PER_SEED,
                               replace=False))
    out = []
    for rule in chosen:
        tag = "".join(rng.choice(list("abcdefghjkmnpqrstuvwxyz"), 6))
        roles = TEMPLATES[rule][1]
        padding = {role: int(rng.integers(0, 6)) for role in sorted(roles)}
        out.append((rule, tag, padding))
    return out


def _write(path, data):
    """Write ``data`` to ``path``, over the file's old bytes if any.

    An existing file is not emptied first, so rewriting a file with the
    same bytes allocates nothing; it is cut to ``len(data)`` afterwards
    in case it was longer.  Creating files is what a set-up's time on a
    shared disk varies with (5x within minutes on an ext4 guest);
    rewriting them in place is mostly the interpreter's work.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def unpack(dest):
    """Write the frozen corpus under ``dest``; return its source lines.

    Files are written with :func:`_write`, without owner, mode or time
    stamps, which the analyzer does not read.  Lines of Python source
    under the corpus roots are counted from the archive's bytes, not
    read back from the tree.
    """
    lines = 0
    made = set()
    with tarfile.open(ARCHIVE, "r:gz") as archive:
        for member in archive:
            name = os.path.normpath(member.name)
            parts = name.split(os.sep)
            if os.path.isabs(name) or parts[0] == "..":
                raise ValueError(f"unsafe corpus member {member.name!r}")
            if member.isdir():
                continue
            if not member.isfile():
                raise ValueError(f"corpus member {member.name!r} is not "
                                 f"a regular file")
            folder = os.path.join(dest, *parts[:-1])
            if folder not in made:
                os.makedirs(folder, exist_ok=True)
                made.add(folder)
            data = archive.extractfile(member).read()
            _write(os.path.join(folder, parts[-1]), data)
            if parts[0] in ROOTS and name.endswith(".py"):
                lines += data.count(b"\n")
    return lines


def plant(dest, seed):
    """Write the seed's violations under ``dest``; return the expected
    ``{(rule, display path, line)}`` findings and the lines written."""
    expected = set()
    lines = 0
    for rule, tag, padding in plan(seed):
        package, sources, findings = TEMPLATES[rule]
        names = {role: f"_planted_{role}_{tag}" for role in sources}
        paths = {}
        for role, source in sources.items():
            header = "".join(f"# planted {rule} violation, line {k + 1}\n"
                             for k in range(padding[role]))
            text = header + source.replace("{task}", names.get("task", ""))
            lines += text.count("\n")
            paths[role] = f"{package}/{names[role]}.py"
            _write(os.path.join(dest, paths[role]), text.encode("utf-8"))
        for rule_id, role, line in findings:
            expected.add((rule_id, paths[role], padding[role] + line))
    return expected, lines


def materialize(dest, seed):
    """Write the corpus and plant the seed's violations; return the
    expected findings and the tree's lines of Python source.

    Over a tree an earlier call wrote for the same seed, this rewrites
    every file in place and leaves the same tree.
    """
    lines = unpack(dest)
    expected, planted = plant(dest, seed)
    return expected, lines + planted
