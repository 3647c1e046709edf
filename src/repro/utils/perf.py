"""Perf-trajectory recording: machine-readable ``BENCH_*.json`` files.

Every measured run of the repo - a pytest-benchmark bench, a batch sweep,
the CLI - can drop its numbers into a ``BENCH_<name>.json`` file through
:func:`record_bench` / :func:`record_timing`.  The files are flat JSON,
stable-keyed and merge-updated in place, so successive runs (and
successive PRs) produce comparable artifacts that CI uploads and future
sessions diff against.  Every write stamps a ``provenance`` block (commit,
Python/NumPy/SciPy versions, CPU count, UTC time) so each number says
what produced it.

The output directory defaults to the current working directory and can be
redirected with the ``REPRO_BENCH_DIR`` environment variable (CI points it
at the artifact staging area).
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path

#: Environment variable overriding where BENCH files are written.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def bench_path(name: str, directory: str | os.PathLike | None = None) -> Path:
    """The ``BENCH_<name>.json`` path under the effective bench directory."""
    root = Path(
        directory
        if directory is not None
        else os.environ.get(BENCH_DIR_ENV, ".")
    )
    return root / f"BENCH_{name}.json"


def _load(path: Path) -> dict:
    """The JSON object in ``path``; ``{}`` when the file does not exist.

    A file that exists but holds no JSON object raises ``ValueError``:
    merging into ``{}`` would overwrite it with the new keys alone.
    """
    try:
        text = path.read_text()
    except FileNotFoundError:
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


def git_commit(start: str | os.PathLike | None = None) -> str | None:
    """The checked-out commit, read from ``.git`` without running git.

    Walks up from ``start`` (default: this module) to the nearest ``.git``
    directory and resolves ``HEAD`` through the loose refs, then
    ``packed-refs``.  ``None`` when that fails: an installed package, or a
    worktree whose ``.git`` is a file.
    """
    here = Path(start if start is not None else __file__).resolve()
    root = next((d for d in (here, *here.parents) if (d / ".git").exists()), None)
    if root is None:
        return None
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head[4:].strip()
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def provenance() -> dict:
    """What produced a measurement: commit, toolchain, CPUs and time."""
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def record_bench(
    name: str,
    payload: dict,
    directory: str | os.PathLike | None = None,
) -> Path:
    """Merge ``payload`` into ``BENCH_<name>.json`` and return its path.

    Top-level keys of ``payload`` overwrite existing ones; keys written by
    earlier runs of other benches into the same file survive, so several
    tests can share one trajectory file.  The file's ``provenance`` block
    is restamped (see :func:`provenance`) on every write.
    """
    path = bench_path(name, directory)
    data = _load(path)
    data.update(payload)
    data["provenance"] = provenance()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True, default=repr) + "\n")
    os.replace(tmp, path)
    return path


def record_timing(
    bench: str,
    measurement: str,
    seconds: float,
    directory: str | os.PathLike | None = None,
) -> Path:
    """Record one wall-clock measurement into ``BENCH_<bench>.json``.

    The shared shape future PRs inherit: ``{"timings_s": {name: seconds}}``,
    with ``"timings_provenance": {name: provenance}`` beside it.  A file
    collects timings from many runs, so each keeps the stamp of the run
    that measured it; the file-level ``provenance`` names the last write.
    """
    data = _load(bench_path(bench, directory))
    timings = data.get("timings_s", {})
    stamps = data.get("timings_provenance", {})
    timings[measurement] = seconds
    stamps[measurement] = provenance()
    return record_bench(
        bench, {"timings_s": timings, "timings_provenance": stamps}, directory
    )
