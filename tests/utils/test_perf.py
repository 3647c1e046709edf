"""BENCH-file recording tests: merge semantics and provenance stamps."""

import json
import os
import platform
from datetime import datetime

import numpy as np
import scipy

from repro.utils.perf import git_commit, record_bench, record_timing

SHA = "0123456789abcdef0123456789abcdef01234567"
OTHER = "fedcba9876543210fedcba9876543210fedcba98"


def _repo(tmp_path, head, refs=None, packed=None):
    git = tmp_path / "repo" / ".git"
    git.mkdir(parents=True)
    (git / "HEAD").write_text(head + "\n")
    for ref, sha in (refs or {}).items():
        (git / ref).parent.mkdir(parents=True, exist_ok=True)
        (git / ref).write_text(sha + "\n")
    if packed:
        lines = ["# pack-refs with: peeled fully-peeled sorted"]
        lines += [f"{sha} {ref}" for ref, sha in packed.items()]
        (git / "packed-refs").write_text("\n".join(lines) + "\n")
    nested = tmp_path / "repo" / "src" / "pkg"
    nested.mkdir(parents=True)
    return git, nested / "module.py"


class TestGitCommit:
    def test_branch_head_from_loose_ref(self, tmp_path):
        _, start = _repo(
            tmp_path, "ref: refs/heads/main", refs={"refs/heads/main": SHA}
        )
        assert git_commit(start) == SHA

    def test_loose_ref_wins_over_packed_ref(self, tmp_path):
        _, start = _repo(
            tmp_path,
            "ref: refs/heads/main",
            refs={"refs/heads/main": SHA},
            packed={"refs/heads/main": OTHER},
        )
        assert git_commit(start) == SHA

    def test_branch_head_from_packed_refs(self, tmp_path):
        _, start = _repo(
            tmp_path,
            "ref: refs/heads/main",
            packed={"refs/remotes/origin/main": OTHER, "refs/heads/main": SHA},
        )
        assert git_commit(start) == SHA

    def test_detached_head(self, tmp_path):
        _, start = _repo(tmp_path, SHA)
        assert git_commit(start) == SHA

    def test_gitdir_file_is_none(self, tmp_path):
        (tmp_path / ".git").write_text("gitdir: /elsewhere\n")
        assert git_commit(tmp_path / "x.py") is None

    def test_unresolvable_ref_is_none(self, tmp_path):
        _, start = _repo(tmp_path, "ref: refs/heads/gone")
        assert git_commit(start) is None

    def test_this_checkout(self):
        commit = git_commit()
        # run from a git checkout: a full hex sha; from an install: None
        assert commit is None or (len(commit) == 40 and int(commit, 16) >= 0)


class TestRecordBench:
    def test_every_write_carries_provenance(self, tmp_path):
        path = record_bench("demo", {"speedup": 3.5}, directory=tmp_path)
        data = json.loads(path.read_text())
        assert data["speedup"] == 3.5
        prov = data["provenance"]
        assert set(prov) == {"commit", "python", "numpy", "scipy", "cpu_count", "utc"}
        assert prov["commit"] == git_commit()
        assert prov["python"] == platform.python_version()
        assert prov["numpy"] == np.__version__
        assert prov["scipy"] == scipy.__version__
        assert prov["cpu_count"] == os.cpu_count()
        stamp = datetime.fromisoformat(prov["utc"])
        assert stamp.utcoffset().total_seconds() == 0

    def test_merge_keeps_other_keys_and_restamps(self, tmp_path):
        record_bench("demo", {"a": 1}, directory=tmp_path)
        path = record_bench("demo", {"b": 2}, directory=tmp_path)
        data = json.loads(path.read_text())
        assert (data["a"], data["b"]) == (1, 2)
        assert "provenance" in data

    def test_record_timing_is_stamped(self, tmp_path):
        record_timing("suite", "first", 1.5, directory=tmp_path)
        path = record_timing("suite", "second", 2.5, directory=tmp_path)
        data = json.loads(path.read_text())
        assert data["timings_s"] == {"first": 1.5, "second": 2.5}
        assert data["provenance"]["cpu_count"] == os.cpu_count()
