"""Byte-identity manifest: each command line in golden.json reruns to the same bytes.

golden.json maps a command line (``hjwave`` arguments, shell-quoted, with
no ``--out``) to its exit code and to the sha256 of its stdout, of its
stderr and of every file it writes.  The output directory is masked as
``OUT`` in stdout and stderr.  Exit codes do not depend on the numpy
build and are checked under any numpy; the hashes hold for the numpy
version the manifest records, and under another version their test skips
and names both.

A change that alters an output on purpose rewrites the manifest, and
names each line it changed:

    PYTHONPATH=src python tests/test_golden.py

That reruns every line already in golden.json, rewrites all hashes and
prints the lines and outputs that changed.  To add a line, add its key
with an empty object as the value and rerun.
"""

import hashlib
import json
import pathlib
import shlex
import tempfile

import numpy as np
import pytest

from test_cli import run_cli

MANIFEST = pathlib.Path(__file__).with_name("golden.json")
# lines run here, so that ``--spec golden_spec.json`` names this directory's file
WORKDIR = MANIFEST.parent


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(line: str, workdir: pathlib.Path) -> dict:
    """Run ``hjwave <line> --out <workdir>/out`` in process from this
    directory; hash what it gives."""
    out = workdir / "out"
    res = run_cli(*shlex.split(line), "--out", str(out), cwd=WORKDIR)
    files = {}
    if out.exists():
        files = {p.relative_to(out).as_posix(): _sha256(p.read_bytes())
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {
        "exit": res.returncode,
        "stdout": _sha256(res.stdout.replace(str(out), "OUT").encode()),
        "stderr": _sha256(res.stderr.replace(str(out), "OUT").encode()),
        "files": files,
    }


def outcomes(lines, workdir: pathlib.Path) -> dict:
    return {line: outcome(line, workdir / str(i))
            for i, line in enumerate(lines)}


def _changes(old: dict, new: dict) -> list[str]:
    """Name each output of ``new`` that differs from ``old``."""
    keys = ["exit", "stdout", "stderr"]
    changed = [key for key in keys if old.get(key) != new[key]]
    old_files = old.get("files", {})
    for name in sorted(set(old_files) | set(new["files"])):
        if old_files.get(name) != new["files"].get(name):
            changed.append(name)
    return changed


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    """The manifest and what each of its lines gives now, run once."""
    manifest = json.loads(MANIFEST.read_text())
    return manifest, outcomes(manifest["lines"], tmp_path_factory.mktemp("golden"))


def test_exit_codes_match_the_manifest(rerun):
    manifest, got = rerun
    differ = {line: (want["exit"], got[line]["exit"])
              for line, want in manifest["lines"].items()
              if got[line]["exit"] != want["exit"]}
    assert not differ, f"(manifest, now) exit codes by command line: {differ}"


def test_command_lines_match_the_manifest(rerun):
    manifest, got = rerun
    if manifest["numpy"] != np.__version__:
        pytest.skip(f"golden.json holds hashes made with numpy "
                    f"{manifest['numpy']}; this is numpy {np.__version__}")
    differ = {line: _changes(want, got[line])
              for line, want in manifest["lines"].items()
              if got[line] != want}
    assert not differ, f"outputs that changed, by command line: {differ}"


def regenerate() -> None:
    manifest = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        got = outcomes(manifest["lines"], pathlib.Path(tmp))
    for line, new in got.items():
        changed = _changes(manifest["lines"][line], new)
        if changed:
            print(f"{line}: {', '.join(changed)}")
    manifest = {"numpy": np.__version__, "lines": got}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
