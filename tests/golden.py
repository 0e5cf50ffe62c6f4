"""Golden outputs of the command line: the configs under ``tests/data/golden``
and the SHA-256 of every artefact their runs make.

Each case is a directory under ``tests/data/golden``. Its ``configs/`` run as
one ``run --config configs --out out`` call, and each ``verify_*.json`` beside
it is given to ``verify --config``. A case's artefacts are every file the run
writes, and each call's stdout, stderr and exit code. The cases are copied
into a temporary root first, and that root is replaced by ``<root>`` in
every artefact, so the hashes do not depend on where the runs happen.

The ``seed*`` cases are the ``cli_batch`` configs of those seeds, round 0;
``grid34`` runs the 3x4 grid once under each strategy rule. After a change
that moves an output on purpose, rewrite the manifest from the repository
root, and list each artefact that moved and why::

    PYTHONPATH=src python tests/golden.py
"""
from __future__ import annotations

import hashlib
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from incentive_dynamics import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
MANIFEST = GOLDEN / "manifest.json"
ROOT_TOKEN = "<root>"


def _call(argv) -> tuple:
    """``cli.main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cases(root: Path) -> dict:
    """Run every case under ``root`` and return ``{artefact name: bytes}``."""
    shutil.copytree(GOLDEN, root, dirs_exist_ok=True, ignore=shutil.ignore_patterns(MANIFEST.name))
    token = str(root).encode()
    artefacts = {}
    for case in sorted(p for p in root.iterdir() if p.is_dir()):
        out = case / "out"
        calls = {"run": ["run", "--config", str(case / "configs"), "--out", str(out)]}
        for path in sorted(case.glob("verify_*.json")):
            calls[path.stem] = ["verify", "--config", str(path)]
        for name, argv in calls.items():
            code, stdout, stderr = _call(argv)
            artefacts[f"{case.name}/{name}.exit"] = str(code).encode()
            artefacts[f"{case.name}/{name}.stdout"] = stdout.encode()
            artefacts[f"{case.name}/{name}.stderr"] = stderr.encode()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            artefacts[f"{case.name}/{path.relative_to(case).as_posix()}"] = path.read_bytes()
    return {name: data.replace(token, ROOT_TOKEN.encode()) for name, data in artefacts.items()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_entry(name: str, data: bytes) -> dict:
    """An artefact's SHA-256 and, for a CSV or JSON file, the SHA-256 of each
    line, so that a mismatch can name the first line that differs."""
    entry = {"sha256": _sha(data)}
    if name.endswith((".csv", ".json")):
        entry["lines"] = [_sha(line)[:16] for line in data.splitlines()]
    return entry


def mismatches(artefacts: dict, manifest: dict) -> list:
    """One message per artefact that is missing, new or different."""
    messages = [f"{name}: missing" for name in sorted(manifest.keys() - artefacts.keys())]
    messages += [f"{name}: not in the manifest" for name in sorted(artefacts.keys() - manifest.keys())]
    for name in sorted(artefacts.keys() & manifest.keys()):
        data, want = artefacts[name], manifest[name]
        if _sha(data) == want["sha256"]:
            continue
        message = f"{name}: differs"
        if "lines" in want:
            got = manifest_entry(name, data)["lines"]
            lines = data.splitlines()
            first = next((i for i, (a, b) in enumerate(zip(got, want["lines"])) if a != b),
                         min(len(got), len(want["lines"])))
            shown = lines[first].decode(errors="replace") if first < len(lines) else "<end of file>"
            message += (f" from line {first + 1} ({len(got)} lines, manifest {len(want['lines'])}):"
                        f" {shown}")
        messages.append(message)
    return messages


def write_manifest(root: Path) -> None:
    artefacts = run_cases(root)
    entries = {name: manifest_entry(name, data) for name, data in sorted(artefacts.items())}
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_manifest(Path(tmp))
    print(f"wrote {MANIFEST}")
