"""Paper-profile artifacts, built once per checkout before any timed run.

The serve workloads boot from a persisted paper-profile pipeline, as an
operator would.  The directory is keyed by the ``train``-stage fingerprint of
``RunConfig.from_profile("paper")`` plus a digest of the ``src/repro`` tree,
so a changed program never serves artifacts another version trained.  The
build runs in a child interpreter (its time and memory never reach a metric)
into a temporary directory that is renamed into place only when complete.

Run directly, ``python3 perfbench/artifacts.py BUILD_DIR`` trains and saves
the paper-profile pipeline into ``BUILD_DIR``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

#: Where per-checkout benchmark state lives (ignored by git).
STATE_DIR = ".perfbench"
BUILD_TIMEOUT_S = 850


def tree_digest(package: Path) -> str:
    """sha256 over every source file of ``package`` (paths and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        digest.update(path.relative_to(package).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def artifact_key(root: Path) -> str:
    from repro.pipeline import RunConfig

    train = RunConfig.from_profile("paper").stage_fingerprints()["train"]
    return hashlib.sha256(
        f"{train}:{tree_digest(root / 'src' / 'repro')}".encode("utf-8")
    ).hexdigest()[:20]


def ensure_artifacts(root: Path) -> Path:
    """The ready artifact directory for this checkout, building it if absent."""
    target = root / STATE_DIR / "artifacts" / artifact_key(root)
    if (target / "READY").exists():
        return target
    building = target.with_name(target.name + f".build-{os.getpid()}")
    shutil.rmtree(building, ignore_errors=True)
    building.parent.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), str(building)],
                       cwd=root, check=True, timeout=BUILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        (building / "READY").write_text("ok\n")
        try:
            building.rename(target)
        except OSError:
            if not (target / "READY").exists():  # lost no race: a real failure
                raise
    finally:
        shutil.rmtree(building, ignore_errors=True)
    return target


def _build(directory: Path) -> None:
    from repro.pipeline import Pipeline, RunConfig

    result = Pipeline(RunConfig.from_profile("paper"), store=directory).run()
    if not result.serve_report["ok"]:
        raise SystemExit(f"serve-check failed: {result.serve_report['mismatches']}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    _build(Path(sys.argv[1]))
