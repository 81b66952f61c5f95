"""On-disk persistence for pipeline stage outputs.

An :class:`ArtifactStore` manages one artifact directory::

    <root>/
      config.json          # the RunConfig that produced the artifacts
      manifest.json        # stage -> {fingerprint, metadata}; completion marks
      data/                # dataset TSVs (repro.data.io) + split.json
      kg/                  # statistics.json; the graph is rebuilt from data/
      embed/               # transe.npz + losses.json
      cggnn/               # representations.npz + losses.json
      train/               # policy.npz + history.json
      eval/                # metrics.json
      serve-check/         # report.json

A stage is *complete* iff the manifest records a fingerprint for it; the
pipeline compares that fingerprint against the current
:meth:`RunConfig.stage_fingerprints` entry to decide whether the persisted
artifact can be reused.  Manifest writes go through a temp-file rename so a
crash mid-write never leaves a truncated manifest behind; a stale
``manifest.json.tmp`` left by such a crash is swept on the next read.

**Integrity.**  :meth:`complete` records a blake2b checksum of every file in
the stage directory alongside the fingerprint.  :meth:`load` re-hashes those
files and refuses to serve silent corruption: a generation whose bytes no
longer match is *quarantined* (a ``quarantined.json`` marker; the files stay
put for forensics) and loading falls back to the newest generation that still
verifies.  Stores written before checksums existed verify vacuously, so legacy
artifacts load unchanged.

**Generations.**  Live refreshes (``repro.live``) produce successive artifact
*generations* of the same run: the root directory is generation 0 and every
refresh lands under ``<root>/generations/<N>/`` as a full nested store whose
manifest carries a monotonically-increasing ``generation`` field.  Stores
written before generations existed have no ``generation`` key and read as
generation 0, so single-generation stores load unchanged;
:meth:`ArtifactStore.load` defaults to the latest generation.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import ArtifactError

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.json"
GENERATIONS_DIR = "generations"
QUARANTINE_NAME = "quarantined.json"

#: blake2b digest size (bytes) for artifact checksums — 128 bits is plenty to
#: catch corruption and keeps manifests readable.
CHECKSUM_BYTES = 16


def checksum_file(path: PathLike) -> str:
    """Hex blake2b digest of one file's bytes (the manifest checksum format)."""
    digest = hashlib.blake2b(digest_size=CHECKSUM_BYTES)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ArtifactStore:
    """Directory-backed storage of per-stage artifacts with a manifest.

    Construction is side-effect free — directories appear on the first write
    (``begin``/``save_*``/``complete``), never on read paths, so probing a
    mistyped path with :func:`~repro.pipeline.load_pipeline` leaves no litter.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def config_path(self) -> Path:
        return self.root / CONFIG_NAME

    def read_manifest(self) -> Dict[str, Any]:
        stale = self.manifest_path.with_suffix(".json.tmp")
        if stale.exists():
            # Crash litter from an interrupted _write_manifest: the rename
            # never happened, so the tmp holds an untrusted partial write.
            stale.unlink()
        if not self.manifest_path.exists():
            return {"stages": {}}
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise ArtifactError(f"corrupt manifest: {error}",
                                path=self.manifest_path) from error
        if not isinstance(manifest, dict):
            raise ArtifactError("corrupt manifest: expected a JSON object",
                                path=self.manifest_path)
        manifest.setdefault("stages", {})
        return manifest

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.manifest_path)

    def fingerprint_of(self, stage: str) -> Optional[str]:
        """The recorded fingerprint of a completed stage (None if absent)."""
        entry = self.read_manifest()["stages"].get(stage)
        return entry["fingerprint"] if entry else None

    def is_complete(self, stage: str, fingerprint: str) -> bool:
        """Whether ``stage`` finished under exactly this fingerprint."""
        return self.fingerprint_of(stage) == fingerprint

    def metadata_of(self, stage: str) -> Dict[str, Any]:
        entry = self.read_manifest()["stages"].get(stage) or {}
        return dict(entry.get("metadata", {}))

    # ------------------------------------------------------------------ #
    # stage lifecycle
    # ------------------------------------------------------------------ #
    def stage_dir(self, stage: str) -> Path:
        return self.root / stage

    def begin(self, stage: str) -> Path:
        """Invalidate ``stage`` (drop its completion mark) and return its dir.

        The stage directory is created but deliberately not wiped: partially
        written files are harmless because completion is manifest-gated.
        """
        manifest = self.read_manifest()
        if stage in manifest["stages"]:
            del manifest["stages"][stage]
            self._write_manifest(manifest)
        directory = self.stage_dir(stage)
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def write_config(self, text: str) -> None:
        """Persist the run configuration next to the manifest."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(text)

    def complete(self, stage: str, fingerprint: str,
                 metadata: Optional[Dict[str, Any]] = None) -> None:
        """Record ``stage`` as complete under ``fingerprint``.

        Every file currently in the stage directory gets a blake2b checksum
        recorded next to the fingerprint — the integrity baseline that
        :meth:`verify_stage` / :meth:`load` later re-check.
        """
        manifest = self.read_manifest()
        manifest["stages"][stage] = {"fingerprint": fingerprint,
                                     "metadata": metadata or {},
                                     "checksums": self._stage_checksums(stage)}
        self._write_manifest(manifest)

    def _stage_checksums(self, stage: str) -> Dict[str, str]:
        """Relative-path → blake2b digest for every file under the stage dir."""
        directory = self.stage_dir(stage)
        if not directory.is_dir():
            return {}
        return {path.relative_to(directory).as_posix(): checksum_file(path)
                for path in sorted(directory.rglob("*")) if path.is_file()}

    # ------------------------------------------------------------------ #
    # integrity: verification & quarantine
    # ------------------------------------------------------------------ #
    def verify_stage(self, stage: str) -> List[Tuple[str, str]]:
        """Re-hash a completed stage's files against the manifest.

        Returns ``(relative_path, problem)`` pairs — empty means verified.
        Stages recorded before checksums existed (no ``checksums`` key)
        verify vacuously; files on disk that were never recorded are ignored
        (``begin`` deliberately does not wipe stale partials).
        """
        entry = self.read_manifest()["stages"].get(stage)
        if not entry or "checksums" not in entry:
            return []
        directory = self.stage_dir(stage)
        problems: List[Tuple[str, str]] = []
        for name in sorted(entry["checksums"]):
            expected = entry["checksums"][name]
            path = directory / name
            if not path.is_file():
                problems.append((name, "missing"))
            elif checksum_file(path) != expected:
                problems.append((name, "checksum mismatch"))
        return problems

    def checksum_mismatches(self) -> List[Tuple[str, str, str]]:
        """Every integrity problem across all completed stages.

        Returns ``(stage, relative_path, problem)`` triples, in sorted stage
        order so reports (and the quarantine reason built from them) are
        deterministic.
        """
        manifest = self.read_manifest()
        problems: List[Tuple[str, str, str]] = []
        for stage in sorted(manifest["stages"]):
            for name, problem in self.verify_stage(stage):
                problems.append((stage, name, problem))
        return problems

    def verify_files(self) -> None:
        """Raise :class:`ArtifactError` if any recorded checksum no longer holds."""
        problems = self.checksum_mismatches()
        if problems:
            stage, name, problem = problems[0]
            raise ArtifactError(
                f"artifact verification failed: {problem} for {stage}/{name}"
                + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""),
                path=self.stage_dir(stage) / name)

    @property
    def quarantine_path(self) -> Path:
        return self.root / QUARANTINE_NAME

    @property
    def is_quarantined(self) -> bool:
        return self.quarantine_path.exists()

    def quarantine_reason(self) -> Optional[str]:
        if not self.is_quarantined:
            return None
        try:
            return str(json.loads(self.quarantine_path.read_text())["reason"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return "unreadable quarantine marker"

    def quarantine(self, reason: str) -> None:
        """Mark this store as untrusted (files stay put for forensics).

        Quarantined generations disappear from :meth:`list_generations` and
        :meth:`load`'s fallback walk; asking for one explicitly raises.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantine_path.write_text(json.dumps(
            {"reason": reason, "generation": self.generation},
            indent=2, sort_keys=True) + "\n")

    # ------------------------------------------------------------------ #
    # generations
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """This store's generation number (0 for pre-generation stores)."""
        return int(self.read_manifest().get("generation", 0))

    def list_generations(self, include_quarantined: bool = False) -> List[int]:
        """All usable generations persisted under this store, ascending.

        Generation 0 is the root itself (listed once it has a manifest);
        higher generations are the nested stores under ``generations/``.
        Quarantined generations are excluded unless asked for.
        """
        generations = []
        if self.manifest_path.exists():
            if include_quarantined or not self.is_quarantined:
                generations.append(self.generation)
        base = self.root / GENERATIONS_DIR
        if base.is_dir():
            for child in base.iterdir():
                if not child.name.isdigit() or not (child / MANIFEST_NAME).exists():
                    continue
                if not include_quarantined and (child / QUARANTINE_NAME).exists():
                    continue
                generations.append(int(child.name))
        return sorted(set(generations))

    def latest_generation(self) -> int:
        """The newest usable generation (0 for an empty or legacy store)."""
        generations = self.list_generations()
        return generations[-1] if generations else 0

    def generation_store(self, generation: int) -> "ArtifactStore":
        """The (possibly not yet written) store of one generation."""
        if generation < 0:
            raise ValueError("generation must be non-negative")
        if generation == self.generation:
            return self
        return ArtifactStore(self.root / GENERATIONS_DIR / str(generation))

    def load(self, generation: Optional[int] = None, *,
             verify: bool = True) -> "ArtifactStore":
        """The store holding ``generation``'s artifacts (default: latest).

        With ``verify`` (the default) every recorded checksum is re-checked.
        When no explicit generation is requested, a generation that fails
        verification is quarantined and the walk falls back to the next
        newest one that still verifies — serving boots from the newest
        *trustworthy* artifacts instead of crashing on corruption.  Asking
        for a specific generation that is corrupt or quarantined raises
        :class:`ArtifactError`; a generation that was never persisted raises
        ``FileNotFoundError``, so a typo fails loudly instead of reading
        stale arrays.
        """
        if generation is not None:
            known = self.list_generations(include_quarantined=True)
            if generation not in known and generation != 0:
                raise FileNotFoundError(
                    f"generation {generation} not found under {self.root} "
                    f"(have {known or [0]})")
            store = self.generation_store(generation)
            if store.is_quarantined:
                raise ArtifactError(
                    f"generation {generation} is quarantined: "
                    f"{store.quarantine_reason()}", path=store.root)
            if verify:
                store.verify_files()
            return store
        candidates = self.list_generations()
        if not candidates:
            return self.generation_store(0)  # empty or legacy store
        for number in reversed(candidates):
            store = self.generation_store(number)
            if not verify:
                return store
            problems = store.checksum_mismatches()
            if not problems:
                return store
            stage, name, problem = problems[0]
            store.quarantine(f"{problem} for {stage}/{name}"
                             + (f" (+{len(problems) - 1} more)"
                                if len(problems) > 1 else ""))
        raise ArtifactError(
            f"no generation under {self.root} passes verification "
            f"(all {len(candidates)} quarantined)", path=self.root)

    def begin_generation(self) -> "ArtifactStore":
        """Open the next generation and return its (empty) nested store.

        The generation number is stamped into the nested manifest immediately
        so a crash between ``begin_generation`` and the first stage write
        still leaves a well-formed (just incomplete) generation behind.
        Quarantined generations still reserve their numbers, so a refresh
        after a corruption event never collides with the quarantined dir.
        """
        existing = self.list_generations(include_quarantined=True)
        generation = (existing[-1] if existing else 0) + 1
        store = self.generation_store(generation)
        manifest = store.read_manifest()
        manifest["generation"] = generation
        store._write_manifest(manifest)
        return store

    # ------------------------------------------------------------------ #
    # payload helpers
    # ------------------------------------------------------------------ #
    def save_json(self, stage: str, name: str, payload: Any) -> Path:
        path = self.stage_dir(stage) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                   default=_json_default) + "\n")
        return path

    def load_json(self, stage: str, name: str) -> Any:
        path = self.stage_dir(stage) / name
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ArtifactError(f"corrupt JSON artifact: {error}",
                                path=path) from error

    def save_arrays(self, stage: str, name: str,
                    arrays: Dict[str, np.ndarray]) -> Path:
        """Persist named arrays as one ``.npz`` (names may contain dots)."""
        path = self.stage_dir(stage) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        return path

    def load_arrays(self, stage: str, name: str) -> Dict[str, np.ndarray]:
        with np.load(self.stage_dir(stage) / name) as archive:
            return {key: np.array(archive[key]) for key in archive.files}

    def has_file(self, stage: str, name: str) -> bool:
        return (self.stage_dir(stage) / name).exists()


def _json_default(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value)!r}")
