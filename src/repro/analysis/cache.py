"""Incremental analysis cache: content-hashed per-module results.

Full-tree lint has to stay fast enough to run on every CI push and on
every ``--fix`` verification pass.  The cache keys results three ways:

- **per module** — SHA-256 of the file bytes plus the active rule set.
  A module whose content hash matches serves its module-rule findings
  (post-suppression-marking) straight from the cache, skipping parse
  and rules entirely.
- **whole program** — cross-module results (project + graph rules)
  are keyed on the *graph fingerprint*: the hash of the exact
  ``(module, content)`` set that produced them.  Any changed file
  invalidates exactly the whole-program slice, never the per-module
  entries of unchanged files.
- **engine version** — :data:`CACHE_VERSION` is bumped whenever rule
  semantics change, discarding stale caches wholesale.

The on-disk format is one JSON document.  Loading tolerates missing,
truncated, or wrong-version files by starting empty — a cache must
never be able to make analysis wrong, only slow.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import Finding

#: Bump when finding semantics change (rule rewrites, engine behaviour).
CACHE_VERSION = 2

DEFAULT_CACHE_PATH = ".repro-analysis-cache.json"


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rules_key(rule_ids: Sequence[str]) -> str:
    """Stable key for the active rule set (order-independent)."""
    return hashlib.sha256(",".join(sorted(rule_ids)).encode()).hexdigest()[:16]


def _finding_to_json(finding: Finding) -> dict[str, object]:
    return finding.as_dict()


def _finding_from_json(raw: dict[str, object]) -> Finding:
    return Finding(
        rule_id=str(raw["rule_id"]),
        path=str(raw["path"]),
        line=int(raw["line"]),  # type: ignore[call-overload]
        col=int(raw["col"]),  # type: ignore[call-overload]
        message=str(raw["message"]),
        suppressed=bool(raw.get("suppressed", False)),
    )


@dataclass
class CacheEntry:
    """Module-rule findings for one file at one content hash."""

    sha: str
    findings: list[Finding] = field(default_factory=list)


@dataclass
class AnalysisCache:
    """The whole cache: per-file entries plus the whole-program slice."""

    path: Path | None = None
    rules: str = ""
    entries: dict[str, CacheEntry] = field(default_factory=dict)
    graph_fingerprint: str | None = None
    project_findings: list[Finding] = field(default_factory=list)
    #: Run bookkeeping (not persisted): cache effectiveness counters.
    hits: int = 0
    misses: int = 0

    # -- lookups ---------------------------------------------------------

    def lookup(self, posix_path: str, sha: str) -> list[Finding] | None:
        entry = self.entries.get(posix_path)
        if entry is not None and entry.sha == sha:
            self.hits += 1
            return list(entry.findings)
        self.misses += 1
        return None

    def store(self, posix_path: str, sha: str, findings: list[Finding]) -> None:
        self.entries[posix_path] = CacheEntry(sha=sha, findings=list(findings))

    def lookup_project(self, fingerprint: str) -> list[Finding] | None:
        if self.graph_fingerprint == fingerprint:
            return list(self.project_findings)
        return None

    def store_project(self, fingerprint: str, findings: list[Finding]) -> None:
        self.graph_fingerprint = fingerprint
        self.project_findings = list(findings)

    def prune(self, live_paths: set[str]) -> None:
        """Drop entries for files no longer part of the scan."""
        for stale in set(self.entries) - live_paths:
            del self.entries[stale]

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        if self.path is None:
            return
        payload = {
            "version": CACHE_VERSION,
            "rules": self.rules,
            "graph_fingerprint": self.graph_fingerprint,
            "project_findings": [_finding_to_json(f) for f in self.project_findings],
            "entries": {
                path: {
                    "sha": entry.sha,
                    "findings": [_finding_to_json(f) for f in entry.findings],
                }
                for path, entry in sorted(self.entries.items())
            },
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
        tmp.replace(self.path)


def load_cache(path: str | Path | None, active_rules: Sequence[str]) -> AnalysisCache:
    """Load (or initialize) the cache for the given rule set.

    A cache written under a different engine version or rule set is
    discarded — same path, fresh content.
    """
    key = rules_key(active_rules)
    cache_path = Path(path) if path is not None else None
    cache = AnalysisCache(path=cache_path, rules=key)
    if cache_path is None or not cache_path.is_file():
        return cache
    try:
        raw = json.loads(cache_path.read_text(encoding="utf-8"))
        if raw.get("version") != CACHE_VERSION or raw.get("rules") != key:
            return cache
        cache.graph_fingerprint = raw.get("graph_fingerprint")
        cache.project_findings = [_finding_from_json(f) for f in raw.get("project_findings", [])]
        for posix_path, entry in raw.get("entries", {}).items():
            cache.entries[posix_path] = CacheEntry(
                sha=str(entry["sha"]),
                findings=[_finding_from_json(f) for f in entry.get("findings", [])],
            )
    except (OSError, ValueError, KeyError, TypeError):
        return AnalysisCache(path=cache_path, rules=key)
    return cache
