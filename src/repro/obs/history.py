"""Persistent run history: the fleet observatory's append-only store.

Every per-run artefact this repo ships (manifests, Prometheus
textfiles, Chrome traces, ``BENCH_*.json`` records) is write-once and
fire-and-forget: nothing correlates runs across time, git revisions or
cache states.  This module is the missing layer — a directory of
append-only JSONL *segments* plus a rebuildable ``index.json``, written
to by every CLI command (``--history-dir DIR`` or the
``AFDX_HISTORY_DIR`` environment variable) and by the bench scripts,
and queried by ``afdx obs list/show/diff/drift``.

Record anatomy (schema :data:`HISTORY_SCHEMA_VERSION`)
------------------------------------------------------

A :func:`build_run_record` record has two halves:

* a **deterministic core** — command, configuration identity and
  digest, the bounds digest, the cost-ledger ``work`` signature and
  the recorded options.  :func:`deterministic_view` extracts it, and
  the contract is byte-stability: the core of two runs of the same
  configuration is identical across ``PYTHONHASHSEED``, ``--jobs N``
  and cache states (the same invariant the analyzers guarantee for
  the bounds themselves);
* a **volatile shell** — ``run_id``, ``recorded_at`` timestamp,
  ``git_rev``, wall times, cache tallies, execution shape (jobs, shm,
  warm-pool reuse, fleet telemetry summary).  Provenance, legitimately
  different per run, and excluded from the deterministic view.

The split is what makes *drift detection* sound: at a fixed
``config_digest`` the ``bounds_digest`` must never change — across
time, git revisions, worker counts or cache states.  A change is a
soundness tripwire (:func:`drift_report`), generalizing
``scripts/bench_gate.py``'s committed baselines into continuous
telemetry.  Work-counter growth at a fixed config digest is reported
the same way the bench gate reports ``more-work``: a real algorithmic
change, flagged for review.

Storage contract
----------------

* appends are **atomic**: one newline-terminated JSON document written
  with a single ``O_APPEND`` write, so concurrent writers (workers of
  one fleet, parallel CI shards sharing a directory) interleave whole
  records, never torn ones;
* segments rotate at :data:`SEGMENT_RECORDS` records so no file grows
  without bound; segment names sort chronologically;
* ``index.json`` is a cache, rewritten atomically (temp file +
  ``os.replace``) after each append; readers fall back to scanning the
  segments when it is missing or stale, so a crashed writer can never
  wedge the store.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import hashlib

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "SEGMENT_RECORDS",
    "ENV_HISTORY_DIR",
    "ENV_GIT_REV",
    "RunHistory",
    "analysis_bounds_digest",
    "build_run_record",
    "cache_summary",
    "deterministic_view",
    "diff_runs",
    "drift_report",
    "git_revision",
    "render_drift_report",
    "render_run",
    "render_run_diff",
    "resolve_history_dir",
    "validate_run_record",
]

#: Bumped whenever the record shape changes incompatibly.
HISTORY_SCHEMA_VERSION = 1

#: Records per segment before the store rotates to a fresh file.
SEGMENT_RECORDS = 512

#: Environment fallback for the CLI's ``--history-dir`` flag.
ENV_HISTORY_DIR = "AFDX_HISTORY_DIR"

#: Overrides the recorded git revision (tests and CI shards use it to
#: pin provenance without creating commits).
ENV_GIT_REV = "AFDX_GIT_REV"

#: Top-level record keys excluded from :func:`deterministic_view`
#: (provenance and execution shape, legitimately different per run).
VOLATILE_FIELDS = (
    "run_id",
    "recorded_at",
    "git_rev",
    "wall",
    "cache",
    "execution",
    "error",
)

#: Uniqueness counter folded into run ids (two identical runs recorded
#: in the same second by the same process still get distinct ids).
_RUN_COUNTER = 0


# ----------------------------------------------------------------------
# Provenance helpers
# ----------------------------------------------------------------------


def resolve_history_dir(flag: Optional[str] = None) -> Optional[str]:
    """The history directory: explicit flag > AFDX_HISTORY_DIR > None."""
    if flag:
        return str(flag)
    env = os.environ.get(ENV_HISTORY_DIR, "").strip()
    return env or None


def git_revision(repo: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The short git revision to stamp records with (best-effort).

    ``AFDX_GIT_REV`` wins when set — tests and CI shards use it to
    simulate runs "at different revisions" without creating commits.
    Outside a git checkout the stamp is simply absent.
    """
    env = os.environ.get(ENV_GIT_REV, "").strip()
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo) if repo is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _utc_now() -> str:
    from datetime import datetime, timezone

    # repro-lint: allow[REPRO105] run provenance timestamp (volatile shell), never an analysis input
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def analysis_bounds_digest(nc_result, trajectory_result) -> str:
    """One lossless hash over every path's NC and trajectory bound.

    Same encoding as :class:`repro.batch.corpus.CorpusRecord`: packed
    IEEE-754 doubles over the sorted path keys, so two runs produced
    bit-identical bounds *iff* their digests match.  This is the value
    ``afdx obs drift`` compares at fixed config digests.
    """
    digest = hashlib.sha256()
    for key in sorted(nc_result.paths):
        digest.update(repr(key).encode())
        digest.update(
            struct.pack(
                "<2d",
                nc_result.paths[key].total_us,
                trajectory_result.paths[key].total_us,
            )
        )
    return digest.hexdigest()


def cache_summary(
    analyzers: Mapping[str, Optional[Mapping[str, object]]]
) -> Dict[str, Dict[str, int]]:
    """Per-analyzer flattened cache tallies from a ``stats`` collection.

    The volatile counterpart of :func:`repro.obs.costmodel.work_summary`:
    ``{analyzer: {"<namespace>.hits": h, "<namespace>.misses": m}}``
    pulled from each ledger's (non-deterministic) ``cache`` section.
    """
    summary: Dict[str, Dict[str, int]] = {}
    for name in sorted(analyzers or {}):
        stats = analyzers[name]
        if not isinstance(stats, Mapping):
            continue
        cost = stats.get("cost")
        if not isinstance(cost, Mapping):
            continue
        cache = cost.get("cache")
        if not isinstance(cache, Mapping):
            continue
        flat: Dict[str, int] = {}
        for namespace, tally in sorted(dict(cache).items()):
            tally = dict(tally)
            flat[f"{namespace}.hits"] = int(tally.get("hits", 0))
            flat[f"{namespace}.misses"] = int(tally.get("misses", 0))
        if flat:
            summary[str(name)] = flat
    return summary


# ----------------------------------------------------------------------
# Record assembly / validation
# ----------------------------------------------------------------------


def build_run_record(
    command: str,
    status: str = "ok",
    config: Optional[Mapping[str, object]] = None,
    config_digest: Optional[str] = None,
    bounds_digest: Optional[str] = None,
    work: Optional[Mapping[str, Mapping[str, int]]] = None,
    cache: Optional[Mapping[str, Mapping[str, int]]] = None,
    execution: Optional[Mapping[str, object]] = None,
    options: Optional[Mapping[str, object]] = None,
    wall_ms: Optional[float] = None,
    error: Optional[str] = None,
    git_rev: Optional[str] = None,
    recorded_at: Optional[str] = None,
) -> Dict[str, object]:
    """Assemble one schema-conformant run record (not yet stored).

    ``work`` is the deterministic cost-ledger signature
    (:func:`repro.obs.costmodel.work_summary` shape: analyzer ->
    counter -> int); ``cache`` the per-analyzer hit/miss tallies;
    ``execution`` the run shape (jobs, shm, fleet summary).
    ``git_rev`` / ``recorded_at`` default to live provenance — tests
    pass explicit values to pin them.
    """
    global _RUN_COUNTER
    recorded = recorded_at if recorded_at is not None else _utc_now()
    rev = git_rev if git_rev is not None else git_revision()
    record: Dict[str, object] = {
        "history_schema": HISTORY_SCHEMA_VERSION,
        "command": str(command),
        "status": str(status),
        "recorded_at": recorded,
    }
    if rev is not None:
        record["git_rev"] = str(rev)
    if config is not None:
        record["config"] = dict(config)
    if config_digest is not None:
        record["config_digest"] = str(config_digest)
    if bounds_digest is not None:
        record["bounds_digest"] = str(bounds_digest)
    if work:
        record["work"] = {
            str(name): {str(k): int(v) for k, v in sorted(dict(counters).items())}
            for name, counters in sorted(dict(work).items())
        }
    if cache:
        record["cache"] = {
            str(name): {str(k): int(v) for k, v in sorted(dict(tally).items())}
            for name, tally in sorted(dict(cache).items())
        }
    if execution:
        record["execution"] = dict(execution)
    if options:
        record["options"] = {
            str(key): options[key] for key in sorted(options)
        }
    if wall_ms is not None:
        record["wall"] = {"total_ms": round(float(wall_ms), 3)}
    if error is not None:
        record["error"] = str(error)
    _RUN_COUNTER += 1
    seed = hashlib.sha256()
    # repro-lint: allow[REPRO502] run_id must be unique per run: salted with time/pid by design
    seed.update(recorded.encode())
    seed.update(str(os.getpid()).encode())
    seed.update(str(_RUN_COUNTER).encode())
    # repro-lint: allow[REPRO502,REPRO503] deterministic_view() strips every volatile field first
    seed.update(
        json.dumps(deterministic_view(record), sort_keys=True).encode()
    )
    compact = recorded.replace("-", "").replace(":", "")
    record["run_id"] = f"{compact}-{seed.hexdigest()[:10]}"
    return record


def deterministic_view(record: Mapping[str, object]) -> Dict[str, object]:
    """The byte-stable core of a record: minus every volatile field.

    What remains — command, config identity/digest, bounds digest,
    ``work`` signature, options — must be byte-identical (canonical
    JSON) for reruns of the same configuration across
    ``PYTHONHASHSEED``, ``--jobs`` and cache states.
    """
    return {
        key: record[key]
        for key in sorted(record)
        if key not in VOLATILE_FIELDS
    }


def _fail(path: str, message: str) -> None:
    raise ValueError(f"invalid run record at {path}: {message}")


def validate_run_record(record: Mapping[str, object]) -> None:
    """Raise :class:`ValueError` unless ``record`` matches the schema."""
    if not isinstance(record, Mapping):
        raise ValueError("run record must be an object")
    version = record.get("history_schema")
    if not isinstance(version, int) or isinstance(version, bool):
        _fail("$.history_schema", "missing or non-integer")
    if version != HISTORY_SCHEMA_VERSION:
        _fail("$.history_schema", f"unsupported version {version}")
    for key in ("command", "status", "recorded_at", "run_id"):
        value = record.get(key)
        if not isinstance(value, str) or not value:
            _fail(f"$.{key}", "missing or empty string")
    if record["status"] not in ("ok", "error"):
        _fail("$.status", f"must be 'ok' or 'error', got {record['status']!r}")
    for key in ("config_digest", "bounds_digest", "git_rev", "error"):
        if key in record and not isinstance(record[key], str):
            _fail(f"$.{key}", "must be a string")
    for key in ("config", "cache", "execution", "options", "wall", "work"):
        if key in record and not isinstance(record[key], Mapping):
            _fail(f"$.{key}", "must be an object")
    for name, counters in dict(record.get("work", {})).items():
        if not isinstance(counters, Mapping):
            _fail(f"$.work.{name}", "must be an object")
        for counter, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool):
                _fail(f"$.work.{name}.{counter}", "must be an integer")


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class RunHistory:
    """Append-only run store under one directory (see module docstring).

    Layout::

        <root>/index.json                  # rebuildable summary cache
        <root>/segments/seg-000001.jsonl   # SEGMENT_RECORDS records max
        <root>/segments/seg-000002.jsonl

    The class is cheap to construct; queries scan the JSONL segments
    (newest segment last, line order preserved within a segment).
    """

    def __init__(
        self,
        root: Union[str, Path],
        segment_records: int = SEGMENT_RECORDS,
    ) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.index_path = self.root / "index.json"
        if segment_records < 1:
            raise ValueError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        self.segment_records = segment_records

    # -- writing -------------------------------------------------------

    def append(self, record: Mapping[str, object]) -> Dict[str, object]:
        """Validate and atomically append ``record``; returns it.

        The write is a single ``O_APPEND`` ``write(2)`` of one
        newline-terminated canonical-JSON line — concurrent appenders
        interleave whole records.  The index refresh afterwards is
        best-effort (it is a cache; see :meth:`_refresh_index`).
        """
        stored = dict(record)
        validate_run_record(stored)
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        segment = self._active_segment()
        line = json.dumps(stored, sort_keys=True, separators=(",", ":")) + "\n"
        fd = os.open(
            str(segment), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        self._refresh_index()
        return stored

    def _segment_name(self, number: int) -> str:
        return f"seg-{number:06d}.jsonl"

    def _active_segment(self) -> Path:
        """The segment the next append lands in (rotating when full)."""
        segments = self.segment_paths()
        if not segments:
            return self.segments_dir / self._segment_name(1)
        last = segments[-1]
        if _count_lines(last) >= self.segment_records:
            number = _segment_number(last) + 1
            return self.segments_dir / self._segment_name(number)
        return last

    def _refresh_index(self) -> None:
        """Rewrite ``index.json`` atomically; failures never propagate.

        The index is a pure cache of the segment files — a reader that
        finds it missing or stale rebuilds its answer from the
        segments, so a torn writer cannot corrupt queries.
        """
        entries = []
        total = 0
        for segment in self.segment_paths():
            records = list(_iter_segment(segment))
            total += len(records)
            entries.append(
                {
                    "segment": segment.name,
                    "records": len(records),
                    "first_run_id": records[0].get("run_id") if records else None,
                    "last_run_id": records[-1].get("run_id") if records else None,
                }
            )
        payload = {
            "history_schema": HISTORY_SCHEMA_VERSION,
            "total_records": total,
            "segments": entries,
        }
        try:
            fd, tmp = tempfile.mkstemp(
                dir=str(self.root), suffix=".tmp", prefix="index.json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(json.dumps(payload, indent=2) + "\n")
                os.replace(tmp, self.index_path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    # -- reading -------------------------------------------------------

    def segment_paths(self) -> List[Path]:
        """Existing segment files, oldest first (name order)."""
        if not self.segments_dir.is_dir():
            return []
        return sorted(self.segments_dir.glob("seg-*.jsonl"))

    def index(self) -> Dict[str, object]:
        """The index document (loaded, or rebuilt from the segments)."""
        try:
            payload = json.loads(self.index_path.read_text())
        except (OSError, ValueError):
            payload = None
        if isinstance(payload, dict) and "segments" in payload:
            return payload
        self._refresh_index()
        try:
            return json.loads(self.index_path.read_text())
        except (OSError, ValueError):
            return {
                "history_schema": HISTORY_SCHEMA_VERSION,
                "total_records": len(self.records()),
                "segments": [],
            }

    def records(
        self,
        command: Optional[str] = None,
        config_digest: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """All records in append order, optionally filtered.

        ``limit`` keeps the *newest* N records after filtering (the
        shape ``afdx obs list`` wants).  Lines that fail to parse or
        validate are skipped — a torn foreign write must not take the
        whole store down.
        """
        out: List[Dict[str, object]] = []
        for segment in self.segment_paths():
            for record in _iter_segment(segment):
                if command is not None and record.get("command") != command:
                    continue
                if (
                    config_digest is not None
                    and record.get("config_digest") != config_digest
                ):
                    continue
                out.append(record)
        if limit is not None and limit >= 0:
            out = out[-limit:] if limit else []
        return out

    def get(self, run_id: str) -> Optional[Dict[str, object]]:
        """The record with ``run_id`` (prefix match accepted), or None.

        A unique prefix resolves like an abbreviated git hash; the
        hash part after the timestamp (what ``obs list`` readers will
        naturally copy) also resolves by prefix.  An ambiguous prefix
        raises :class:`ValueError`.
        """

        def _hit(full: str) -> bool:
            if full.startswith(run_id):
                return True
            _stamp, dash, digest = full.partition("-")
            return bool(dash) and digest.startswith(run_id)

        matches = [
            record
            for record in self.records()
            if _hit(str(record.get("run_id", "")))
        ]
        exact = [r for r in matches if r.get("run_id") == run_id]
        if exact:
            return exact[-1]
        if len(matches) > 1:
            ids = ", ".join(sorted(str(r["run_id"]) for r in matches))
            raise ValueError(f"ambiguous run id {run_id!r}: matches {ids}")
        return matches[0] if matches else None


def _segment_number(path: Path) -> int:
    stem = path.stem  # "seg-000001"
    try:
        return int(stem.split("-", 1)[1])
    except (IndexError, ValueError):
        return 0


def _count_lines(path: Path) -> int:
    try:
        with open(path, "rb") as handle:
            return sum(1 for _ in handle)
    except OSError:
        return 0


def _iter_segment(path: Path) -> Iterable[Dict[str, object]]:
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            validate_run_record(record)
        except ValueError:
            continue
        yield record


# ----------------------------------------------------------------------
# Queries: diff and drift
# ----------------------------------------------------------------------


def _flat_work(record: Mapping[str, object]) -> Dict[str, int]:
    """``analyzer.counter -> value`` from a record's work signature."""
    flat: Dict[str, int] = {}
    for analyzer, counters in sorted(dict(record.get("work", {})).items()):
        for counter, value in sorted(dict(counters).items()):
            flat[f"{analyzer}.{counter}"] = int(value)
    return flat


def diff_runs(
    a: Mapping[str, object], b: Mapping[str, object]
) -> Dict[str, object]:
    """Structured comparison of two run records.

    Compares the soundness handle (bounds digests), the configuration
    identity and the deterministic work counters; ``identical_bounds``
    is only meaningful when both records carry a digest.
    """
    digest_a = a.get("bounds_digest")
    digest_b = b.get("bounds_digest")
    work_a = _flat_work(a)
    work_b = _flat_work(b)
    work_delta: Dict[str, Dict[str, int]] = {}
    for counter in sorted(set(work_a) | set(work_b)):
        before = work_a.get(counter, 0)
        after = work_b.get(counter, 0)
        if before != after:
            work_delta[counter] = {
                "a": before,
                "b": after,
                "delta": after - before,
            }
    return {
        "runs": {"a": a.get("run_id"), "b": b.get("run_id")},
        "commands": {"a": a.get("command"), "b": b.get("command")},
        "git_revs": {"a": a.get("git_rev"), "b": b.get("git_rev")},
        "same_config": (
            a.get("config_digest") is not None
            and a.get("config_digest") == b.get("config_digest")
        ),
        "bounds": {
            "a": digest_a,
            "b": digest_b,
            "identical": (
                digest_a is not None and digest_a == digest_b
            ),
        },
        "work_delta": work_delta,
    }


def drift_report(
    records: Iterable[Mapping[str, object]],
    config_digest: Optional[str] = None,
) -> Dict[str, object]:
    """Scan history for soundness drift and work-counter regressions.

    Groups records by ``(config_digest, command)`` — the bounds of one
    configuration under one command must be bit-identical regardless of
    git revision, worker count or cache state.  Two findings classes:

    * **bounds drift** (fatal): more than one distinct ``bounds_digest``
      inside a group — the continuous-telemetry generalization of
      ``bench_gate``'s baseline comparison;
    * **more-work trends** (advisory): a deterministic work counter
      grew between consecutive records of a group *at different git
      revisions* — the algorithm now does more work for the same input
      (``less-work`` is an intentional optimization and stays silent,
      matching the bench gate's asymmetry).
    """
    groups: Dict[Tuple[str, str], List[Mapping[str, object]]] = {}
    scanned = 0
    for record in records:
        scanned += 1
        digest = record.get("config_digest")
        if not isinstance(digest, str):
            continue
        if config_digest is not None and digest != config_digest:
            continue
        key = (digest, str(record.get("command", "")))
        groups.setdefault(key, []).append(record)

    drifts: List[Dict[str, object]] = []
    trends: List[Dict[str, object]] = []
    compared = 0
    for (digest, command), group in sorted(groups.items()):
        with_bounds = [
            r for r in group if isinstance(r.get("bounds_digest"), str)
        ]
        if len(with_bounds) >= 2:
            compared += 1
            seen: Dict[str, Dict[str, object]] = {}
            for record in with_bounds:
                bounds = str(record["bounds_digest"])
                entry = seen.setdefault(
                    bounds, {"bounds_digest": bounds, "runs": [], "git_revs": []}
                )
                entry["runs"].append(record.get("run_id"))
                rev = record.get("git_rev")
                if rev is not None and rev not in entry["git_revs"]:
                    entry["git_revs"].append(rev)
            if len(seen) > 1:
                drifts.append(
                    {
                        "config_digest": digest,
                        "command": command,
                        "n_runs": len(with_bounds),
                        "variants": [seen[k] for k in sorted(seen)],
                    }
                )
        previous: Optional[Mapping[str, object]] = None
        for record in group:
            if previous is not None and record.get("git_rev") != previous.get(
                "git_rev"
            ):
                before = _flat_work(previous)
                after = _flat_work(record)
                for counter in sorted(set(before) & set(after)):
                    if after[counter] > before[counter]:
                        trends.append(
                            {
                                "config_digest": digest,
                                "command": command,
                                "counter": counter,
                                "from_rev": previous.get("git_rev"),
                                "to_rev": record.get("git_rev"),
                                "before": before[counter],
                                "after": after[counter],
                            }
                        )
            if record.get("work"):
                previous = record
    return {
        "scanned": scanned,
        "groups": len(groups),
        "groups_compared": compared,
        "drifts": drifts,
        "more_work": trends,
        "verdict": "drift" if drifts else "clean",
    }


# ----------------------------------------------------------------------
# Rendering (the `afdx obs` text surfaces)
# ----------------------------------------------------------------------


def _short(digest: Optional[object], width: int = 12) -> str:
    return str(digest)[:width] if isinstance(digest, str) else "-"


def render_run_line(record: Mapping[str, object]) -> str:
    """One ``afdx obs list`` row for a record."""
    wall = record.get("wall", {})
    wall_ms = wall.get("total_ms") if isinstance(wall, Mapping) else None
    return (
        f"{record.get('run_id', '-'):<28} "
        f"{record.get('command', '-'):<12} "
        f"{record.get('status', '-'):<6} "
        f"rev={record.get('git_rev', '-') or '-':<12} "
        f"cfg={_short(record.get('config_digest'))} "
        f"bounds={_short(record.get('bounds_digest'))} "
        f"wall={wall_ms if wall_ms is not None else '-'}ms"
    )


def render_run(record: Mapping[str, object]) -> str:
    """The full ``afdx obs show`` body: pretty JSON, keys sorted."""
    return json.dumps(record, indent=2, sort_keys=True)


def render_run_diff(diff: Mapping[str, object]) -> str:
    """Human-readable ``afdx obs diff`` body."""
    runs = diff.get("runs", {})
    bounds = diff.get("bounds", {})
    lines = [
        f"diff {runs.get('a')} -> {runs.get('b')}",
        f"  config: {'same' if diff.get('same_config') else 'DIFFERENT'}",
        f"  bounds: "
        f"{'identical' if bounds.get('identical') else 'DIFFERENT'} "
        f"({_short(bounds.get('a'))} vs {_short(bounds.get('b'))})",
    ]
    work_delta = diff.get("work_delta", {})
    if work_delta:
        lines.append(f"  work counters changed ({len(work_delta)}):")
        for counter in sorted(work_delta):
            entry = work_delta[counter]
            sign = "+" if entry["delta"] > 0 else ""
            lines.append(
                f"    {counter}: {entry['a']} -> {entry['b']} "
                f"({sign}{entry['delta']})"
            )
    else:
        lines.append("  work counters identical")
    return "\n".join(lines)


def render_drift_report(report: Mapping[str, object]) -> str:
    """Human-readable ``afdx obs drift`` body."""
    lines = [
        f"drift: scanned {report.get('scanned', 0)} records, "
        f"{report.get('groups', 0)} (config, command) groups, "
        f"{report.get('groups_compared', 0)} with comparable bounds"
    ]
    for drift in report.get("drifts", []):
        lines.append(
            f"DRIFT config={_short(drift.get('config_digest'))} "
            f"command={drift.get('command')}: "
            f"{len(drift.get('variants', []))} distinct bounds digests "
            f"over {drift.get('n_runs')} runs"
        )
        for variant in drift.get("variants", []):
            revs = ",".join(str(r) for r in variant.get("git_revs", [])) or "-"
            lines.append(
                f"  bounds={_short(variant.get('bounds_digest'))} "
                f"revs={revs} runs={len(variant.get('runs', []))}"
            )
    for trend in report.get("more_work", []):
        lines.append(
            f"more-work config={_short(trend.get('config_digest'))} "
            f"{trend.get('counter')}: {trend.get('before')} -> "
            f"{trend.get('after')} "
            f"({trend.get('from_rev')} -> {trend.get('to_rev')})"
        )
    lines.append(f"verdict: {report.get('verdict', 'clean')}")
    return "\n".join(lines)
