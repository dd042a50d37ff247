"""Content-addressed on-disk cache of simulation statistics and route plans.

One statistics entry is one simulated sweep point: the key is the
:func:`~repro.runner.fingerprint.simulation_cache_key` of the inputs, the
value is the JSON-serialised :class:`~repro.metrics.statistics.SimulationStatistics`.
Entries are immutable — a key fully determines its statistics because the
simulator is deterministic in its seed — so the cache never needs
invalidation logic beyond the key itself.

Route plans (:mod:`repro.planning`) are the second kind of entry, keyed by
:func:`~repro.runner.fingerprint.route_plan_key`.  They live under the
:data:`PLAN_SUBDIR` subdirectory of each tier — every top-level ``*.json``
is a statistics entry to :meth:`ResultCache.keys`, ``clear``, ``stats`` and
outside readers — and go through the same publish and tier walk; what a
plan *is* (its JSON layout, and the verification a loaded one must pass)
stays with the planner, which hands :meth:`ResultCache.get_plan` a decoder.

Writes are atomic (a ``.tmp-<pid>-<random>`` temp file in the destination
directory, published with ``os.replace``), which makes the cache safe to
share between the worker processes of one run, between concurrent runs
pointed at the same directory, and between the hosts of a serving
deployment mounted on one shared filesystem: a reader can never observe a
partially-written JSON entry, and racing writers of the same key simply
last-write-wins with byte-identical content.

Layered mode
------------

A cache may carry a **shared tier** behind its local directory
(``ResultCache(local_dir, shared_dir=...)``, or ``$REPRO_SHARED_CACHE_DIR``):

* ``get`` is **read-through** — a local miss falls through to the shared
  directory, and a shared hit is **written back** into the local directory
  so subsequent reads are local;
* ``put`` is **write-through** — every new result is published to both
  tiers, so every worker process, queue worker and service front door
  pointed at the same shared directory serves the others' warm keys.

The shared tier is what turns the cache into a serving layer
(:mod:`repro.serve`): a study whose every point is warm anywhere in the
deployment completes without a single simulator invocation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar, Union

from ..metrics.statistics import SimulationStatistics

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable naming a shared (second-tier) cache directory; when
#: set, every :class:`ResultCache` built without an explicit ``shared_dir``
#: layers itself over it.
SHARED_CACHE_DIR_ENV = "REPRO_SHARED_CACHE_DIR"

#: Directory used when neither an explicit path nor the environment variable
#: names one.
DEFAULT_CACHE_DIR = "~/.cache/repro-bsor"

#: Subdirectory of a tier holding its route-plan entries.
PLAN_SUBDIR = "plans"

T = TypeVar("T")

#: Name of the last-run counter snapshot a runner records in its cache
#: directory (``python -m repro cache stats`` reads it back).  The leading
#: dot keeps it out of the ``*.json`` entry enumeration.
LAST_RUN_FILE = ".last-run.json"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bsor``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or
                os.path.expanduser(DEFAULT_CACHE_DIR))


def default_shared_cache_dir() -> Optional[Path]:
    """The shared-tier directory ``$REPRO_SHARED_CACHE_DIR`` names, if any."""
    shared = os.environ.get(SHARED_CACHE_DIR_ENV)
    return Path(shared) if shared else None


def _atomic_write_text(directory: Path, target: Path, text: str) -> None:
    """Publish *text* at *target* atomically (temp file + ``os.replace``).

    The temp file lives in *directory* (same filesystem as the target, a
    requirement for an atomic rename) and its ``.tmp-<pid>-`` prefix keeps
    in-flight writes out of the ``*.json`` glob that entry enumeration
    uses.  Concurrent writers of the same target each publish a complete
    file; the last replace wins and no reader ever sees partial JSON.
    """
    directory.mkdir(parents=True, exist_ok=True)
    handle, temp_path = tempfile.mkstemp(
        dir=directory, prefix=f".tmp-{os.getpid()}-", suffix=".part"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
        os.replace(temp_path, target)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


class ResultCache:
    """A directory of ``<key>.json`` files, one per simulated sweep point.

    Parameters
    ----------
    directory:
        The local (first-tier) directory; ``None`` resolves via
        ``$REPRO_CACHE_DIR`` / the default location.
    shared_dir:
        An optional shared (second-tier) directory layered behind the local
        one — read-through on ``get`` (with write-back of shared hits into
        the local tier) and write-through on ``put``.  ``None`` resolves
        via ``$REPRO_SHARED_CACHE_DIR``; an unset variable means no shared
        tier.
    """

    def __init__(self, directory: Union[str, os.PathLike, None] = None,
                 shared_dir: Union[str, os.PathLike, None] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        if shared_dir is None:
            shared = default_shared_cache_dir()
        else:
            shared = Path(shared_dir)
        # a shared tier equal to the local tier would double every write
        # for no benefit; collapse it to plain single-tier mode
        self.shared_dir: Optional[Path] = (
            shared if shared is not None and shared != self.directory else None
        )
        self.hits = 0
        self.misses = 0
        #: Subset of :attr:`hits` served by the shared tier (local misses).
        self.shared_hits = 0
        #: Route-plan lookups answered / not answered by a verified entry.
        self.plan_hits = 0
        self.plan_misses = 0

    # ------------------------------------------------------------------
    # the one tier walk and the one publish, for every kind of entry
    # ------------------------------------------------------------------
    def _path(self, key: str, subdir: str = "") -> Path:
        return self.directory / subdir / f"{key}.json"

    def _shared_path(self, key: str, subdir: str = "") -> Optional[Path]:
        if self.shared_dir is None:
            return None
        return self.shared_dir / subdir / f"{key}.json"

    @staticmethod
    def _load(path: Path, key: str, decode: Callable[[object], Optional[T]]
              ) -> Tuple[Optional[str], Optional[T]]:
        """(stored text, decoded value) of the entry for *key* at *path*.

        ``(None, None)`` when the entry is absent, unreadable, not JSON,
        recorded under another key (a misfiled copy) or rejected by *decode*
        (which returns ``None`` or raises ``KeyError`` / ``TypeError`` /
        ``ValueError`` for a stale or foreign layout): all of them are a
        miss, and the fresh value overwrites the entry.
        """
        try:
            text = path.read_text()
            payload = json.loads(text)
            if payload["key"] != key:
                return None, None
            value = decode(payload)
        except (OSError, KeyError, TypeError, ValueError):
            return None, None
        return (text, value) if value is not None else (None, None)

    def _lookup(self, key: str, subdir: str,
                decode: Callable[[object], Optional[T]]
                ) -> Tuple[Optional[T], bool]:
        """(value, served by the shared tier?) — read-through, write-back."""
        _, value = self._load(self._path(key, subdir), key, decode)
        if value is not None:
            return value, False
        shared_path = self._shared_path(key, subdir)
        if shared_path is not None:
            text, value = self._load(shared_path, key, decode)
            if value is not None:
                assert text is not None
                local = self._path(key, subdir)
                try:
                    _atomic_write_text(local.parent, local, text)
                except OSError:
                    pass  # a read must not fail because write-back did
                return value, True
        return None, False

    def _publish(self, key: str, subdir: str, payload: Dict) -> None:
        """Write *payload* through to every tier (atomic, last writer wins)."""
        text = json.dumps(payload)
        for target in (self._path(key, subdir),
                       self._shared_path(key, subdir)):
            if target is not None:
                _atomic_write_text(target.parent, target, text)

    # ------------------------------------------------------------------
    # statistics entries
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationStatistics]:
        """The cached statistics for *key*, or ``None`` on a miss.

        With a shared tier configured, a local miss reads through to the
        shared directory; a shared hit is copied back into the local tier
        so the next read of the same key never leaves this host.
        """
        stats, from_shared = self._lookup(key, "", _statistics_entry)
        if stats is None:
            self.misses += 1
            return None
        self.hits += 1
        self.shared_hits += from_shared
        return stats

    def put(self, key: str, statistics: SimulationStatistics) -> None:
        """Store *statistics* under *key* (atomic, last writer wins).

        Concurrent writers — threads, worker processes, other hosts on a
        shared filesystem — are safe: each publishes a complete temp file
        named ``.tmp-<pid>-<random>`` and renames it over the entry, so a
        partially-written JSON document can never become visible under the
        key.  With a shared tier configured the entry is written through to
        both directories.
        """
        self._publish(key, "", {"key": key,
                                "statistics": statistics_to_dict(statistics)})

    # ------------------------------------------------------------------
    # route-plan entries
    # ------------------------------------------------------------------
    def get_plan(self, key: str,
                 decode: Callable[[object], Optional[T]]) -> Optional[T]:
        """The plan stored under *key* as *decode* rebuilds it, or ``None``.

        *decode* receives the stored ``plan`` document and returns the
        verified plan, or ``None`` to reject it; a rejected local entry
        still reads through to the shared tier, exactly like a missing one.
        """
        plan, _ = self._lookup(key, PLAN_SUBDIR,
                               lambda payload: decode(payload["plan"]))
        if plan is None:
            self.plan_misses += 1
        else:
            self.plan_hits += 1
        return plan

    def put_plan(self, key: str, plan: Dict) -> None:
        """Store the JSON-able *plan* document under *key*, in every tier."""
        self._publish(key, PLAN_SUBDIR, {"key": key, "plan": plan})

    def __contains__(self, key: str) -> bool:
        if self._path(key).exists():
            return True
        shared_path = self._shared_path(key)
        return shared_path is not None and shared_path.exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    @staticmethod
    def _directory_keys(directory: Optional[Path]) -> Iterator[str]:
        if directory is None or not directory.is_dir():
            return
        for path in directory.glob("*.json"):
            # pathlib's glob matches dotfiles; never surface in-flight or
            # foreign temp files (or the last-run snapshot) as entries
            if not path.name.startswith("."):
                yield path.stem

    def keys(self) -> Iterator[str]:
        """Keys of the **local** tier (the entries this host holds)."""
        return self._directory_keys(self.directory)

    def clear(self) -> int:
        """Delete every local entry; returns the number of results removed.

        Route-plan entries go too (they are not counted).  The shared tier
        is deliberately left untouched — it belongs to the deployment, not
        to this host (clear it by pointing a cache directly at the shared
        directory).
        """
        self._remove_entries(PLAN_SUBDIR)
        return self._remove_entries("")

    def _remove_entries(self, subdir: str) -> int:
        removed = 0
        for key in list(self._directory_keys(self.directory / subdir)):
            try:
                self._path(key, subdir).unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # observability: sizes, counters and the last-run snapshot
    # ------------------------------------------------------------------
    @staticmethod
    def _directory_stats(directory: Optional[Path]) -> Dict[str, int]:
        entries = 0
        total_bytes = 0
        for key in ResultCache._directory_keys(directory):
            assert directory is not None
            try:
                total_bytes += (directory / f"{key}.json").stat().st_size
                entries += 1
            except OSError:
                pass  # entry vanished mid-scan (concurrent clear)
        return {"entries": entries, "bytes": total_bytes}

    def stats(self) -> Dict[str, object]:
        """One flat mapping of sizes and counters, for the ``cache stats``
        CLI and the service's introspection endpoints.

        ``entries`` / ``bytes`` count statistics entries only; route plans
        are ``plan_entries`` / ``plan_bytes``.  ``hits`` / ``misses`` /
        ``shared_hits`` / ``plan_hits`` / ``plan_misses`` are this process's
        counters; ``last_run`` is the snapshot the most recent runner
        recorded in the directory (:meth:`record_run`), or ``None``.
        """
        payload: Dict[str, object] = {"directory": str(self.directory)}
        tiers = [("", self.directory)]
        if self.shared_dir is not None:
            payload["shared_dir"] = str(self.shared_dir)
            tiers.append(("shared_", self.shared_dir))
        for prefix, directory in tiers:
            results = self._directory_stats(directory)
            plans = self._directory_stats(directory / PLAN_SUBDIR)
            payload[f"{prefix}entries"] = results["entries"]
            payload[f"{prefix}bytes"] = results["bytes"]
            payload[f"{prefix}plan_entries"] = plans["entries"]
            payload[f"{prefix}plan_bytes"] = plans["bytes"]
        payload["hits"] = self.hits
        payload["misses"] = self.misses
        payload["shared_hits"] = self.shared_hits
        payload["plan_hits"] = self.plan_hits
        payload["plan_misses"] = self.plan_misses
        payload["last_run"] = self.last_run()
        return payload

    def record_run(self, report) -> None:
        """Snapshot one runner call's counters into the cache directory.

        The runner calls this after every ``sweep_many`` batch; ``python -m
        repro cache stats`` reads the snapshot back, so the counters of the
        last run survive the process that produced them.  The write is
        atomic and best-effort — bookkeeping must never fail a simulation.
        """
        payload = {
            "at": time.time(),
            "points_total": getattr(report, "points_total", 0),
            "cache_hits": getattr(report, "cache_hits", 0),
            "points_simulated": getattr(report, "points_simulated", 0),
            "shared_hits": self.shared_hits,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
        }
        try:
            _atomic_write_text(self.directory,
                               self.directory / LAST_RUN_FILE,
                               json.dumps(payload))
        except OSError:
            pass

    def last_run(self) -> Optional[Dict[str, object]]:
        """The most recent :meth:`record_run` snapshot, or ``None``."""
        try:
            payload = json.loads((self.directory / LAST_RUN_FILE).read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def describe(self) -> str:
        shared = f", shared={self.shared_dir}" if self.shared_dir is not None \
            else ""
        return (f"ResultCache({self.directory}{shared}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")


# ----------------------------------------------------------------------
# (de)serialisation of statistics
# ----------------------------------------------------------------------
def statistics_to_dict(statistics: SimulationStatistics) -> dict:
    """Plain-JSON rendering of one simulation's statistics."""
    return dataclasses.asdict(statistics)


def _statistics_entry(payload) -> SimulationStatistics:
    """The statistics a stored ``{"key": ..., "statistics": ...}`` holds."""
    return statistics_from_dict(payload["statistics"])


def statistics_from_dict(payload: dict) -> SimulationStatistics:
    """Rebuild :class:`SimulationStatistics` from :func:`statistics_to_dict`."""
    fields = {field.name for field in
              dataclasses.fields(SimulationStatistics)}
    unknown = set(payload) - fields
    if unknown:
        raise TypeError(f"unknown statistics fields: {sorted(unknown)}")
    return SimulationStatistics(**payload)
