"""Declarative experiment descriptions: :class:`Study` and :class:`Scenario`.

A *study* is the serializable description of one comparative experiment —
the paper's router x topology x workload x injection-rate shape — that can
be written as YAML/JSON, checked into a repository, validated against a
schema with did-you-mean errors, and executed with one call
(:meth:`Study.run`) or one command (``python -m repro run study.yaml``).

A study is a list of :class:`Scenario` objects (the axes of one
cross-product) plus an :class:`ExecutionPolicy` (profile, backend, workers,
cache).  Scenarios come in two modes:

* ``sweep`` — simulate every (topology x pattern x router x VC count x
  offered rate) point, the shape of the paper's figures;
* ``saturate`` — run the adaptive
  :class:`~repro.compare.saturation.SaturationSearch` per (topology x
  pattern x router) cell, the shape of the comparison engine.

Studies can equally be built fluently in Python::

    study = (Study("sat")
             .grid(routers=["dor", "o1turn", "bsor-dijkstra"],
                   patterns=["transpose"])
             .rates(0.05, 0.9, step=0.05))
    result = study.run(workers=4)
    print(result.results.to_markdown())

Every name a spec carries — router, workload/pattern, backend, topology,
profile — is validated eagerly through the same registries the CLIs use, so
a typo in a YAML file fails with the registry's did-you-mean error before
any simulation starts.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import ReproError, StudyError
from ..experiments.config import PROFILES
from ..traffic.mapping import MAPPING_STRATEGIES

#: Accepted scenario modes.
MODES = ("sweep", "saturate")

#: Study-level spec keys (the execution policy is inlined at the top level).
_STUDY_KEYS = ("name", "description", "profile", "backend", "workers",
               "cache", "cache_dir", "scenarios")

#: Scenario-level spec keys.  Singular spellings are accepted aliases.
_SCENARIO_KEYS = ("name", "topologies", "routers", "patterns", "mode",
                  "rates", "vcs", "faults", "mapping", "seed", "min_rate",
                  "max_rate", "resolution")
_SCENARIO_KEY_ALIASES = {
    "topology": "topologies",
    "router": "routers",
    "pattern": "patterns",
    "workload": "patterns",
    "workloads": "patterns",
    "rate": "rates",
    "fault": "faults",
}


def _suggest(key: str, accepted: Sequence[str]) -> str:
    matches = difflib.get_close_matches(key, sorted(accepted), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _check_keys(data: Dict, accepted: Sequence[str], aliases: Dict[str, str],
                where: str) -> None:
    vocabulary = list(accepted) + list(aliases)
    for key in data:
        if key not in vocabulary:
            raise StudyError(
                f"{where}: unknown key {key!r}{_suggest(key, vocabulary)}; "
                f"accepted keys: {sorted(accepted)}"
            )


def _string_list(value, where: str) -> Tuple[str, ...]:
    """Coerce a spec value to a tuple of strings (scalar or list accepted)."""
    if isinstance(value, str):
        items: Sequence = [part.strip() for part in value.split(",")
                           if part.strip()]
    elif isinstance(value, Sequence):
        items = value
    else:
        raise StudyError(f"{where}: expected a name or list of names, "
                         f"got {value!r}")
    result = []
    for item in items:
        if not isinstance(item, str) or not item.strip():
            raise StudyError(f"{where}: expected a name, got {item!r}")
        result.append(item.strip())
    return tuple(result)


def _fault_list(value, where: str) -> Tuple[str, ...]:
    """Coerce a spec value to a tuple of fault-set axis points.

    A fault set is itself comma-joined (``link:0-1,link:5-6`` is ONE set of
    two failed links), so unlike the other axes the scalar form splits on
    ``;``: ``"none; link:0-1"`` is two axis points.  A YAML list gives one
    axis point per entry, commas and all.
    """
    if isinstance(value, str):
        items: Sequence = [part.strip() for part in value.split(";")]
    elif isinstance(value, Sequence):
        items = value
    else:
        raise StudyError(f"{where}: expected a fault spec or list of fault "
                         f"specs, got {value!r}")
    result = []
    for item in items:
        if not isinstance(item, str):
            raise StudyError(f"{where}: expected a fault spec string "
                             f"(e.g. 'link:0-1' or 'none'), got {item!r}")
        result.append(item.strip())
    return tuple(result)


def _number_list(value, where: str, kind=float) -> Tuple:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise StudyError(f"{where}: expected a number or list of numbers, "
                         f"got {value!r}")
    result = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise StudyError(f"{where}: expected a number, got {item!r}")
        if kind is int and float(item) != int(item):
            # int(2.5) would silently run a different configuration than
            # the spec author wrote
            raise StudyError(f"{where}: expected an integer, got {item!r}")
        result.append(kind(item))
    return tuple(result)


def _positive(values: Sequence, where: str) -> None:
    for value in values:
        if value <= 0:
            raise StudyError(f"{where}: values must be positive, got {value}")


@dataclass(frozen=True)
class Scenario:
    """One axis cross-product of a study.

    Attributes
    ----------
    name:
        Label carried into every result row this scenario produces.
    topologies:
        Topology spec strings (``mesh8x8``, ``torus4x4``, ``ring16``).
        Empty means "the execution profile's mesh" (8x8 for the paper
        profiles, 4x4 for ``quick``), which keeps one spec file valid at
        every scale.
    routers:
        Routing-registry names or aliases.
    patterns:
        Traffic patterns and/or application workloads — anything
        :func:`repro.planning.canonical_pattern` accepts.
    mode:
        ``"sweep"`` (simulate every rate point) or ``"saturate"`` (adaptive
        saturation search per cell).
    rates:
        Offered injection rates for ``sweep`` mode; empty means the
        profile's default rate schedule.
    vcs:
        Virtual-channel counts to sweep; empty means the profile's VC count.
    faults:
        Fault-set axis points (anything
        :meth:`~repro.faults.FaultSet.from_spec` accepts, e.g.
        ``"link:0-1"`` or ``"link:0-1,link:5-6@500"``); empty means one
        fault-free point.  Each point degrades the topology and reroutes
        every router with deadlock freedom re-verified.
    mapping:
        Task-placement strategy for application workloads (``None`` = the
        workload's own default).
    seed:
        Override of the profile's random seed.
    min_rate / max_rate / resolution:
        Saturation-search range overrides for ``saturate`` mode.
    """

    name: str = "scenario"
    topologies: Tuple[str, ...] = ()
    routers: Tuple[str, ...] = ("dor", "bsor-dijkstra")
    patterns: Tuple[str, ...] = ("transpose",)
    mode: str = "sweep"
    rates: Tuple[float, ...] = ()
    vcs: Tuple[int, ...] = ()
    faults: Tuple[str, ...] = ()
    mapping: Optional[str] = None
    seed: Optional[int] = None
    min_rate: Optional[float] = None
    max_rate: Optional[float] = None
    resolution: Optional[float] = None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every field against the registries and value ranges.

        Raises :class:`StudyError` (carrying the underlying registry
        did-you-mean message where one exists) on the first problem.
        """
        where = f"scenario {self.name!r}"
        if self.mode not in MODES:
            raise StudyError(
                f"{where}: unknown mode {self.mode!r}"
                f"{_suggest(self.mode, MODES)}; accepted modes: {list(MODES)}"
            )
        if not self.routers:
            raise StudyError(f"{where}: needs at least one router")
        if not self.patterns:
            raise StudyError(f"{where}: needs at least one pattern or "
                             f"workload")
        _positive(self.rates, f"{where}: rates")
        _positive(self.vcs, f"{where}: vcs")
        for rate_field in ("min_rate", "max_rate", "resolution"):
            value = getattr(self, rate_field)
            if value is not None and self.mode != "saturate":
                raise StudyError(
                    f"{where}: {rate_field} only applies to saturate mode"
                )
            if value is not None and value <= 0:
                raise StudyError(
                    f"{where}: {rate_field} must be positive, got {value}"
                )
        if self.rates and self.mode == "saturate":
            raise StudyError(
                f"{where}: explicit rates only apply to sweep mode (the "
                f"saturation search chooses its own rates; use "
                f"min_rate/max_rate/resolution to bound it)"
            )
        if self.mapping is not None and \
                self.mapping not in MAPPING_STRATEGIES:
            raise StudyError(
                f"{where}: unknown mapping {self.mapping!r}"
                f"{_suggest(self.mapping, MAPPING_STRATEGIES)}; accepted "
                f"mappings: {list(MAPPING_STRATEGIES)}"
            )
        # name checks ride on the registries so the did-you-mean hints and
        # the accepted vocabularies can never drift from the code
        from ..compare.matrix import parse_topology
        from ..faults import FaultSet
        from ..routing.registry import router_spec
        from .execute import validate_pattern

        try:
            for topology in self.topologies:
                parse_topology(topology)
            for router in self.routers:
                router_spec(router)
            for pattern in self.patterns:
                validate_pattern(pattern)
            for fault in self.faults:
                FaultSet.from_spec(fault)
        except ReproError as error:
            raise StudyError(f"{where}: {error}") from error

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-data rendering with defaulted fields omitted."""
        payload: Dict = {"name": self.name}
        if self.topologies:
            payload["topologies"] = list(self.topologies)
        payload["routers"] = list(self.routers)
        payload["patterns"] = list(self.patterns)
        payload["mode"] = self.mode
        if self.rates:
            payload["rates"] = list(self.rates)
        if self.vcs:
            payload["vcs"] = list(self.vcs)
        if self.faults:
            payload["faults"] = list(self.faults)
        for optional in ("mapping", "seed", "min_rate", "max_rate",
                         "resolution"):
            value = getattr(self, optional)
            if value is not None:
                payload[optional] = value
        return payload

    @classmethod
    def from_dict(cls, data: Dict, index: int = 0) -> "Scenario":
        """Build and validate a scenario from one spec mapping."""
        if not isinstance(data, dict):
            raise StudyError(f"scenario #{index + 1}: expected a mapping, "
                             f"got {data!r}")
        name = data.get("name") or f"scenario-{index + 1}"
        where = f"scenario {name!r}"
        _check_keys(data, _SCENARIO_KEYS, _SCENARIO_KEY_ALIASES, where)
        folded: Dict = {}
        folded_from: Dict[str, str] = {}
        for key, value in data.items():
            target = _SCENARIO_KEY_ALIASES.get(key, key)
            if target in folded_from:
                # e.g. both "patterns" and "workloads": they are the same
                # axis, and last-one-wins would silently drop cells
                raise StudyError(
                    f"{where}: keys {folded_from[target]!r} and {key!r} are "
                    f"the same axis ({target!r}); merge them into one list"
                )
            folded_from[target] = key
            folded[target] = value

        kwargs: Dict = {"name": str(name)}
        for list_key in ("topologies", "routers", "patterns"):
            if list_key in folded:
                kwargs[list_key] = _string_list(folded[list_key],
                                                f"{where}: {list_key}")
        if "mode" in folded:
            kwargs["mode"] = str(folded["mode"]).strip().lower()
        if "rates" in folded:
            kwargs["rates"] = _number_list(folded["rates"], f"{where}: rates")
        if "vcs" in folded:
            kwargs["vcs"] = _number_list(folded["vcs"], f"{where}: vcs",
                                         kind=int)
        if "faults" in folded and folded["faults"] is not None:
            kwargs["faults"] = _fault_list(folded["faults"],
                                           f"{where}: faults")
        if "mapping" in folded and folded["mapping"] is not None:
            kwargs["mapping"] = str(folded["mapping"])
        if "seed" in folded and folded["seed"] is not None:
            if isinstance(folded["seed"], bool) or \
                    not isinstance(folded["seed"], int):
                raise StudyError(f"{where}: seed must be an integer, "
                                 f"got {folded['seed']!r}")
            kwargs["seed"] = folded["seed"]
        for rate_key in ("min_rate", "max_rate", "resolution"):
            if rate_key in folded and folded[rate_key] is not None:
                values = _number_list(folded[rate_key],
                                      f"{where}: {rate_key}")
                if len(values) != 1:
                    raise StudyError(
                        f"{where}: {rate_key} must be a single number, "
                        f"got {folded[rate_key]!r}"
                    )
                kwargs[rate_key] = values[0]
        scenario = cls(**kwargs)
        scenario.validate()
        return scenario


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a study executes: scale, kernel, parallelism and caching."""

    #: Experiment scale: ``quick`` / ``default`` / ``paper``.
    profile: str = "default"
    #: Simulator backend (``None`` = the registry default).  Backends are
    #: bit-identical, so this changes wall-clock time only.
    backend: Optional[str] = None
    #: Worker processes (0 = ``$REPRO_WORKERS`` or the CPU count).
    workers: int = 0
    #: Consult / populate the shared content-addressed result cache.
    cache: bool = True
    #: Cache directory (``None`` = ``$REPRO_CACHE_DIR`` or the default).
    cache_dir: Optional[str] = None

    def validate(self) -> None:
        if self.profile not in PROFILES:
            raise StudyError(
                f"unknown profile {self.profile!r}"
                f"{_suggest(self.profile, PROFILES)}; accepted profiles: "
                f"{list(PROFILES)}"
            )
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) \
                or self.workers < 0:
            raise StudyError(f"workers must be a non-negative integer, "
                             f"got {self.workers!r}")
        if self.backend is not None:
            from ..simulator.backends import backend_spec

            try:
                backend_spec(self.backend)
            except ReproError as error:
                raise StudyError(str(error)) from error


class Study:
    """A named, serializable collection of scenarios plus execution policy.

    The one front door to the evaluation plane: build it fluently
    (:meth:`grid` / :meth:`rates` / :meth:`saturate`), load it from a file
    (:meth:`from_file`), and execute it (:meth:`run`) — the same object
    drives the ``python -m repro run`` CLI.
    """

    def __init__(self, name: str, description: str = "",
                 scenarios: Optional[Sequence[Scenario]] = None,
                 policy: Optional[ExecutionPolicy] = None) -> None:
        if not name or not isinstance(name, str):
            raise StudyError(f"study name must be a non-empty string, "
                             f"got {name!r}")
        self.name = name
        self.description = description
        self.scenarios: List[Scenario] = list(scenarios or [])
        self.policy = policy or ExecutionPolicy()

    # ------------------------------------------------------------------
    # fluent construction
    # ------------------------------------------------------------------
    def grid(self, *, topologies: Optional[Sequence[str]] = None,
             routers: Optional[Sequence[str]] = None,
             patterns: Optional[Sequence[str]] = None,
             vcs: Optional[Sequence[int]] = None,
             faults: Optional[Sequence[str]] = None,
             name: Optional[str] = None,
             mapping: Optional[str] = None,
             seed: Optional[int] = None) -> "Study":
        """Append a new scenario spanning the given axes.

        Unspecified axes keep the :class:`Scenario` defaults.  Subsequent
        :meth:`rates` / :meth:`saturate` calls refine this scenario.
        ``faults`` adds a fault-set axis: one entry per axis point, each a
        full fault spec (``"none"``, ``"link:0-1"``,
        ``"link:0-1,link:5-6@500"``).
        """
        self.scenarios.append(Scenario(
            name=name or f"scenario-{len(self.scenarios) + 1}",
            topologies=tuple(topologies or ()),
            routers=tuple(routers) if routers else Scenario.routers,
            patterns=tuple(patterns) if patterns else Scenario.patterns,
            vcs=tuple(vcs or ()),
            faults=tuple(faults or ()),
            mapping=mapping,
            seed=seed,
        ))
        return self

    def _amend(self, **updates) -> "Study":
        if not self.scenarios:
            self.grid()
        self.scenarios[-1] = replace(self.scenarios[-1], **updates)
        return self

    def rates(self, start: float, stop: Optional[float] = None, *,
              step: Optional[float] = None,
              values: Optional[Sequence[float]] = None) -> "Study":
        """Set the current scenario's injection-rate schedule.

        ``rates(0.05, 0.9, step=0.05)`` builds the inclusive arithmetic
        range; ``rates(2.5)`` a single point; ``rates(values=[...])`` an
        explicit list.
        """
        if values is not None:
            schedule = tuple(float(value) for value in values)
        elif stop is None:
            schedule = (float(start),)
        else:
            if step is None or step <= 0:
                raise StudyError(f"rates({start}, {stop}): needs a positive "
                                 f"step")
            count = int(round((stop - start) / step))
            schedule = tuple(round(start + index * step, 10)
                             for index in range(count + 1)
                             if start + index * step <= stop + 1e-9)
        _positive(schedule, "rates")
        if not schedule:
            raise StudyError(f"rates({start}, {stop}, step={step}): empty "
                             f"schedule")
        # switching (back) to sweep mode clears the saturate-only bounds,
        # mirroring how saturate() clears the rate schedule
        return self._amend(rates=schedule, mode="sweep", min_rate=None,
                           max_rate=None, resolution=None)

    def saturate(self, *, min_rate: Optional[float] = None,
                 max_rate: Optional[float] = None,
                 resolution: Optional[float] = None) -> "Study":
        """Switch the current scenario to adaptive saturation search."""
        return self._amend(mode="saturate", rates=(), min_rate=min_rate,
                           max_rate=max_rate, resolution=resolution)

    def with_policy(self, **updates) -> "Study":
        """Update execution-policy fields (profile, backend, workers, ...)."""
        try:
            self.policy = replace(self.policy, **updates)
        except TypeError as error:
            raise StudyError(
                f"unknown execution-policy field: {error}"
            ) from error
        self.policy.validate()
        return self

    # ------------------------------------------------------------------
    # validation and (de)serialization
    # ------------------------------------------------------------------
    def validate(self) -> "Study":
        """Validate the policy and every scenario; returns self."""
        self.policy.validate()
        if not self.scenarios:
            raise StudyError(f"study {self.name!r} has no scenarios")
        for scenario in self.scenarios:
            scenario.validate()
        return self

    def to_dict(self) -> Dict:
        """Plain-data rendering (the YAML/JSON document shape)."""
        payload: Dict = {"name": self.name}
        if self.description:
            payload["description"] = self.description
        payload["profile"] = self.policy.profile
        if self.policy.backend is not None:
            payload["backend"] = self.policy.backend
        if self.policy.workers:
            payload["workers"] = self.policy.workers
        if not self.policy.cache:
            payload["cache"] = False
        if self.policy.cache_dir:
            payload["cache_dir"] = self.policy.cache_dir
        payload["scenarios"] = [scenario.to_dict()
                                for scenario in self.scenarios]
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "Study":
        """Build and validate a study from a spec mapping."""
        if not isinstance(data, dict):
            raise StudyError(f"study spec must be a mapping, got {data!r}")
        _check_keys(data, _STUDY_KEYS, {}, "study")
        if "name" not in data:
            raise StudyError("study: missing required key 'name'")
        if "scenarios" not in data or not data["scenarios"]:
            raise StudyError("study: needs at least one scenario under "
                             "'scenarios'")
        if not isinstance(data["scenarios"], Sequence) or \
                isinstance(data["scenarios"], str):
            raise StudyError(f"study: 'scenarios' must be a list, "
                             f"got {data['scenarios']!r}")
        policy_kwargs: Dict = {}
        if "profile" in data:
            policy_kwargs["profile"] = str(data["profile"]).strip().lower()
        if "backend" in data and data["backend"] is not None:
            policy_kwargs["backend"] = str(data["backend"])
        if "workers" in data:
            policy_kwargs["workers"] = data["workers"]
        if "cache" in data:
            if not isinstance(data["cache"], bool):
                raise StudyError(f"study: cache must be true or false, "
                                 f"got {data['cache']!r}")
            policy_kwargs["cache"] = data["cache"]
        if "cache_dir" in data and data["cache_dir"] is not None:
            policy_kwargs["cache_dir"] = str(data["cache_dir"])
        policy = ExecutionPolicy(**policy_kwargs)
        scenarios = [Scenario.from_dict(entry, index)
                     for index, entry in enumerate(data["scenarios"])]
        study = cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            scenarios=scenarios,
            policy=policy,
        )
        # Scenario.from_dict validated each scenario (building every named
        # topology); only the policy is left of Study.validate
        policy.validate()
        return study

    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "Study":
        """Load and validate a study from a YAML or JSON file.

        The format follows the extension: ``.json`` parses as JSON,
        anything else as YAML (JSON being a YAML subset, a ``.yaml`` file
        containing JSON also loads).  YAML needs the optional PyYAML
        dependency; without it, JSON files keep working.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as error:
            raise StudyError(f"cannot read study file {path}: "
                             f"{error.strerror or error}") from error
        if path.suffix.lower() == ".json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as error:
                raise StudyError(f"{path}: invalid JSON: {error}") from error
        else:
            try:
                import yaml
            except ImportError:  # pragma: no cover - PyYAML is normally there
                raise StudyError(
                    f"{path}: reading YAML study files needs PyYAML "
                    f"(install pyyaml, or use a .json spec)"
                )
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as error:
                raise StudyError(f"{path}: invalid YAML: {error}") from error
        try:
            return cls.from_dict(data)
        except StudyError as error:
            raise StudyError(f"{path}: {error}") from error

    def to_file(self, path: Union[str, Path]) -> Path:
        """Write the study as YAML (or JSON for ``.json`` paths).

        ``Study.from_file(study.to_file(p))`` round-trips to an equal study.
        """
        path = Path(path)
        payload = self.to_dict()
        if path.suffix.lower() == ".json":
            text = json.dumps(payload, indent=2) + "\n"
        else:
            try:
                import yaml
            except ImportError:  # pragma: no cover - PyYAML is normally there
                raise StudyError(
                    f"writing YAML study files needs PyYAML; use a .json "
                    f"path instead of {path}"
                )
            text = yaml.safe_dump(payload, sort_keys=False,
                                  default_flow_style=False)
        path.write_text(text)
        return path

    # ------------------------------------------------------------------
    def run(self, *, workers: Optional[int] = None,
            cache: Optional[bool] = None,
            cache_dir: Optional[str] = None,
            shared_cache_dir: Optional[str] = None,
            backend: Optional[str] = None,
            profile: Optional[str] = None,
            execution: Optional[str] = None,
            queue_dir: Optional[str] = None,
            observer=None):
        """Execute every scenario; returns a
        :class:`~repro.study.execute.StudyResult`.

        Keyword overrides take precedence over the study's execution policy
        (the CLI maps ``--workers`` / ``--no-cache`` / ``--cache-dir`` /
        ``--backend`` / ``--profile`` here).  An *observer*
        (:class:`~repro.progress.ProgressObserver`) receives the typed
        progress-event stream while the study executes (the CLI maps
        ``--progress`` here).  ``execution`` / ``queue_dir`` select the
        execution backend for cache-miss points and ``shared_cache_dir``
        layers the result cache over a deployment-shared directory.
        """
        from .execute import run_study

        return run_study(self, workers=workers, cache=cache,
                         cache_dir=cache_dir,
                         shared_cache_dir=shared_cache_dir,
                         backend=backend, profile=profile,
                         execution=execution, queue_dir=queue_dir,
                         observer=observer)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Study) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"Study({self.name!r}, scenarios={len(self.scenarios)}, "
                f"profile={self.policy.profile!r})")
