"""The named-factory idiom behind every extension point, written once.

Five vocabularies are "register once, resolve anywhere" — routing algorithms
(:mod:`repro.routing.registry`), application workloads
(:mod:`repro.workloads.registry`), simulator backends
(:mod:`repro.simulator.backends`), execution backends
(:mod:`repro.runner.backends`) and synthetic traffic patterns
(:mod:`repro.traffic.synthetic`).  Each of those modules keeps only what is
its own — a :class:`Spec` subclass naming its extra documentation fields,
one :class:`Registry` instance, its built-in registrations — and binds its
public entry points (``register_router``, ``router_spec``, ``create_router``
...) to that instance.  Everything the five share lives here:

* **the spec** — :class:`Spec`: name, factory, display name, aliases,
  summary, and the option filtering that lets one option bag configure a
  heterogeneous set of factories (:meth:`Spec.received_options`);
* **the decorator** — :meth:`Registry.register` builds the registry's spec
  type from a factory and its metadata;
* **canonical names** — lower-case, dash-separated slugs, with ``_`` folded
  to ``-`` (:func:`normalize_name`);
* **aliases** — any accepted spelling (canonical name, alias, display name)
  resolves to the same spec, case-insensitively;
* **duplicate rejection** — registering a name, alias or display name that
  any earlier registration already claimed raises the subsystem's error
  type, because duplicate names would make results ambiguous;
* **did-you-mean lookup errors** — an unknown name fails with the closest
  registered spelling and the full list of canonical names, so CLI and
  spec-file typos are self-explanatory.

Nothing here branches on which registry it serves: a spec that constructs
differently overrides :meth:`Spec.create`, as the simulator backends' does.
The unified CLI's ``python -m repro list <kind>`` subcommand enumerates
these registries through :func:`repro.cli.listing.render_listing`.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass
from typing import (Callable, Dict, Generic, List, Optional, Sequence, Tuple,
                    Type, TypeVar)

SpecT = TypeVar("SpecT")


def normalize_name(name: str) -> str:
    """Canonical form of a registry name: lower-case, ``_`` folded to ``-``."""
    return name.strip().lower().replace("_", "-")


@dataclass(frozen=True)
class Spec:
    """One registered factory plus the documentation every listing prints.

    Attributes
    ----------
    name:
        Canonical registry slug (lower-case, dash-separated), e.g.
        ``"bsor-dijkstra"``.
    factory:
        Callable building a fresh object.  :meth:`create` forwards only the
        keyword parameters its signature declares.
    display_name:
        The human-facing name result tables and listings print (``"XY"``,
        ``"BSOR-Dijkstra"``); an accepted spelling of the entry.
    aliases:
        Alternative slugs accepted by the lookup functions.
    summary:
        One-line description for CLI listings and the API docs.

    Subclasses add their subsystem's documentation fields (all defaulted).
    """

    name: str
    factory: Callable[..., object]
    display_name: str
    aliases: Tuple[str, ...] = ()
    summary: str = ""

    def accepted_options(self) -> Tuple[str, ...]:
        """The keyword options this spec's factory understands."""
        parameters = inspect.signature(self.factory).parameters
        return tuple(
            name for name, parameter in parameters.items()
            if parameter.kind in (parameter.KEYWORD_ONLY,
                                  parameter.POSITIONAL_OR_KEYWORD)
        )

    def received_options(self, **options) -> Dict[str, object]:
        """The subset of *options* the factory actually receives: the
        keywords it declares, minus ``None`` ("use the factory default")."""
        accepted = set(self.accepted_options())
        return {name: value for name, value in options.items()
                if name in accepted and value is not None}

    def create(self, **options):
        """Call the factory, keeping only the options it understands — so
        one option bag can configure a heterogeneous set of entries."""
        return self.factory(**self.received_options(**options))


class Registry(Generic[SpecT]):
    """Name -> spec registry with aliases and did-you-mean errors.

    Parameters
    ----------
    spec_type:
        The :class:`Spec` subclass :meth:`register` builds.
    kind:
        What one entry is, for lookup errors ("routing algorithm",
        "workload", "simulator backend").
    plural:
        The collection noun for lookup errors ("algorithms", "workloads",
        "backends").
    noun:
        The phrase duplicate-registration errors use for a clashing key
        ("router name", "workload name", "simulator backend name").
    error:
        The subsystem's :class:`~repro.exceptions.ReproError` subclass; every
        failure this registry raises uses it.
    """

    def __init__(self, spec_type: Type[SpecT] = Spec, *, kind: str,
                 plural: str, noun: str, error: Type[Exception]) -> None:
        self.spec_type = spec_type
        self.kind = kind
        self.plural = plural
        self.noun = noun
        self.error = error
        #: Canonical slug -> spec, in registration order.
        self.specs_by_name: Dict[str, SpecT] = {}
        #: Any accepted slug (canonical name, alias, display name) -> canonical.
        self.alias_map: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def add(self, name: str, spec: SpecT,
            extra_keys: Sequence[str] = ()) -> None:
        """Register *spec* under *name* plus already-normalized *extra_keys*.

        Raises the registry's error type when any key collides with an
        earlier registration.  Keys repeated within one registration (for
        example a display name that normalizes to the canonical name) are
        folded, not rejected.
        """
        keys = list(dict.fromkeys([name, *extra_keys]))
        for key in keys:
            if key in self.alias_map:
                raise self.error(
                    f"{self.noun} {key!r} is already registered "
                    f"(by {self.alias_map[key]!r}); duplicate names are "
                    f"rejected"
                )
        self.specs_by_name[name] = spec
        for key in keys:
            self.alias_map[key] = name

    def register(self, name: str, *, display_name: Optional[str] = None,
                 aliases: Sequence[str] = (), **metadata) -> Callable:
        """Class/function decorator registering a factory under *name*.

        Builds the registry's spec type from the factory, *display_name*
        (default: *name*), *aliases* and the spec's own *metadata* fields.
        The name, every alias and the display name become accepted
        spellings; one that an earlier registration claimed is rejected
        with the registry's error type, naming the owner.
        """

        def decorate(factory):
            spec = self.spec_type(
                name=normalize_name(name),
                factory=factory,
                display_name=display_name or name,
                aliases=tuple(normalize_name(alias) for alias in aliases),
                **metadata,
            )
            self.add(spec.name, spec,
                     extra_keys=[*spec.aliases,
                                 normalize_name(spec.display_name)])
            return factory

        return decorate

    def remove(self, name: str) -> None:
        """Forget the entry *name* resolves to: its canonical name, its
        aliases and its display name.  Unknown names fail like a lookup."""
        self.lookup(name)  # the did-you-mean error, or nothing
        canonical = self.alias_map[normalize_name(name)]
        del self.specs_by_name[canonical]
        for key in [key for key, owner in self.alias_map.items()
                    if owner == canonical]:
            del self.alias_map[key]

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Canonical names of every registered spec, in registration order."""
        return list(self.specs_by_name)

    def specs(self) -> List[SpecT]:
        """Every registered spec, in registration order."""
        return list(self.specs_by_name.values())

    def is_registered(self, name: str) -> bool:
        """Whether *name* resolves to a registered spec (aliases included)."""
        return normalize_name(name) in self.alias_map

    def lookup(self, name: str) -> SpecT:
        """Look a spec up by canonical name, alias or display name.

        Unknown names raise the registry's error type with a did-you-mean
        hint (closest accepted spelling) and the full canonical name list.
        """
        key = normalize_name(name)
        if key not in self.alias_map:
            known = sorted(self.specs_by_name)
            suggestions = difflib.get_close_matches(
                key, sorted(self.alias_map), n=1)
            hint = f" (did you mean {suggestions[0]!r}?)" if suggestions \
                else ""
            raise self.error(
                f"unknown {self.kind} {name!r}{hint}; "
                f"registered {self.plural}: {known}"
            )
        return self.specs_by_name[self.alias_map[key]]

    def create(self, name: str, **options):
        """Build the entry registered as *name* through its spec's
        ``create`` — by default the factory called with the *options* it
        understands (unknown and ``None`` ones dropped)."""
        return self.lookup(name).create(**options)
