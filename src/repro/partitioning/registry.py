"""Unified partitioner registry: names → factories, one source of truth.

Every partitioner the project ships registers itself under a short CLI
name with the :func:`register` class decorator::

    @register("spnl", summary="SPN + topology locality (Eq. 6)")
    class SPNLPartitioner(SPNPartitioner): ...

and callers build instances through the one factory::

    from repro.partitioning.registry import make_partitioner
    p = make_partitioner("spnl", 32, slack=1.1, lam=0.5)

replacing the hardcoded name tuples in the CLI and the ad-hoc
name→class mappings in the bench harness.  Registration is namespaced by
*kind* — ``"vertex"`` (streaming vertex partitioners), ``"offline"``
(whole-graph baselines), ``"edge"`` (streaming edge partitioners) — so
the edge partitioner named ``random`` does not collide with the vertex
one.

The factory filters keyword arguments against the target's signature
(``ignore_unknown=True``), which lets one flag namespace (the CLI's
``--slack/--lam/--shards``) drive heterogeneous constructors; API users
get strict checking by default.  Unknown *names* always raise with the
list of registered names.

Built-in partitioners live in modules that are only imported on lookup,
one family at a time (:func:`resolve` stops at the first module that
registers the name), so importing the registry stays cheap and
dependency-free and building ``spnl`` never loads the offline or edge
partitioners; listing names (:func:`available_partitioners`, or the
error for an unknown name) loads them all.  Third-party heuristics
register by simply importing their module before calling
:func:`make_partitioner` — this is the extension point documented in
CONTRIBUTING.md.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["register", "make_partitioner", "available_partitioners",
           "resolve", "RegistryEntry"]

KINDS = ("vertex", "offline", "edge")

#: kind -> name -> entry
_REGISTRY: dict[str, dict[str, "RegistryEntry"]] = {k: {} for k in KINDS}

#: modules whose import triggers the built-in ``@register`` decorators
_BUILTIN_MODULES = (
    "repro.partitioning.ldg",
    "repro.partitioning.fennel",
    "repro.partitioning.spn",
    "repro.partitioning.spnl",
    "repro.partitioning.hashing",
    "repro.offline.multilevel",
    "repro.offline.label_propagation",
    "repro.edgepart.hdrf",
    "repro.edgepart.spnl_edge",
)
#: how many of ``_BUILTIN_MODULES`` have been imported, in order
_builtins_loaded = 0


@dataclass(frozen=True)
class RegistryEntry:
    """One registered partitioner: its name, kind, and factory."""

    name: str
    kind: str
    factory: Callable[..., Any]
    summary: str = ""
    extra_kwargs: dict[str, Any] = field(default_factory=dict)

    @property
    def is_streaming(self) -> bool:
        """Whether instances consume a :class:`VertexStream` (vs a graph)."""
        return self.kind == "vertex"


def register(name: str, *, kind: str = "vertex", summary: str = "",
             **extra_kwargs: Any) -> Callable:
    """Class decorator adding a partitioner under ``name``.

    ``extra_kwargs`` are defaults merged under the caller's kwargs at
    build time — e.g. SPNL registers with ``num_shards="auto"`` so the
    registry default matches the paper's recommended configuration.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        existing = _REGISTRY[kind].get(name)
        if existing is not None and existing.factory is not factory:
            raise ValueError(
                f"partitioner name {name!r} already registered for kind "
                f"{kind!r} by {existing.factory!r}")
        _REGISTRY[kind][name] = RegistryEntry(
            name=name, kind=kind, factory=factory, summary=summary,
            extra_kwargs=dict(extra_kwargs))
        return factory

    return decorator


def _load_next_builtin() -> bool:
    """Import the next built-in family; ``False`` once all are loaded."""
    global _builtins_loaded
    if _builtins_loaded == len(_BUILTIN_MODULES):
        return False
    _builtins_loaded += 1
    # ``__import__`` so ``python -X importtime`` reports the family.
    __import__(_BUILTIN_MODULES[_builtins_loaded - 1])
    return True


def _ensure_builtins() -> None:
    while _load_next_builtin():
        pass


def available_partitioners(kind: str | None = None) -> tuple[str, ...]:
    """Sorted names registered under ``kind`` (default: vertex+offline).

    ``kind=None`` returns everything a ``partition`` run can name — the
    streaming vertex heuristics plus the offline baselines; pass
    ``"edge"`` for the edge-partitioner namespace.
    """
    _ensure_builtins()
    if kind is not None:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        return tuple(sorted(_REGISTRY[kind]))
    names = set(_REGISTRY["vertex"]) | set(_REGISTRY["offline"])
    return tuple(sorted(names))


def resolve(name: str, *, kind: str | None = None) -> RegistryEntry:
    """Look up a registered partitioner; raise listing names if unknown.

    A registered name resolves without importing anything; otherwise the
    built-in families are imported one by one until one registers it.
    """
    kinds = (kind,) if kind is not None else ("vertex", "offline")
    while True:
        for k in kinds:
            entry = _REGISTRY[k].get(name)
            if entry is not None:
                return entry
        if not _load_next_builtin():
            break
    known = available_partitioners(kind)
    raise ValueError(
        f"unknown partitioner {name!r}; registered names: "
        f"{', '.join(known)}")


def _accepted_kwargs(factory: Callable[..., Any],
                     kwargs: dict[str, Any]) -> dict[str, Any]:
    """Drop kwargs the factory's signature cannot bind.

    A ``**kwargs`` catch-all in a class's ``__init__`` means "forwarded
    to ``super().__init__``" (the streaming heuristics all do this), so
    the accepted set is the union of named parameters along the MRO,
    walking until an ``__init__`` without a catch-all terminates the
    forwarding chain.
    """
    if inspect.isclass(factory):
        inits = [c.__dict__["__init__"] for c in factory.__mro__
                 if "__init__" in c.__dict__]
    else:
        inits = [factory]
    accepted: set[str] = set()
    for fn in inits:
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):  # builtins without signatures
            return dict(kwargs)
        params = list(sig.parameters.values())
        accepted |= {p.name for p in params
                     if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                   inspect.Parameter.KEYWORD_ONLY)}
        if not any(p.kind is inspect.Parameter.VAR_KEYWORD
                   for p in params):
            break
    else:  # every __init__ forwards **kwargs: genuinely accepts all
        return dict(kwargs)
    return {k: v for k, v in kwargs.items() if k in accepted}


def refuse_removed_kwargs(kwargs: dict[str, Any]) -> None:
    """Raise on a removed knob rather than let a filter drop it."""
    if "gamma_store" in kwargs:
        raise TypeError(
            "gamma_store was removed: the Γ table follows num_shards and "
            "gamma_buckets (gamma_buckets set: hashed; otherwise "
            "num_shards > 1: sliding window; otherwise dense)")


def make_partitioner(name: Any, num_partitions: int | None = None, *,
                     kind: str | None = None,
                     ignore_unknown: bool = False,
                     **kwargs: Any) -> Any:
    """Build a registered partitioner by name, or from a config.

    Parameters
    ----------
    name:
        A registered short name (``"spnl"``, ``"ldg"``, ``"metis"``, …) —
        unknown names raise :class:`ValueError` listing every registered
        name — or a :class:`~repro.partitioning.config.PartitionConfig`,
        in which case the config supplies the name, ``K``, and every
        tuning knob (loose ``num_partitions``/``kwargs`` are rejected as
        ambiguous).
    num_partitions:
        ``K``, forwarded positionally to every factory.  Required when
        building by name.
    kind:
        Restrict lookup to one namespace (``"vertex"``, ``"offline"``,
        ``"edge"``); default searches vertex then offline.
    ignore_unknown:
        ``True`` silently drops kwargs the factory cannot bind (the CLI
        uses this to share one flag namespace across heuristics);
        ``False`` (default) lets the constructor raise on typos.
    """
    from .config import PartitionConfig
    if isinstance(name, PartitionConfig):
        if num_partitions is not None or kwargs:
            raise TypeError(
                "pass either a PartitionConfig or name/num_partitions/"
                "kwargs, not both (ambiguous which wins)")
        config = name
        name = config.method
        num_partitions = config.num_partitions
        kwargs = config.kwargs()
        ignore_unknown = True
    elif num_partitions is None:
        raise TypeError(
            "num_partitions is required when building by name "
            "(or pass a PartitionConfig)")
    refuse_removed_kwargs(kwargs)
    entry = resolve(name, kind=kind)
    merged = dict(entry.extra_kwargs)
    merged.update(kwargs)
    if ignore_unknown:
        merged = _accepted_kwargs(entry.factory, merged)
    return entry.factory(num_partitions, **merged)
