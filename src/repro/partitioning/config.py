"""``PartitionConfig`` — the one frozen object describing a partitioning run.

The knob set accepted by the heuristics grew one keyword at a time
(``slack``, ``lam``, ``num_shards``, ``in_estimator``, …) until every
layer that builds a partitioner — the facade, the CLI, the bench
harness, and now the placement service — was threading the same
positional-kwarg sprawl through its own signature.
:class:`PartitionConfig` replaces that: one immutable, hashable,
JSON-round-trippable value object that :func:`~repro.partitioning.registry
.make_partitioner`, :func:`repro.partition_stream`, and the service boot
path all accept directly::

    from repro import PartitionConfig, partition_stream

    cfg = PartitionConfig(method="spnl", num_partitions=32, slack=1.1)
    result = partition_stream(graph, cfg)
    faster = cfg.replace(num_partitions=64)      # derived configs

Every field except ``method``/``num_partitions`` defaults to ``None``,
meaning "use the registry/constructor default" — so a config never
overrides a heuristic's own defaults unless the caller asked it to, and
``cfg.kwargs()`` contains exactly the knobs that were set.  Unknown keys
for a given method are dropped at build time (the registry's
``ignore_unknown`` filtering), which is what lets one config type span
heterogeneous constructors.

The old kwarg-sprawl call style (``partition_stream(graph, "spnl", 32,
slack=1.2, …)``) raises :class:`TypeError` naming this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

__all__ = ["PartitionConfig"]

#: Fields that identify the run rather than tune the heuristic.
_IDENTITY_FIELDS = ("method", "num_partitions")


@dataclass(frozen=True)
class PartitionConfig:
    """Immutable description of one partitioning run.

    Parameters
    ----------
    method:
        Registered partitioner name (``repro.available_partitioners()``).
    num_partitions:
        ``K``.
    slack:
        Balance threshold ``δ`` in ``C = δ·|G|/K``.
    lam:
        SPN/SPNL's λ weighting out-neighbor intersection vs in-neighbor
        expectation.
    num_shards:
        Sliding-window ``X`` (int, or ``"auto"`` for the paper's rule).
    in_estimator:
        SPN's in-neighbor term variant.
    balance / edge_slack / overflow:
        Shared capacity policy (see
        :class:`~repro.partitioning.base.StreamingPartitioner`).
    seed:
        RNG seed for the randomized baselines (``random``, …).
    extra:
        Escape hatch for heuristic-specific knobs this dataclass does
        not name (e.g. third-party partitioners registered via
        ``@register``).  Stored as a sorted tuple of pairs so the config
        stays hashable; pass a mapping.

    Every tuning field defaults to ``None`` — "defer to the registry /
    constructor default" — so ``PartitionConfig(method="spnl")`` builds
    exactly what ``make_partitioner("spnl", 32)`` builds.
    """

    method: str = "spnl"
    num_partitions: int = 32
    slack: float | None = None
    lam: float | None = None
    num_shards: int | str | None = None
    in_estimator: str | None = None
    balance: str | None = None
    edge_slack: float | None = None
    overflow: str | None = None
    seed: int | None = None
    extra: Any = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method:
            raise ValueError(f"method must be a non-empty partitioner "
                             f"name, got {self.method!r}")
        if int(self.num_partitions) < 1:
            raise ValueError("num_partitions must be >= 1")
        object.__setattr__(self, "num_partitions", int(self.num_partitions))
        if self.slack is not None and float(self.slack) < 1.0:
            raise ValueError("slack (the paper's δ) must be >= 1.0")
        if self.lam is not None and not 0.0 <= float(self.lam) <= 1.0:
            raise ValueError("lam (λ) must lie in [0, 1]")
        extra = self.extra
        if isinstance(extra, Mapping):
            extra = tuple(sorted(extra.items()))
        elif extra is None:
            extra = ()
        else:
            extra = tuple((str(k), v) for k, v in extra)
        for key, _value in extra:
            if key in {f.name for f in fields(self)}:
                raise ValueError(
                    f"extra key {key!r} shadows a named config field; "
                    f"set the field directly")
        object.__setattr__(self, "extra", extra)

    # -- building ------------------------------------------------------
    def kwargs(self) -> dict[str, Any]:
        """The explicitly-set tuning knobs as constructor kwargs.

        ``method``/``num_partitions`` are excluded (they travel
        positionally); ``None`` fields are omitted entirely so registry
        and constructor defaults stay in charge of anything unset.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            if f.name in _IDENTITY_FIELDS or f.name == "extra":
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        out.update(dict(self.extra))
        return out

    def make(self, *, kind: str | None = None) -> Any:
        """Build the configured partitioner through the registry.

        Unknown knobs are dropped per-method (``ignore_unknown=True``),
        which is what lets one config describe heterogeneous
        constructors; unknown *names* still raise with the full
        registered list.
        """
        from .registry import make_partitioner
        return make_partitioner(self.method, self.num_partitions,
                                kind=kind, ignore_unknown=True,
                                **self.kwargs())

    # -- derivation / round-tripping -----------------------------------
    def replace(self, **changes: Any) -> "PartitionConfig":
        """A copy with ``changes`` applied (frozen dataclasses can't
        mutate)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict: identity fields + every explicitly-set knob.

        The inverse of :meth:`from_dict`; used by the service's
        ``hello``/``stats`` endpoints and the bench artifacts so a
        running server can state exactly what it was booted with.
        """
        out: dict[str, Any] = {"method": self.method,
                               "num_partitions": self.num_partitions}
        out.update(self.kwargs())
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PartitionConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Keys this dataclass does not name land in ``extra`` instead of
        raising, so configs serialized by a *newer* repro with more
        fields still load (forward compatibility mirrors the wire
        protocol's additive-fields rule).
        """
        known = {f.name for f in fields(cls)} - {"extra"}
        named = {k: v for k, v in payload.items() if k in known}
        extra = {k: v for k, v in payload.items() if k not in known}
        return cls(**named, extra=extra)
