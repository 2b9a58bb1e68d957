"""Scenario registry: named ``(mapping, source)`` pairs, compiled once.

A *scenario* is a named data-exchange deployment: an annotated schema mapping,
an optional set of target dependencies, and a live source instance.  The
registry compiles each distinct mapping exactly once
(:func:`~repro.analysis.compiled.compile_mapping`: Skolemization, the per-STD
trigger plan, the tiered termination gate), keyed by its structural
:func:`mapping_fingerprint`, and shares the compilation between every
scenario that uses the mapping.  Registration hands back a
:class:`~repro.serving.materialized.MaterializedExchange` (or a
:class:`~repro.serving.sharding.ShardedExchange`), the long-lived object
queries and updates are served from.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.analysis.compiled import CompiledMapping, compile_mapping
from repro.analysis.shardability import PartitionSpec
from repro.chase.dependencies import EGD, TGD
from repro.core.mapping import SchemaMapping
from repro.relational.instance import Instance
from repro.serving.materialized import MaterializedExchange
from repro.serving.sharding import ShardedExchange


def mapping_fingerprint(
    mapping: SchemaMapping, target_dependencies: Sequence[TGD | EGD] = ()
) -> str:
    """A structural identity for ``(mapping, target dependencies)``.

    Two *structurally equal* inputs — same schemas, same STD rules (heads,
    annotations, bodies, in order), same dependencies — share a fingerprint
    regardless of object identity, so the registry compiles them once; and
    the string is stable across processes (it is built from the library's
    deterministic ``repr`` forms, the same property the query-fingerprint
    cache keys rely on), so it can key external compilation caches too.
    STD order matters by design: trigger keys and justification nulls embed
    the STD index, so reordered mappings are deliberately distinct.
    """
    source = sorted((r.name, r.arity) for r in mapping.source.relations())
    target = sorted((r.name, r.arity) for r in mapping.target.relations())
    stds = "; ".join(repr(std) for std in mapping.stds)
    deps = "; ".join(repr(dep) for dep in target_dependencies)
    return f"source={source!r}|target={target!r}|stds={stds}|deps={deps}"


class ScenarioRegistry:
    """Registry of named scenarios sharing per-mapping compilations.

    ``register`` copies the supplied source instance (the registry owns the
    live state; callers mutate it through the returned
    :class:`~repro.serving.materialized.MaterializedExchange` update API, never
    by touching the original instance).
    """

    def __init__(self) -> None:
        # Compilation cache keyed by the *structural* fingerprint of
        # (mapping, dependency tuple): structurally equal mappings compile
        # once however many objects spell them, and the key stays meaningful
        # across processes.  Each scenario records its compilation key so
        # deregistration can evict compilations no registered scenario uses
        # any more.
        self._compilations: dict[str, CompiledMapping] = {}
        self._scenarios: dict[str, MaterializedExchange | ShardedExchange] = {}
        self._scenario_keys: dict[str, str] = {}

    @staticmethod
    def _compilation_key(
        mapping: SchemaMapping,
        target_dependencies: Sequence[TGD | EGD],
        drop_redundant: bool = False,
    ) -> str:
        key = mapping_fingerprint(mapping, target_dependencies)
        # A lint-dropped trigger plan is a different compilation artifact
        # than the full one; never let the two alias in the cache.
        return f"{key}|drop=1" if drop_redundant else key

    def compile(
        self,
        mapping: SchemaMapping,
        target_dependencies: Sequence[TGD | EGD] = (),
        drop_redundant: bool = False,
    ) -> CompiledMapping:
        key = self._compilation_key(mapping, target_dependencies, drop_redundant)
        compiled = self._compilations.get(key)
        if compiled is None:
            compiled = compile_mapping(
                mapping, target_dependencies, drop_redundant=drop_redundant
            )
            self._compilations[key] = compiled
        return compiled

    def register(
        self,
        name: str,
        mapping: SchemaMapping,
        source: Instance,
        target_dependencies: Sequence[TGD | EGD] = (),
        max_chase_steps: int | None = None,
        cache_capacity: int | None = None,
        shards: int | None = None,
        partition_keys: Mapping[str, int] | None = None,
        shard_workers: int | str | None = None,
        force_residual: bool = False,
        drop_redundant: bool = False,
    ) -> MaterializedExchange | ShardedExchange:
        """Register a scenario (see the class docstring).

        With ``shards`` given, the scenario materializes as a
        :class:`~repro.serving.sharding.ShardedExchange`: ``shards`` worker
        shards plus a residual shard, partitioned on ``partition_keys``
        (position per source relation, default ``0``), updated through a
        ``shard_workers``-wide pool.  ``shard_workers="process"`` instead
        moves each shard's exchange into a dedicated worker process
        (beyond-GIL scatter evaluation; deltas and answers cross as
        pickled tuples).  ``force_residual=True`` skips the
        shardability analysis and routes everything to the residual shard —
        the always-correct degenerate configuration differential tests pin
        the analysis against.
        """
        if name in self._scenarios:
            raise ValueError(f"scenario {name!r} is already registered")
        if shards is None and (
            partition_keys is not None or shard_workers is not None or force_residual
        ):
            raise ValueError(
                "partition_keys/shard_workers/force_residual require shards=N "
                "(did you forget to pass shards?)"
            )
        key = self._compilation_key(mapping, target_dependencies, drop_redundant)
        compiled = self._compilations.get(key)
        if compiled is None:
            compiled = compile_mapping(
                mapping, target_dependencies, drop_redundant=drop_redundant
            )
        # Materialization may fail (e.g. an egd conflict); cache the
        # compilation only once the scenario actually registers, so failed
        # registrations leave nothing pinned behind.
        if shards is not None:
            worker_mode = "thread"
            max_workers = shard_workers
            if isinstance(shard_workers, str):
                if shard_workers != "process":
                    raise ValueError(
                        f"shard_workers={shard_workers!r}: expected an int "
                        'pool width or the string "process"'
                    )
                worker_mode = "process"
                max_workers = None
            exchange = ShardedExchange(
                name,
                compiled,
                source,
                PartitionSpec(shards, partition_keys or {}),
                max_chase_steps=max_chase_steps,
                cache_capacity=cache_capacity,
                max_workers=max_workers,
                force_residual=force_residual,
                worker_mode=worker_mode,
            )
        else:
            exchange = MaterializedExchange(
                name,
                compiled,
                source,
                max_chase_steps=max_chase_steps,
                cache_capacity=cache_capacity,
            )
        self._compilations[key] = compiled
        self._scenarios[name] = exchange
        self._scenario_keys[name] = key
        return exchange

    def get(self, name: str) -> MaterializedExchange | ShardedExchange:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(f"no scenario named {name!r} is registered") from None

    def deregister(self, name: str) -> None:
        exchange = self._scenarios.pop(name, None)
        if exchange is not None:
            exchange.close()
        key = self._scenario_keys.pop(name, None)
        if key is not None and key not in self._scenario_keys.values():
            self._compilations.pop(key, None)

    def names(self) -> list[str]:
        return sorted(self._scenarios)

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[MaterializedExchange | ShardedExchange]:
        return iter(self._scenarios[name] for name in self.names())

    def __contains__(self, name: object) -> bool:
        return name in self._scenarios
