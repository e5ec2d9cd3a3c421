"""Provenance graph of a search: who descended from whom, and how.

Captures "the arc of an NN architecture's optimization" (§2.3) as a
directed graph: nodes are evaluated models with their metrics; edges go
from parents to the offspring produced from them by crossover+mutation.
Built on :mod:`networkx` so users get its analysis/IO ecosystem.
"""

from __future__ import annotations

from repro.lineage.records import ModelRecord
from repro.nas.genome import Genome

__all__ = ["ProvenanceGraph"]


class ProvenanceGraph:
    """A DAG of architecture lineage across generations."""

    def __init__(self) -> None:
        import networkx as nx  # 0.12 s and 20 MiB: paid by whoever builds a graph, not by every import

        self.graph = nx.DiGraph()

    def add_model(self, record: ModelRecord) -> None:
        """Register a model node with its headline metrics."""
        self.graph.add_node(
            record.model_id,
            generation=record.generation,
            fitness=record.fitness,
            flops=record.flops,
            terminated_early=record.terminated_early,
            epochs_trained=record.epochs_trained,
            genome_key=Genome.from_dict(record.genome).key(),
        )

    def add_parentage(self, child_id: int, parent_ids: list[int]) -> None:
        """Record that ``child_id`` was bred from ``parent_ids``."""
        for parent in parent_ids:
            if parent not in self.graph:
                raise KeyError(f"unknown parent model {parent}")
        if child_id not in self.graph:
            raise KeyError(f"unknown child model {child_id}")
        for parent in parent_ids:
            self.graph.add_edge(parent, child_id)

    @classmethod
    def from_records(cls, records: list[ModelRecord]) -> "ProvenanceGraph":
        """Build a node-only graph from record trails (no parent info)."""
        pg = cls()
        for record in records:
            pg.add_model(record)
        return pg

    # -- queries -------------------------------------------------------------

    def generations(self) -> dict[int, list[int]]:
        """Model ids grouped by generation."""
        grouped: dict[int, list[int]] = {}
        for node, data in self.graph.nodes(data=True):
            grouped.setdefault(data["generation"], []).append(node)
        return {g: sorted(ids) for g, ids in sorted(grouped.items())}

    def ancestors(self, model_id: int) -> set:
        """All transitive parents of a model."""
        import networkx as nx

        return nx.ancestors(self.graph, model_id)

    def descendants(self, model_id: int) -> set:
        """All transitive offspring of a model."""
        import networkx as nx

        return nx.descendants(self.graph, model_id)

    def fittest_lineage(self) -> list[int]:
        """Ancestor chain (oldest first) of the highest-fitness model."""
        best = max(
            (n for n, d in self.graph.nodes(data=True) if d.get("fitness") is not None),
            key=lambda n: self.graph.nodes[n]["fitness"],
        )
        chain = sorted(
            self.ancestors(best),
            key=lambda n: (self.graph.nodes[n]["generation"], n),
        )
        return chain + [best]
