"""The dependency graph (DAG) at the heart of S/C.

Nodes model individual MV updates; a directed edge ``(u, v)`` records that
``v``'s SQL reads the output of ``u`` (``v`` *depends on* ``u``). Each node
carries the two quantities S/C Opt consumes (paper §IV, Table II):

* ``size``  — ``s_i``, the memory footprint of the node's output table, and
* ``score`` — ``t_i``, the estimated end-to-end time saved by keeping that
  output in the Memory Catalog (*flagging* the node).

The class is intentionally small and deterministic: node iteration follows
insertion order, and all derived structures (parents/children lists) preserve
that order so optimizers using it are reproducible without extra sorting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import CycleError, GraphError, ValidationError


@dataclass
class Node:
    """A single MV update.

    Attributes:
        node_id: unique identifier within the graph.
        size: ``s_i`` — output table size (unit-agnostic; callers pick GB or
            bytes and stay consistent; must be >= 0).
        score: ``t_i`` — speedup score for flagging this node (>= 0).
        op: optional logical operation tag (``"JOIN"``, ``"AGG"``, ...) used
            by the workload generator and cost estimators.
        sql: optional SQL text defining the MV (used by the MiniDB backend).
        compute_time: optional observed/estimated compute seconds, used by the
            execution simulator; ``None`` means "derive from size".
        meta: free-form extra metadata.
    """

    node_id: str
    size: float = 0.0
    score: float = 0.0
    op: str | None = None
    sql: str | None = None
    compute_time: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValidationError("node_id must be a non-empty string")
        if not self.size >= 0:  # also rejects NaN
            raise ValidationError(
                f"node {self.node_id!r}: size must be >= 0, got {self.size}")
        if not self.score >= 0:
            raise ValidationError(
                f"node {self.node_id!r}: score must be >= 0, got {self.score}")


class DependencyGraph:
    """An acyclic dependency graph of MV updates.

    Edges point from producer to consumer: ``add_edge("a", "b")`` states that
    ``b`` reads the output of ``a``, so ``a`` must execute first and ``a``'s
    output (if flagged) stays in memory until ``b`` — and every other consumer
    of ``a`` — completes.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._children: dict[str, list[str]] = {}
        self._parents: dict[str, list[str]] = {}
        self._edge_set: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, size: float = 0.0, score: float = 0.0,
                 **kwargs) -> Node:
        """Add a node; raises :class:`GraphError` on duplicates."""
        if node_id in self._nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        node = Node(node_id=node_id, size=size, score=score, **kwargs)
        self._nodes[node_id] = node
        self._children[node_id] = []
        self._parents[node_id] = []
        return node

    def add_edge(self, producer: str, consumer: str) -> None:
        """Record that ``consumer`` depends on (reads) ``producer``."""
        if producer not in self._nodes:
            raise GraphError(f"unknown producer node {producer!r}")
        if consumer not in self._nodes:
            raise GraphError(f"unknown consumer node {consumer!r}")
        if producer == consumer:
            raise GraphError(f"self-dependency on node {producer!r}")
        if (producer, consumer) in self._edge_set:
            return  # idempotent: duplicate edges carry no extra information
        self._edge_set.add((producer, consumer))
        self._children[producer].append(consumer)
        self._parents[consumer].append(producer)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]],
                   sizes: Mapping[str, float] | None = None,
                   scores: Mapping[str, float] | None = None,
                   ) -> "DependencyGraph":
        """Build a graph from an edge list, creating nodes on first mention."""
        graph = cls()
        sizes = dict(sizes or {})
        scores = dict(scores or {})

        def ensure(node_id: str) -> None:
            if node_id not in graph:
                graph.add_node(node_id, size=sizes.get(node_id, 0.0),
                               score=scores.get(node_id, 0.0))

        for producer, consumer in edges:
            ensure(producer)
            ensure(consumer)
            graph.add_edge(producer, consumer)
        # isolated nodes mentioned only via sizes/scores
        for node_id in list(sizes) + list(scores):
            ensure(node_id)
        return graph

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    @property
    def n(self) -> int:
        """Number of nodes (``|V|``)."""
        return len(self._nodes)

    @property
    def m(self) -> int:
        """Number of edges (``|E|``)."""
        return len(self._edge_set)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def nodes(self) -> list[str]:
        """Node ids in insertion order."""
        return list(self._nodes)

    def node_objects(self) -> list[Node]:
        return list(self._nodes.values())

    def edges(self) -> list[tuple[str, str]]:
        """Edges as (producer, consumer) pairs, producer insertion order."""
        return [(u, v) for u in self._nodes for v in self._children[u]]

    def has_edge(self, producer: str, consumer: str) -> bool:
        return (producer, consumer) in self._edge_set

    def children(self, node_id: str) -> list[str]:
        """Consumers of ``node_id`` (nodes that read its output)."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        return list(self._children[node_id])

    def parents(self, node_id: str) -> list[str]:
        """Producers that ``node_id`` reads from."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        return list(self._parents[node_id])

    def out_degree(self, node_id: str) -> int:
        return len(self._children[node_id])

    def in_degree(self, node_id: str) -> int:
        return len(self._parents[node_id])

    def sources(self) -> list[str]:
        """Nodes with no dependencies (read only base tables)."""
        return [v for v in self._nodes if not self._parents[v]]

    def sinks(self) -> list[str]:
        """Nodes with no consumers inside the graph."""
        return [v for v in self._nodes if not self._children[v]]

    def size_of(self, node_id: str) -> float:
        return self.node(node_id).size

    def score_of(self, node_id: str) -> float:
        return self.node(node_id).score

    def sizes(self) -> dict[str, float]:
        """``S = {s_1, ..., s_n}`` keyed by node id."""
        return {v: node.size for v, node in self._nodes.items()}

    def scores(self) -> dict[str, float]:
        """``T = {t_1, ..., t_n}`` keyed by node id."""
        return {v: node.score for v, node in self._nodes.items()}

    def total_size(self) -> float:
        return sum(node.size for node in self._nodes.values())

    # ------------------------------------------------------------------
    # validation & copies
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`CycleError` if the graph is not acyclic."""
        cycle = self.find_cycle()
        if cycle is not None:
            raise CycleError(
                f"dependency graph contains a cycle: {' -> '.join(cycle)}",
                cycle=cycle)

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self) -> list[str] | None:
        """Return one cycle as a node-id list, or ``None`` if acyclic.

        Iterative three-color DFS so deep graphs do not hit the recursion
        limit.
        """
        white, grey, black = 0, 1, 2
        color = {v: white for v in self._nodes}
        parent: dict[str, str | None] = {}
        for root in self._nodes:
            if color[root] != white:
                continue
            parent[root] = None
            stack: list[tuple[str, Iterator[str]]] = [
                (root, iter(self._children[root]))]
            color[root] = grey
            while stack:
                node, it = stack[-1]
                advanced = False
                for child in it:
                    if color[child] == grey:
                        # reconstruct the cycle child -> ... -> node -> child
                        cycle = [child, node]
                        cursor = parent.get(node)
                        while cursor is not None and cycle[-1] != child:
                            cycle.append(cursor)
                            cursor = parent.get(cursor)
                        if cycle[-1] != child:
                            cycle.append(child)
                        cycle.reverse()
                        return cycle
                    if color[child] == white:
                        color[child] = grey
                        parent[child] = node
                        stack.append((child, iter(self._children[child])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = black
                    stack.pop()
        return None

    def copy(self) -> "DependencyGraph":
        """Deep-enough copy: nodes are re-created, meta dicts are copied."""
        clone = DependencyGraph()
        for node in self._nodes.values():
            clone.add_node(node.node_id, size=node.size, score=node.score,
                           op=node.op, sql=node.sql,
                           compute_time=node.compute_time,
                           meta=dict(node.meta))
        for producer, consumer in self.edges():
            clone.add_edge(producer, consumer)
        return clone

    def subgraph(self, node_ids: Iterable[str]) -> "DependencyGraph":
        """Induced subgraph on ``node_ids`` (order = this graph's order)."""
        keep = set(node_ids)
        unknown = keep - set(self._nodes)
        if unknown:
            raise GraphError(f"unknown nodes in subgraph: {sorted(unknown)}")
        sub = DependencyGraph()
        for node in self._nodes.values():
            if node.node_id in keep:
                sub.add_node(node.node_id, size=node.size, score=node.score,
                             op=node.op, sql=node.sql,
                             compute_time=node.compute_time,
                             meta=dict(node.meta))
        for producer, consumer in self.edges():
            if producer in keep and consumer in keep:
                sub.add_edge(producer, consumer)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DependencyGraph(n={self.n}, m={self.m}, "
                f"total_size={self.total_size():.3g})")
