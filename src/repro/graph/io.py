"""JSON and Graphviz serialization for dependency graphs."""

from __future__ import annotations

import json
from typing import Any

from repro.errors import GraphError
from repro.graph.dag import DependencyGraph

_FORMAT_VERSION = 1


def graph_to_dict(graph: DependencyGraph) -> dict[str, Any]:
    """Serialize to a plain dict (stable across versions via ``version``)."""
    return {
        "version": _FORMAT_VERSION,
        "nodes": [
            {
                "id": node.node_id,
                "size": node.size,
                "score": node.score,
                "op": node.op,
                "sql": node.sql,
                "compute_time": node.compute_time,
                "meta": node.meta,
            }
            for node in graph.node_objects()
        ],
        "edges": [[u, v] for u, v in graph.edges()],
    }


def graph_from_dict(payload: dict[str, Any]) -> DependencyGraph:
    """Inverse of :func:`graph_to_dict`; validates acyclicity."""
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise GraphError(f"unsupported graph format version: {version!r}")
    graph = DependencyGraph()
    for spec in payload.get("nodes", []):
        graph.add_node(
            spec["id"],
            size=float(spec.get("size", 0.0)),
            score=float(spec.get("score", 0.0)),
            op=spec.get("op"),
            sql=spec.get("sql"),
            compute_time=spec.get("compute_time"),
            meta=dict(spec.get("meta") or {}),
        )
    for producer, consumer in payload.get("edges", []):
        graph.add_edge(producer, consumer)
    graph.validate()
    return graph


def graph_to_json(graph: DependencyGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2)


def graph_from_json(text: str) -> DependencyGraph:
    return graph_from_dict(json.loads(text))


def save_graph(graph: DependencyGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(graph_to_json(graph))


def load_graph(path: str) -> DependencyGraph:
    with open(path, encoding="utf-8") as handle:
        return graph_from_json(handle.read())
