"""Logical job graphs and the fluent builder API.

A :class:`JobGraph` is a DAG of operator nodes connected by edges that carry
a partitioning strategy.  The builder gives the familiar fluent style::

    builder = JobGraphBuilder("wordcount")
    words = builder.source("lines", lambda: MySource(), parallelism=2)
    counts = (words
        .key_by(lambda line: line.word)
        .process("count", lambda: CountOperator()))
    counts.sink("out", lambda: LogSink("out-topic"))
    graph = builder.build()
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import JobError

#: Edge partitioning strategies.
FORWARD = "forward"
HASH = "hash"
REBALANCE = "rebalance"
BROADCAST = "broadcast"

_PARTITIONINGS = (FORWARD, HASH, REBALANCE, BROADCAST)


class LogicalNode:
    """One operator in the job graph (replicated ``parallelism`` times)."""

    def __init__(
        self,
        node_id: int,
        name: str,
        factory: Callable[[], Any],
        parallelism: int,
        is_source: bool = False,
        is_sink: bool = False,
    ):
        if parallelism < 1:
            raise JobError(f"node {name!r}: parallelism must be >= 1")
        self.node_id = node_id
        self.name = name
        self.factory = factory
        self.parallelism = parallelism
        self.is_source = is_source
        self.is_sink = is_sink
        self.inputs: List["LogicalEdge"] = []
        self.outputs: List["LogicalEdge"] = []

    def __repr__(self) -> str:
        return f"LogicalNode({self.name!r}, p={self.parallelism})"


class LogicalEdge:
    """A directed stream between two nodes."""

    def __init__(
        self,
        upstream: LogicalNode,
        downstream: LogicalNode,
        partitioning: str,
        key_selector: Optional[Callable[[Any], Any]] = None,
        input_index: int = 0,
    ):
        if partitioning not in _PARTITIONINGS:
            raise JobError(f"unknown partitioning {partitioning!r}")
        if partitioning == HASH and key_selector is None:
            raise JobError("hash partitioning requires a key selector")
        if partitioning == FORWARD and upstream.parallelism != downstream.parallelism:
            raise JobError(
                f"forward edge {upstream.name}->{downstream.name} requires equal "
                f"parallelism ({upstream.parallelism} != {downstream.parallelism})"
            )
        self.upstream = upstream
        self.downstream = downstream
        self.partitioning = partitioning
        self.key_selector = key_selector
        #: Which logical input of the downstream operator this edge feeds
        #: (joins have two).
        self.input_index = input_index

    def __repr__(self) -> str:
        return (
            f"LogicalEdge({self.upstream.name}->{self.downstream.name}, "
            f"{self.partitioning})"
        )


class JobGraph:
    """A validated logical dataflow graph."""

    def __init__(self, name: str, nodes: List[LogicalNode], edges: List[LogicalEdge]):
        self.name = name
        self.nodes = nodes
        self.edges = edges
        self._validate()

    def _validate(self) -> None:
        if not any(n.is_source for n in self.nodes):
            raise JobError("job graph has no source")
        for node in self.nodes:
            if not node.is_source and not node.inputs:
                raise JobError(f"non-source node {node.name!r} has no inputs")
            if node.is_source and node.inputs:
                raise JobError(f"source node {node.name!r} has inputs")
        self.topological_order()  # raises on cycles

    def node_by_name(self, name: str) -> LogicalNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise JobError(f"no node named {name!r}")

    def topological_order(self) -> List[LogicalNode]:
        in_degree = {node.node_id: len(node.inputs) for node in self.nodes}
        by_id = {node.node_id: node for node in self.nodes}
        frontier = [n for n in self.nodes if in_degree[n.node_id] == 0]
        order: List[LogicalNode] = []
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for edge in node.outputs:
                in_degree[edge.downstream.node_id] -= 1
                if in_degree[edge.downstream.node_id] == 0:
                    frontier.append(by_id[edge.downstream.node_id])
        if len(order) != len(self.nodes):
            raise JobError("job graph contains a cycle")
        return order

    def depth_of(self, node: LogicalNode) -> int:
        """Longest path from any source (sources have depth 0)."""
        depths: Dict[int, int] = {}
        for n in self.topological_order():
            if n.is_source:
                depths[n.node_id] = 0
            else:
                depths[n.node_id] = 1 + max(
                    depths[e.upstream.node_id] for e in n.inputs
                )
        return depths[node.node_id]

    @property
    def depth(self) -> int:
        """Maximum graph depth D (Section 5.3)."""
        return max(self.depth_of(n) for n in self.nodes)

    @property
    def total_tasks(self) -> int:
        return sum(n.parallelism for n in self.nodes)

    def __repr__(self) -> str:
        return f"JobGraph({self.name!r}, nodes={len(self.nodes)}, D={self.depth})"


class DataStream:
    """Fluent handle over a node's output during graph construction."""

    def __init__(self, builder: "JobGraphBuilder", node: LogicalNode):
        self._builder = builder
        self._node = node
        self._partitioning = FORWARD
        self._key_selector: Optional[Callable[[Any], Any]] = None

    # -- partitioning modifiers -------------------------------------------------

    def key_by(self, key_selector: Callable[[Any], Any]) -> "DataStream":
        stream = DataStream(self._builder, self._node)
        stream._partitioning = HASH
        stream._key_selector = key_selector
        return stream

    def rebalance(self) -> "DataStream":
        stream = DataStream(self._builder, self._node)
        stream._partitioning = REBALANCE
        return stream

    def broadcast(self) -> "DataStream":
        stream = DataStream(self._builder, self._node)
        stream._partitioning = BROADCAST
        return stream

    # -- operator attachment ------------------------------------------------------

    def process(
        self,
        name: str,
        factory: Callable[[], Any],
        parallelism: Optional[int] = None,
    ) -> "DataStream":
        """Attach an arbitrary operator; returns its output stream."""
        node = self._builder._add_node(name, factory, parallelism or self._node.parallelism)
        self._builder._add_edge(self._node, node, self._partitioning, self._key_selector)
        return DataStream(self._builder, node)

    def sink(
        self,
        name: str,
        factory: Callable[[], Any],
        parallelism: Optional[int] = None,
    ) -> LogicalNode:
        node = self._builder._add_node(
            name, factory, parallelism or self._node.parallelism, is_sink=True
        )
        self._builder._add_edge(self._node, node, self._partitioning, self._key_selector)
        return node

    @property
    def node(self) -> LogicalNode:
        return self._node


class JobGraphBuilder:
    """Accumulates nodes/edges and produces a validated :class:`JobGraph`."""

    def __init__(self, name: str):
        self.name = name
        self._nodes: List[LogicalNode] = []
        self._edges: List[LogicalEdge] = []
        self._names: set = set()

    def source(
        self, name: str, factory: Callable[[], Any], parallelism: int = 1
    ) -> DataStream:
        node = self._add_node(name, factory, parallelism, is_source=True)
        return DataStream(self, node)

    def connect(
        self,
        left: DataStream,
        right: DataStream,
        name: str,
        factory: Callable[[], Any],
        parallelism: Optional[int] = None,
    ) -> DataStream:
        """Attach a two-input operator fed by ``left`` (input 0) and
        ``right`` (input 1)."""
        node = self._add_node(name, factory, parallelism or left._node.parallelism)
        self._add_edge(left._node, node, left._partitioning, left._key_selector, 0)
        self._add_edge(right._node, node, right._partitioning, right._key_selector, 1)
        return DataStream(self, node)

    def _add_node(
        self,
        name: str,
        factory: Callable[[], Any],
        parallelism: int,
        is_source: bool = False,
        is_sink: bool = False,
    ) -> LogicalNode:
        if name in self._names:
            raise JobError(f"duplicate node name {name!r}")
        self._names.add(name)
        node = LogicalNode(len(self._nodes), name, factory, parallelism, is_source, is_sink)
        self._nodes.append(node)
        return node

    def _add_edge(
        self,
        upstream: LogicalNode,
        downstream: LogicalNode,
        partitioning: str,
        key_selector: Optional[Callable[[Any], Any]],
        input_index: int = 0,
    ) -> LogicalEdge:
        edge = LogicalEdge(upstream, downstream, partitioning, key_selector, input_index)
        upstream.outputs.append(edge)
        downstream.inputs.append(edge)
        self._edges.append(edge)
        return edge

    def build(self) -> JobGraph:
        return JobGraph(self.name, list(self._nodes), list(self._edges))
