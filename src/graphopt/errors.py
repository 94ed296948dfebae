"""Exception types raised across the library.

Everything derives from :class:`GraphOptError` so callers can catch one base
class.  The names describe what went wrong, not where.
"""


class GraphOptError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# model construction


class DuplicateNameError(GraphOptError):
    """A variable with this name already exists on the node."""


class InvalidBoundsError(GraphOptError):
    """Lower bound exceeds upper bound, or bounds are NaN."""


class ForeignVariableError(GraphOptError):
    """A node constraint or objective references another node's variable."""


class NotOwnedError(GraphOptError):
    """A link constraint references a node outside the owning graph."""


class SingleNodeError(GraphOptError):
    """A link constraint must couple at least two distinct nodes."""


class CycleInNestingError(GraphOptError):
    """Adding this subgraph would create a cycle in the nesting hierarchy."""


class IdCollisionError(GraphOptError):
    """A node or subgraph id is already taken within this hierarchy."""


class EmptyModelError(GraphOptError):
    """The graph holds no variables, so there is nothing to solve."""


# ---------------------------------------------------------------------------
# partitioning and restructuring


class PartitionError(GraphOptError):
    """Base class for invalid partitions."""


class NotCoveringError(PartitionError):
    """The partition misses some nodes or names unknown ones."""


class NotDisjointError(PartitionError):
    """The same node appears in more than one block."""


class EmptyBlockError(PartitionError):
    """A partition block contains no nodes."""


class LevelOutOfRangeError(GraphOptError):
    """Requested aggregation level is not smaller than the graph depth."""


class NotParentEdgeError(GraphOptError):
    """The edge to reroute is not a parent-level edge spanning two subgraphs."""


class SubgraphNotAdjacentError(GraphOptError):
    """The detour subgraph shares no edge with either endpoint of the edge."""


class NoSubgraphsError(GraphOptError):
    """The operation needs at least one subgraph."""


# ---------------------------------------------------------------------------
# decomposition structure


class StructureError(GraphOptError):
    """Base class for graphs that cannot be decomposed as requested."""


class HyperedgeSpanError(StructureError):
    """A parent-level edge touches more than two subgraphs (or a loose node)."""


class DisconnectedError(StructureError):
    """The subgraph connectivity graph is not connected."""


class CyclicStructureError(StructureError):
    """The subgraph connectivity graph contains a cycle."""


class LocalNodesAtRootError(StructureError):
    """The graph keeps nodes outside all subgraphs; move them into blocks."""


class OverlapUnsupportedError(StructureError):
    """Overlapping subgraphs cannot be decomposed; lift shared nodes first."""


class RootNotFoundError(StructureError):
    """The requested root id names no first-level subgraph."""


# ---------------------------------------------------------------------------
# solving


class NumericalBreakdownError(GraphOptError):
    """Vanishing pivots, or a row the dual simplex can neither repair nor prove infeasible."""


class NodeLimitError(GraphOptError):
    """Branch-and-bound exhausted its node budget without proving optimality."""


class IterationLimitError(GraphOptError):
    """A stage solve hit the simplex iteration limit before an optimum or a verdict."""


class SubproblemInfeasibleError(GraphOptError):
    """A conditioned subproblem is infeasible at the fixed upstream values."""


class UnboundedError(GraphOptError):
    """A stage or relaxation solve that must reach an optimum is unbounded."""


class RelaxationInfeasibleError(GraphOptError):
    """The monolithic relaxation is infeasible; no initial cuts exist."""


# ---------------------------------------------------------------------------
# serialization / CLI


class ParseError(GraphOptError):
    """The instance file is not valid JSON or misses required fields."""


class UnknownVariableError(ParseError):
    """A constraint references a node or variable that was never declared."""


class SchemaVersionError(ParseError):
    """The instance file uses an unsupported schema version."""


class UsageError(GraphOptError):
    """Bad command-line arguments."""
