"""Explicit Bayesian-network view of the tied-level sampling process.

Every candidate cell of every level is one binary node.  Level-0 nodes are
roots carrying their dense untied-stage probability as a prior; each deeper
node has exactly one parent (the cell it refines) and the conditional table

    P(node = 1 | parent = 1) = theta[dr, dc]
    P(node = 1 | parent = 0) = 0

so the network is a forest of (side*side)-ary trees, one per root.  Ancestral
sampling of this forest, visiting levels in order and cells row-major, is
draw-for-draw identical to the full-sweep sampler.

Independence queries (:func:`check_csi`) are exact without enumeration: a
joint probability is a product of messages along the assigned nodes' paths
to their roots, so its cost grows with depth, not with tree size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from .config import DEFAULT_DENSE_CAP, ModelConfig, check_int
from .errors import BadArgs, CapExceeded, IndexOutOfRange
from .kron import ci_rv_count, kronecker_power
from .rng import check_seed, level_rng
from .samplers import LevelTrace, SampleTrace, SampledNetwork, Strategy, finalize_edges

NodeId = tuple[int, int, int]  # (level, row, col)

# Two conditionals closer than this are treated as equal; exact elimination
# leaves only accumulated float rounding, orders of magnitude below this.
_CSI_TOL = 1e-9


@dataclass(frozen=True)
class BnNode:
    """One binary random variable of the forest.

    Roots carry ``prior`` and no parent; non-roots carry the two conditional
    success probabilities given the parent's value.
    """

    node_id: NodeId
    parent_id: NodeId | None
    prior: float | None
    p_given_parent_one: float | None
    p_given_parent_zero: float | None

    @property
    def is_root(self) -> bool:
        return self.parent_id is None


class BayesNet:
    """Forest of per-level nodes; indexable by (level, row, col)."""

    def __init__(self, cfg: ModelConfig, levels: tuple[tuple[BnNode, ...], ...]):
        self.cfg = cfg
        self.levels = levels

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def side(self, level: int) -> int:
        return self.cfg.b ** (self.cfg.untied_levels + level)

    def _check_id(self, node_id: Any) -> NodeId:
        """``node_id`` as three ints; BadArgs if malformed, IndexOutOfRange if no such node."""
        if not isinstance(node_id, (tuple, list)) or len(node_id) != 3:
            raise BadArgs(f"node id must be (level, row, col), got {node_id!r}")
        level, row, col = (check_int(part, f"node id {node_id!r} entry") for part in node_id)
        if not (0 <= level < len(self.levels)):
            raise IndexOutOfRange(f"level {level} outside [0, {len(self.levels)})")
        side = self.side(level)
        if not (0 <= row < side and 0 <= col < side):
            raise IndexOutOfRange(f"cell ({row}, {col}) outside [0, {side})^2")
        return (level, row, col)

    def node(self, node_id: NodeId) -> BnNode:
        level, row, col = self._check_id(node_id)
        return self.levels[level][row * self.side(level) + col]

    def root_of(self, node_id: NodeId) -> NodeId:
        """Root of the tree containing ``node_id``."""
        level, row, col = self._check_id(node_id)
        shrink = self.cfg.b**level
        return (0, row // shrink, col // shrink)

    def tree_ids(self, root_id: NodeId) -> Iterator[NodeId]:
        """All node ids of one tree, level by level, row-major."""
        level0, row0, col0 = self._check_id(root_id)
        if level0 != 0:
            raise BadArgs("tree_ids expects a level-0 root id")
        b = self.cfg.b
        for level in range(len(self.levels)):
            span = b**level
            for row in range(row0 * span, (row0 + 1) * span):
                for col in range(col0 * span, (col0 + 1) * span):
                    yield (level, row, col)

    def tree_size(self) -> int:
        """Node count of each tree (all trees are congruent)."""
        bb = self.cfg.b * self.cfg.b
        return sum(bb**level for level in range(len(self.levels)))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dump of every node with parent and probabilities."""
        nodes = []
        for level in self.levels:
            for node in level:
                nodes.append(
                    {
                        "id": list(node.node_id),
                        "parent": None if node.parent_id is None else list(node.parent_id),
                        "prior": node.prior,
                        "p_given_parent_one": node.p_given_parent_one,
                        "p_given_parent_zero": node.p_given_parent_zero,
                    }
                )
        return {"node_count": self.node_count, "nodes": nodes}


def build_bn(cfg: ModelConfig, *, dense_cap: int = DEFAULT_DENSE_CAP) -> BayesNet:
    """Materialize the forest for ``cfg``.

    The node count equals the full-sweep RV count, so the same cap applies.

    Raises:
        BadArgs: ``dense_cap`` is not an integer.
        CapExceeded: the forest would hold more than ``dense_cap`` nodes.
    """
    dense_cap = check_int(dense_cap, "dense_cap")
    total = ci_rv_count(cfg)
    if total > dense_cap:
        raise CapExceeded(
            f"forest of {total} nodes exceeds the cap {dense_cap}"
        )
    b = cfg.b
    probs0 = kronecker_power(cfg.theta, cfg.untied_levels, dense_cap=dense_cap).probs
    ent = cfg.theta.entries
    levels: list[tuple[BnNode, ...]] = []
    side = cfg.b**cfg.untied_levels
    roots = tuple(
        BnNode(
            node_id=(0, row, col),
            parent_id=None,
            prior=float(probs0[row, col]),
            p_given_parent_one=None,
            p_given_parent_zero=None,
        )
        for row in range(side)
        for col in range(side)
    )
    levels.append(roots)
    for lam in range(1, cfg.tied_levels + 1):
        side *= b
        level_nodes = tuple(
            BnNode(
                node_id=(lam, row, col),
                parent_id=(lam - 1, row // b, col // b),
                prior=None,
                p_given_parent_one=float(ent[row % b, col % b]),
                p_given_parent_zero=0.0,
            )
            for row in range(side)
            for col in range(side)
        )
        levels.append(level_nodes)
    return BayesNet(cfg, tuple(levels))


def check_dcsd(bn: BayesNet) -> bool:
    """True when every dead parent kills its children deterministically.

    Requires, for every non-root node, P(1 | parent=0) == 0 together with
    P(1 | parent=1) > 0; a zero seed entry breaks the second condition.
    """
    for level in bn.levels[1:]:
        for node in level:
            if node.p_given_parent_zero != 0.0:
                return False
            if not (node.p_given_parent_one is not None and node.p_given_parent_one > 0.0):
                return False
    return True


def ancestral_sample(
    bn: BayesNet, seed: int
) -> tuple[SampledNetwork, SampleTrace]:
    """Sample the forest root-to-leaves; equals the full-sweep sampler.

    Uses the same per-level streams and row-major cell order as the ci
    strategy, so identical seeds give identical networks and traces.
    """
    seed = check_seed(seed)
    cfg = bn.cfg
    values: np.ndarray | None = None
    trace_entries: list[tuple[int, int, int]] = []
    for lam, level_nodes in enumerate(bn.levels):
        side = bn.side(lam)
        uniforms = level_rng(seed, lam).random(side * side)
        new_values = np.empty(side * side, dtype=bool)
        for flat, node in enumerate(level_nodes):
            if node.is_root:
                prob = node.prior
            else:
                parent_level, parent_row, parent_col = node.parent_id
                parent_flat = parent_row * bn.side(parent_level) + parent_col
                if values[parent_flat]:
                    prob = node.p_given_parent_one
                else:
                    prob = node.p_given_parent_zero
            new_values[flat] = uniforms[flat] < prob
        values = new_values
        trace_entries.append((lam, side * side, int(values.sum())))
    side = bn.side(len(bn.levels) - 1)
    idx = np.flatnonzero(values)
    net = finalize_edges(cfg, idx // side, idx % side)
    trace = SampleTrace(
        seed=seed,
        strategy=Strategy.CI,
        per_level=tuple(LevelTrace(*entry) for entry in trace_entries),
    )
    return net, trace


def _joint(bn: BayesNet, assignment: Mapping[NodeId, int]) -> float:
    """P(assignment), every unassigned node summed out.

    A subtree holding no assigned node sums to 1, so only the assigned
    nodes and their ancestors are visited, deepest first.  Each such node
    sends its parent the pair P(assigned values in its subtree | parent =
    0, 1): the product of its own path children's pairs at each of its
    values, weighted by its table and summed over its allowed values.
    """
    b = bn.cfg.b
    parent: dict[NodeId, NodeId | None] = {}
    for nid in assignment:
        while nid is not None and nid not in parent:
            level, row, col = nid
            parent[nid] = (level - 1, row // b, col // b) if level else None
            nid = parent[nid]
    below = {nid: [1.0, 1.0] for nid in parent}  # children's pairs, multiplied
    prob = 1.0
    for nid in sorted(parent, reverse=True):
        node = bn.node(nid)
        wanted = assignment.get(nid)
        # the subtree's weight with this node at 0 and at 1; 0 where not allowed
        at0 = below[nid][0] if wanted != 1 else 0.0
        at1 = below[nid][1] if wanted != 0 else 0.0
        if node.is_root:
            prob *= (1.0 - node.prior) * at0 + node.prior * at1
        else:
            p0, p1 = node.p_given_parent_zero, node.p_given_parent_one
            pair = below[parent[nid]]
            pair[0] *= (1.0 - p0) * at0 + p0 * at1
            pair[1] *= (1.0 - p1) * at0 + p1 * at1
    return prob


def check_csi(
    bn: BayesNet,
    x: NodeId,
    y: NodeId,
    context: Mapping[NodeId, int] | None = None,
) -> bool:
    """Decide whether x and y are independent given the fixed ``context``.

    Exact: computes the four joints P(context, x=a, y=c) by elimination
    over the assigned nodes' ancestor paths (:func:`_joint`), so the cost
    grows with the depth of the forest, not with the size of its trees,
    and no tree is too large.  Then compares P(x=1 | y, context) with
    P(x=1 | context) for each y value of positive probability.  Contexts
    that cannot occur make the condition vacuous (returns True).

    Raises:
        BadArgs: a node id is not three integers, a context value is not
            the integer 0 or 1, x == y, or x or y appears in the context.
        IndexOutOfRange: an id does not name a node.
    """
    x = bn._check_id(x)
    y = bn._check_id(y)
    if x == y:
        raise BadArgs("x and y must be distinct nodes")
    fixed: dict[NodeId, int] = {}
    for nid, value in (context or {}).items():
        nid = bn._check_id(nid)
        value = check_int(value, f"context value for {nid}")
        if value not in (0, 1):
            raise BadArgs(f"context value for {nid} must be 0 or 1, got {value!r}")
        fixed[nid] = value
    if x in fixed or y in fixed:
        raise BadArgs("x and y must not be assigned by the context")

    totals = np.array(
        [[_joint(bn, {**fixed, x: a, y: c}) for c in (0, 1)] for a in (0, 1)]
    )  # [x value, y value]
    total_mass = float(totals.sum())
    if total_mass == 0.0:
        return True
    p_x_given_context = (totals[1, 0] + totals[1, 1]) / total_mass
    for yv in (0, 1):
        mass_y = totals[0, yv] + totals[1, yv]
        if mass_y > 0.0:
            p_x_given_y = totals[1, yv] / mass_y
            if abs(p_x_given_y - p_x_given_context) > _CSI_TOL:
                return False
    return True
