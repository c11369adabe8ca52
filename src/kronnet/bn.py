"""Bayesian-network view of the tied-level sampling process.

Every candidate cell of every level is one binary node.  Level-0 nodes are
roots carrying their dense untied-stage probability as a prior; each node of
tied level ``lam`` has exactly one parent (the cell it refines) and the
conditional table

    P(node = 1 | parent = v) = tables[lam - 1, v][row % b, col % b]

so the network is a forest of (b*b)-ary trees, one per root.  :func:`build_bn`
gives every tied level the pair (0, theta): a dead parent kills its children
deterministically (DCSD), and a nonzero ``v = 0`` entry would be a leak.
:class:`BayesNet` stores only the config and that ``(tied_levels, 2, b, b)``
array; a node's tables are derived from its id on demand.  Ancestral
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
from .kron import _digit_product, kronecker_power
from .rng import check_seed, level_rng
from .samplers import LevelTrace, SampleTrace, SampledNetwork, Strategy, finalize_edges

NodeId = tuple[int, int, int]  # (level, row, col)

# x and y are independent given a context when the 2x2 table of joints
# P(context, x=a, y=c) has rank one: its two diagonal products agree.  They
# are compared relative to their sum, so the verdict holds at any magnitude;
# exact elimination leaves only float rounding, orders of magnitude below this.
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
    """Forest of per-level nodes; indexable by (level, row, col).

    ``tables[lam - 1, v][dr, dc]`` is P(node = 1 | parent = v) for a node of
    tied level ``lam`` at position (dr, dc) of its parent's b x b block.

    Raises:
        BadArgs: ``tables`` is not a float array of shape
            ``(cfg.tied_levels, 2, cfg.b, cfg.b)`` with entries in [0, 1].
    """

    def __init__(self, cfg: ModelConfig, tables: Any):
        try:
            arr = np.array(tables, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise BadArgs(f"tables must be a float array: {exc}") from None
        shape = (cfg.tied_levels, 2, cfg.b, cfg.b)
        if arr.shape != shape:
            raise BadArgs(f"tables shape {arr.shape} is not {shape}")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both
            raise BadArgs("table entries must lie in [0, 1]")
        arr.setflags(write=False)
        self.cfg = cfg
        self.tables = arr

    @property
    def node_count(self) -> int:
        return self.side(0) ** 2 * self.tree_size()

    def side(self, level: int) -> int:
        return self.cfg.b ** (self.cfg.untied_levels + level)

    def _check_id(self, node_id: Any) -> NodeId:
        """``node_id`` as three ints; BadArgs if malformed, IndexOutOfRange if no such node."""
        if not isinstance(node_id, (tuple, list)) or len(node_id) != 3:
            raise BadArgs(f"node id must be (level, row, col), got {node_id!r}")
        level, row, col = (check_int(part, f"node id {node_id!r} entry") for part in node_id)
        if not (0 <= level <= self.cfg.tied_levels):
            raise IndexOutOfRange(f"level {level} outside [0, {self.cfg.tied_levels + 1})")
        side = self.side(level)
        if not (0 <= row < side and 0 <= col < side):
            raise IndexOutOfRange(f"cell ({row}, {col}) outside [0, {side})^2")
        return (level, row, col)

    def node(self, node_id: NodeId) -> BnNode:
        level, row, col = self._check_id(node_id)
        b = self.cfg.b
        if level == 0:
            prior = _digit_product(self.cfg.theta, row, col, self.cfg.untied_levels)
            return BnNode((0, row, col), None, prior, None, None)
        p0, p1 = self.tables[level - 1, :, row % b, col % b]
        return BnNode((level, row, col), (level - 1, row // b, col // b), None, float(p1), float(p0))

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
        for level in range(self.cfg.tied_levels + 1):
            span = b**level
            for row in range(row0 * span, (row0 + 1) * span):
                for col in range(col0 * span, (col0 + 1) * span):
                    yield (level, row, col)

    def tree_size(self) -> int:
        """Node count of each tree (all trees are congruent)."""
        bb = self.cfg.b * self.cfg.b
        return sum(bb**level for level in range(self.cfg.tied_levels + 1))


def build_bn(cfg: ModelConfig) -> BayesNet:
    """The forest for ``cfg``: every tied level's table pair is (0, theta)."""
    tables = np.zeros((cfg.tied_levels, 2, cfg.b, cfg.b))
    tables[:, 1] = cfg.theta.entries
    return BayesNet(cfg, tables)


def check_dcsd(bn: BayesNet) -> bool:
    """True when every dead parent kills its children deterministically.

    Requires, for every non-root node, P(1 | parent=0) == 0 together with
    P(1 | parent=1) > 0; a zero seed entry breaks the second condition.
    """
    return bool(np.all(bn.tables[:, 0] == 0.0) and np.all(bn.tables[:, 1] > 0.0))


def ancestral_sample(
    bn: BayesNet, seed: int
) -> tuple[SampledNetwork, SampleTrace]:
    """Sample the forest root-to-leaves; equals the full-sweep sampler.

    Uses the same per-level streams and row-major cell order as the ci
    strategy, so identical seeds give identical networks and traces.  Each
    level is one array pass: every parent's value selects its b x b block
    of probabilities from the level's table pair, broadcast without
    repeating either, so a level holds its uniforms, its probabilities and
    the two levels' values (~17 bytes per cell) at its peak.

    Raises:
        CapExceeded: the forest holds more than ``DEFAULT_DENSE_CAP`` nodes.
    """
    seed = check_seed(seed)
    cfg = bn.cfg
    if bn.node_count > DEFAULT_DENSE_CAP:
        raise CapExceeded(
            f"forest of {bn.node_count} nodes exceeds the cap {DEFAULT_DENSE_CAP}"
        )
    b = cfg.b
    per_level = []
    for lam in range(cfg.tied_levels + 1):
        side = bn.side(lam)
        if lam == 0:
            probs = kronecker_power(cfg.theta, cfg.untied_levels).probs
        else:
            # cell (i*b + dr, j*b + dc) as [i, dr, j, dc]: P(1 | parent value)
            p0, p1 = bn.tables[lam - 1, :, None, :, None, :]
            probs = np.where(values[:, None, :, None], p1, p0).reshape(side, side)
        values = level_rng(seed, lam).random(side * side).reshape(side, side) < probs
        per_level.append(LevelTrace(lam, side * side, int(values.sum())))
    rows, cols = np.nonzero(values)
    net = finalize_edges(cfg, rows, cols)
    return net, SampleTrace(seed=seed, strategy=Strategy.CI, per_level=tuple(per_level))


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

    Exact: computes the four joints t[a][c] = P(context, x=a, y=c) by
    elimination over the assigned nodes' ancestor paths (:func:`_joint`),
    so the cost grows with the depth of the forest, not with the size of
    its trees, and no tree is too large.  Independent means the table has
    rank one: |t00*t11 - t01*t10| <= _CSI_TOL * (t00*t11 + t01*t10).  The
    rule is symmetric in x and y, relative at any magnitude, and true for
    a context that cannot occur (both sides are 0).

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

    t = [[_joint(bn, {**fixed, x: a, y: c}) for c in (0, 1)] for a in (0, 1)]
    agree, cross = t[0][0] * t[1][1], t[0][1] * t[1][0]
    return abs(agree - cross) <= _CSI_TOL * (agree + cross)
