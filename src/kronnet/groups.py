"""Grouping cells by shared probability for collective binomial sampling.

Used by ``gp`` to draw level 0 when its untied grid is large, on the plain
and the tied model alike (``grid_groups`` of the config cut to its untied
levels).  A cell's probability is the product of one seed value per level,
so it depends only on how many levels pick each distinct value
(``theta_value_classes``).  Exponent multisets over the distinct values
enumerate the possible products; equal float products are merged
(``grid_groups``).  Cells inside a group are addressed by an exact integer
rank, so group membership is never materialized; :class:`GridUnranker`
maps all the ranks drawn in one run to their cells with one pass of int64
array arithmetic over the leading levels and one gather from a table of the
last levels' sub-grid.  Tied levels are not grouped: ``gp`` draws them
exactly as ``dcsd`` does.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .config import I64_MAX, ModelConfig, ThetaMatrix
from .errors import BadArgs, GroupCapExceeded, Overflow

DEFAULT_GROUP_CAP = 100_000
# GridUnranker tabulates the sub-grid of as many last levels as fit in this
# many cells (10 levels at b = 2, 6 at b = 3), at 4 bytes a cell.  Unranking
# one K = ell = 12 draw of the worked seed (36,563 cells, 2 vCPUs) took 24 ms
# with no table, 10 ms with 2**16 cells, 7.3 ms with 2**20 and 4.2 ms with
# 2**22, whose table takes 16 MB and 19 ms to build (2**20: 4 MB, 12 ms).
_TAIL_CELLS = 1 << 20


@dataclass(frozen=True)
class ValueClass:
    """One distinct seed value and the block positions carrying it.

    Positions are flat offsets dr*side + dc into the seed matrix, ascending.
    """

    value: float
    positions: tuple[int, ...]


@dataclass(frozen=True)
class ExponentDescriptor:
    """Cells whose probability uses each distinct value a fixed number of times.

    ``exponents[t]`` counts the levels assigned to value class ``t``; the
    descriptor covers ``sequences`` cells: ``arrangements``, the multinomial
    count of ways to assign the classes to levels, times ``members``,
    ``prod(multiplicity_t ** exponents[t])`` choices of concrete block
    position per level.
    """

    exponents: tuple[int, ...]
    arrangements: int
    members: int

    @property
    def sequences(self) -> int:
        return self.arrangements * self.members


@dataclass(frozen=True)
class ProbabilityGroup:
    """A maximal set of cells sharing one probability.

    Attributes:
        prob: the shared cell probability.
        size: exact number of cells in the group.
        cell_source: the exponent descriptors whose cells make up the group,
            in rank order.
    """

    prob: float
    size: int
    cell_source: tuple[ExponentDescriptor, ...]

    def __post_init__(self) -> None:
        if self.size < 0:
            raise BadArgs(f"group size must be >= 0, got {self.size}")


def theta_value_classes(theta: ThetaMatrix) -> tuple[ValueClass, ...]:
    """Distinct seed values with their block positions, descending by value."""
    by_value: dict[float, list[int]] = {}
    flat = theta.flat
    for offset in range(flat.shape[0]):
        by_value.setdefault(float(flat[offset]), []).append(offset)
    return tuple(
        ValueClass(value=v, positions=tuple(pos))
        for v, pos in sorted(by_value.items(), key=lambda item: -item[0])
    )


def _multinomial(counts) -> int:
    total = sum(counts)
    value = math.factorial(total)
    for c in counts:
        value //= math.factorial(c)
    return value


def _exponent_multisets(total: int, parts: int):
    # Deterministic order: first component descending, recursively.
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponent_multisets(total - first, parts - 1):
            yield (first,) + rest


def grid_groups(cfg: ModelConfig) -> tuple[tuple[ValueClass, ...], tuple[ProbabilityGroup, ...]]:
    """Probability groups covering the whole ``levels``-fold grid, as if
    every level were untied.

    Returns the value classes (fixing class indices used by descriptors) and
    the groups sorted by descending probability.  Descriptors whose float
    products coincide are merged into one group; the union of all groups has
    exactly (side*side)**levels cells.

    Raises:
        GroupCapExceeded: more exponent multisets than ``DEFAULT_GROUP_CAP``.
    """
    classes = theta_value_classes(cfg.theta)
    m = len(classes)
    n_multisets = math.comb(cfg.levels + m - 1, m - 1)
    if n_multisets > DEFAULT_GROUP_CAP:
        raise GroupCapExceeded(
            f"{n_multisets} exponent multisets exceed the group cap {DEFAULT_GROUP_CAP}"
        )
    merged: dict[float, list[ExponentDescriptor]] = {}
    for exponents in _exponent_multisets(cfg.levels, m):
        members = math.prod(len(cls.positions) ** exp for cls, exp in zip(classes, exponents))
        desc = ExponentDescriptor(exponents, _multinomial(exponents), members)
        prob = math.prod(cls.value**exp for cls, exp in zip(classes, exponents))
        merged.setdefault(float(prob), []).append(desc)
    groups = tuple(
        ProbabilityGroup(
            prob=prob,
            size=sum(d.sequences for d in descs),
            cell_source=tuple(descs),
        )
        for prob, descs in sorted(merged.items(), key=lambda item: -item[0])
    )
    return classes, groups


class GridUnranker:
    """Integer tables that turn whole-grid group ranks into grid cells.

    Built once per grouping.  Descriptors are numbered in group order, then
    in each group's rank order; per descriptor the tables hold its exponents
    (one column per value class), its member count ``prod(multiplicity_t **
    exponents[t])`` and its arrangement count (the multinomial of its
    exponents), and per group the rank at which each descriptor starts.  The
    block positions of all classes are laid end to end, so class ``t``'s
    ``d``-th position is ``positions[first[t] + d]``.  Groups of more than
    ``2**63 - 1`` cells get no tables, so their ranks are refused.

    The last ``tail`` levels, as many as keep their sub-grid within
    ``_TAIL_CELLS`` cells, are tabulated whole (``_tail_table``): for each
    multiset of ``tail`` class counts (a node), its sub-cells in rank order,
    so ``cells`` unranks those levels with one gather.
    """

    def __init__(
        self,
        classes: tuple[ValueClass, ...],
        groups: tuple[ProbabilityGroup, ...],
        levels: int,
        base: int,
    ) -> None:
        self.levels = levels
        self.base = base
        sizes = [len(cls.positions) for cls in classes]
        self._radix = np.asarray(sizes, dtype=np.int64)
        self._first = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        positions = np.concatenate(
            [np.asarray(cls.positions, dtype=np.int64) for cls in classes]
        )
        self._pos_row, self._pos_col = np.divmod(positions, base)
        descs: list[ExponentDescriptor] = []
        starts: list[tuple[int, np.ndarray] | None] = []
        for group in groups:
            if group.size > I64_MAX:
                starts.append(None)
                continue
            first = len(descs)
            offsets = [0]
            for desc in group.cell_source:
                descs.append(desc)
                offsets.append(offsets[-1] + desc.sequences)
            starts.append((first, np.asarray(offsets[:-1], dtype=np.int64)))
        self._starts = starts
        exponents = np.asarray([d.exponents for d in descs], dtype=np.int64)
        self._exponents = exponents.reshape(-1, len(classes)).T
        self._members = np.asarray([d.members for d in descs], dtype=np.int64)
        self._arrangements = np.asarray([d.arrangements for d in descs], dtype=np.int64)
        tail = 0
        while tail < levels and (base * base) ** (tail + 1) <= _TAIL_CELLS:
            tail += 1
        self.tail = tail
        # colex[j][p]: _node_ranks' term for classes 0..j holding p tail levels
        self._colex = [
            np.asarray([math.comb(p + j, j + 1) for p in range(tail + 1)], dtype=np.int64)
            for j in range(len(classes) - 1)
        ]
        self._node_start, self._node_members, self._sub_cells = self._tail_table()

    def _tail_table(self):
        """Every node's sub-cells, in rank order, as ``row * side + col``
        inside the sub-grid of the last ``tail`` levels (``side`` cells
        wide), built depth by depth from one node of no levels.

        A node of depth d lists, for each class t it holds in index order
        (the arrangements whose first level takes t), the table of its child
        (one t fewer) as ``(arrangements, 1, members)`` with t's block
        positions in the middle axis, at the depth's top digit: the member
        digit of the first level is the most significant.  Returns per node
        (by ``_node_ranks``) its start in the table and its member count, and
        the table.
        """
        m = len(self._radix)
        side = self.base**self.tail
        # node -> (start, arrangements, members) in the previous depth's table
        index = {(0,) * m: (0, 1, 1)}
        table = np.zeros(1, dtype=np.uint32)
        for depth in range(1, self.tail + 1):
            scale = self.base ** (depth - 1)
            # each class's block positions as sub-cells at this depth's top digit
            blocks = np.split(
                (self._pos_row * side + self._pos_col).astype(np.uint32) * scale,
                self._first[1:],
            )
            next_table = np.empty((self.base * self.base) ** depth, dtype=np.uint32)
            next_index = {}
            start = 0
            for counts in _exponent_multisets(depth, m):
                node_start = start
                for t, block in enumerate(blocks):
                    if not counts[t]:
                        continue
                    at, arr, members = index[counts[:t] + (counts[t] - 1,) + counts[t + 1 :]]
                    end = start + arr * block.size * members
                    np.add(
                        table[at : at + arr * members].reshape(arr, 1, members),
                        block[:, None],
                        out=next_table[start:end].reshape(arr, block.size, members),
                    )
                    start = end
                members = math.prod(r**c for r, c in zip(self._radix.tolist(), counts))
                next_index[counts] = (node_start, _multinomial(counts), members)
            index, table = next_index, next_table
        nodes = self._node_ranks(np.asarray(list(index), dtype=np.int64).T)
        node_start = np.empty_like(nodes)
        node_members = np.empty_like(nodes)
        node_start[nodes], _, node_members[nodes] = np.asarray(list(index.values())).T
        return node_start, node_members, table

    def _node_ranks(self, counts) -> np.ndarray:
        """Rank of each multiset of ``tail`` class counts (one array per
        class) among all such multisets: the colex rank of its stars and
        bars' bar positions, dense over exactly those multisets."""
        node = np.zeros(len(counts[0]), dtype=np.int64)
        prefix = np.zeros_like(node)
        for colex, count in zip(self._colex, counts):
            prefix += count
            node += colex[prefix]
        return node

    def cells(
        self, drawn: Iterable[tuple[int, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the cells that ``(group index, ranks)`` pairs denote.

        The bijection enumerates a group's descriptors in listed order;
        within a descriptor, a rank factors into an arrangement rank (which
        value class each level uses, in the multiset-permutation order that
        takes classes by index) and a member rank (which block position of
        its class each level uses, mixed radix, last level least
        significant).  All drawn ranks are mapped in one array pass, in
        input order: the leading ``levels - tail`` levels (possibly none)
        position by position, which leaves each cell a node of the last
        ``tail`` levels and an arrangement rank within it, and those levels
        by one gather from the table of that node's sub-cells, at its
        arrangement rank and the low part of the member rank.

        Raises:
            BadArgs: a rank outside [0, size) of its group.
            Overflow: ranks of a group of more than ``2**63 - 1`` cells.
        """
        desc_parts = [np.empty(0, dtype=np.int64)]
        rank_parts = [np.empty(0, dtype=np.int64)]
        for index, ranks in drawn:
            ranks = np.asarray(ranks, dtype=np.int64)
            if not ranks.size:
                continue
            if self._starts[index] is None:
                raise Overflow(f"group {index} exceeds the signed 64-bit range")
            first, offsets = self._starts[index]
            desc = offsets.searchsorted(ranks, side="right") - 1
            desc_parts.append(desc + first)
            rank_parts.append(ranks - offsets[desc])
        desc = np.concatenate(desc_parts)
        rank = np.concatenate(rank_parts)
        members = self._members[desc]
        arr = self._arrangements[desc]
        arr_rank = rank // members
        member_rank = rank - arr_rank * members
        # A negative rank keeps a negative remainder; a rank at or past its
        # group's size runs past the last descriptor's arrangements.
        if rank.size and (rank.min() < 0 or (arr_rank >= arr).any()):
            raise BadArgs("rank outside [0, size) of its group")
        seq, counts, arr_rank = self._arrangement_classes(desc, arr, arr_rank)
        node = self._node_ranks(counts)
        # the tail's member digits are the least significant
        members = self._node_members[node]
        member_rank, tail_rank = np.divmod(member_rank, members)
        at = self._node_start[node] + arr_rank * members + tail_rank
        scale = self.base**self.tail
        rows, cols = np.divmod(self._sub_cells[at].astype(np.int64), scale)
        for cls in seq[::-1]:
            radix = self._radix[cls]
            digit_rank = member_rank // radix
            at = self._first[cls] + member_rank - digit_rank * radix
            member_rank = digit_rank
            rows += self._pos_row[at] * scale
            cols += self._pos_col[at] * scale
            scale *= self.base
        return rows, cols

    def _arrangement_classes(self, desc, arr, arr_rank):
        """Value class of each leading level, shape (levels - tail, cells),
        the class counts left for the tail (one array per class) and the
        arrangement rank within them: the multiset permutations of each
        cell's exponents, unranked position by position.

        At each position class ``t`` covers the next ``arr * count_t //
        remaining`` arrangement ranks, computed as ``q * count_t + rem *
        count_t // remaining`` with ``arr = q * remaining + rem``: the same
        integer, but no product exceeds ``arr``, so nothing overflows int64.
        """
        counts = [column[desc] for column in self._exponents]
        head = self.levels - self.tail
        seq = np.zeros((head, desc.size), dtype=np.min_scalar_type(len(counts)))
        for pos in range(head):
            remaining = self.levels - pos
            q = arr // remaining
            rem = arr - q * remaining
            chosen = seq[pos]
            bound = np.zeros_like(arr)
            start = np.zeros_like(arr)
            arr = np.zeros_like(arr)
            before = np.ones(desc.size, dtype=bool)
            # Ranks at or past a class's end move on to a later class, so
            # ``past`` holds for a prefix of the classes and ``here`` for
            # the chosen one.  Masks multiply: np.where is far slower on
            # unsorted masks.
            for count in counts:
                sub = q * count + rem * count // remaining
                bound += sub
                past = bound <= arr_rank
                here = before ^ past
                chosen += past
                start += sub * past
                arr += sub * here
                count -= here
                before = past
            arr_rank = arr_rank - start
        return seq, counts, arr_rank
