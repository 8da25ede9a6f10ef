"""Reductions between the vector world and the coloring world, and the
color-merging maps relating different palette sizes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import VectorFamily, validate_comparable, validate_increasing
from .paths import monotone_lengths_ending
from .tournament import ColoredTournament, OrderedColoring

# entries of the stalled-coordinate block vectors_to_coloring compares at once
_BLOCK_ENTRIES = 1 << 22


def coloring_to_vectors(k: OrderedColoring) -> VectorFamily:
    """Record, per vertex, the longest avoiding monotone path ending there.

    Vertex a becomes the vector whose i-th entry is the length of the longest
    monotone path ending at a that avoids color i.  The resulting family is
    (q-1)-increasing: an edge (a, b) of color c strictly grows every entry
    except possibly the c-th.
    """
    q = k.q
    if q < 2:
        raise ValueError("the vector translation needs at least two colors")
    palette = frozenset(range(1, q + 1))
    # ending[i - 1][v] = longest monotone path avoiding color i that ends at v
    ending = np.array([monotone_lengths_ending(k, palette - {i})[1:] for i in range(1, q + 1)])
    fam = VectorFamily.from_array(ending.T, max(1, q - 1), int(ending.max()))
    cert = validate_increasing(fam)
    if not cert.ok():
        raise AssertionError(f"derived family failed validation at {cert.pair}")
    return fam


def vectors_to_coloring(fam: VectorFamily) -> OrderedColoring:
    """Color edge (a, b) by the unique stalled coordinate, defaulting to 1.

    Requires a (q-1)-increasing family; a coordinate i is stalled on (a, b)
    when x_a[i] >= x_b[i], and at most one can stall.  In the output, any
    monotone path avoiding some color has strictly increasing entries in that
    coordinate, so its length is bounded by the family's grid side.
    """
    q = fam.q
    if fam.r != q - 1:
        raise ValueError(f"expected threshold q-1={q - 1}, got {fam.r}")
    if not validate_increasing(fam).ok():
        raise ValueError("family is not (q-1)-increasing")
    x = fam.coords
    m = len(x)
    color = np.zeros((m + 1, m + 1), np.min_scalar_type(q))
    step = max(1, _BLOCK_ENTRIES // (m * q))
    for lo in range(0, m, step):
        stalled = x[lo : lo + step, None, :] >= x[None, :, :]
        # argmax finds the first stalled coordinate, and 0 (color 1) when none is
        color[lo + 1 : lo + step + 1, 1:] = stalled.argmax(axis=2) + 1
    upper = np.triu(color, 1)
    return OrderedColoring.from_matrix(q, upper + upper.T)


def vectors_to_tournament(fam: VectorFamily) -> ColoredTournament:
    """Orient each pair along its dominance; color it by the coordinate that does not grow.

    Requires a (q-1)-comparable family.  The pair (a, b), a < b, points
    a -> b when vector b beats vector a in q - 1 coordinates, else b -> a;
    at q = 2 both can hold, and then the lower index is the tail.  The
    color is the first coordinate in which the head is not larger than the
    tail, or 1 when every coordinate grows.  A path avoiding color c then
    grows coordinate c at every step, so it has at most n vertices.  The
    converse map, one vector of avoiding-path lengths per vertex, is not
    an inverse: it sends every vertex of a monochromatic 3-cycle to (1, 3).
    """
    q = fam.q
    if fam.r != q - 1:
        raise ValueError(f"expected threshold q-1={q - 1}, got {fam.r}")
    if not validate_comparable(fam).ok():
        raise ValueError("family is not (q-1)-comparable")
    x = fam.coords
    a, b = np.triu_indices(len(x), 1)
    forward = (x[b] > x[a]).sum(axis=1) >= q - 1
    tails = np.where(forward, a, b)
    heads = np.where(forward, b, a)
    # argmax finds the first stalled coordinate, and 0 (color 1) when none is
    colors = (x[heads] <= x[tails]).argmax(axis=1) + 1
    edges = zip((tails + 1).tolist(), (heads + 1).tolist(), colors.tolist())
    return ColoredTournament(len(x), q, edges)


@dataclass(frozen=True)
class ColorPartition:
    """A surjective map from an old palette onto block labels 1..q'."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(frozenset(b) for b in self.blocks)
        )
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError("blocks overlap")
            seen |= b
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must cover exactly 1..q")

    @property
    def q_old(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def q_new(self) -> int:
        return len(self.blocks)

    def block_of(self, color: int) -> int:
        for label, b in enumerate(self.blocks, start=1):
            if color in b:
                return label
        raise ValueError(f"color {color} not covered")

    def pull_back(self, new_colors) -> frozenset[int]:
        """Original colors represented by a set of block labels."""
        out: set[int] = set()
        for label in new_colors:
            out |= self.blocks[label - 1]
        return frozenset(out)

    def to_json(self) -> dict:
        return {"blocks": [sorted(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> "ColorPartition":
        return cls(tuple(frozenset(map(operator.index, b)) for b in data["blocks"]))


def merge_colors(instance, partition: ColorPartition):
    """Replace every edge color by its block label.

    Works on both ordered colorings and tournaments, and keeps a
    tournament's labels.  A path using at most r' block labels uses at most
    the sum of those blocks' sizes original colors.
    """
    if partition.q_old != instance.q:
        raise ValueError(
            f"partition covers {partition.q_old} colors, instance has {instance.q}"
        )
    if not isinstance(instance, (OrderedColoring, ColoredTournament)):
        raise TypeError(f"cannot merge colors of {type(instance).__name__}")
    return instance.recolored(partition.block_of)


def floor_reduction(q: int, r: int) -> tuple[int, ColorPartition]:
    """The palette-shrinking partition behind the floor(q/(q-r)) bound.

    With p = floor(q/(q-r)) and t = q - p(q-r), the last t+1 colors are first
    merged into one, and the q-t resulting pseudo-colors are grouped into p
    consecutive blocks of size q-r; the merged pseudo-color sits inside the
    last block.  Requires q > r >= 1 and p >= 2.
    """
    if not q > r >= 1:
        raise ValueError("need q > r >= 1")
    p = q // (q - r)
    if p < 2:
        raise ValueError(f"p = {p} < 2: the reduction needs r > q/2")
    t = q - p * (q - r)
    width = q - r
    blocks = []
    cursor = 1
    for _ in range(p - 1):
        blocks.append(frozenset(range(cursor, cursor + width)))
        cursor += width
    blocks.append(frozenset(range(cursor, q + 1)))  # absorbs the merged t+1 tail
    assert len(blocks[-1]) == width + t
    return p, ColorPartition(tuple(blocks))
