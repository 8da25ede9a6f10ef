"""Corner-anchored unions of low-dimensional cube faces, their voxel sets,
and packings thereof.

A pod of parameters (q, r, n) is the union of the (r-1)-dimensional faces of
an axis-aligned integer cube of side n that touch one distinguished corner,
the apex.  Two translates with apices on the grid are disjoint exactly when
the apices are r-comparable, which reduces packing questions to comparable
vector sets.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    COMPARABLE,
    ComparabilityCertificate,
    GridVector,
    VectorFamily,
    validate_comparable,
)


@dataclass(frozen=True)
class Pod:
    q: int
    r: int
    n: int
    apex: GridVector

    def __post_init__(self):
        if not 1 <= self.r <= self.q:
            raise ValueError(f"r={self.r} outside [1, {self.q}]")
        if self.apex.q != self.q or self.apex.n != self.n:
            raise ValueError("apex ambient does not match pod parameters")


def pod_voxels(p: Pod) -> frozenset[tuple[int, ...]]:
    """All integer points of the pod, apex at the minimal corner.

    The union ranges over coordinate subsets F of size r-1; each contributes
    the apex translated by offsets supported on F with values in [0, n-1].
    Equivalently: apex plus every offset of support size at most r-1.
    """
    pts: set[tuple[int, ...]] = set()
    base = p.apex.coords
    for face in itertools.combinations(range(p.q), p.r - 1):
        for offs in itertools.product(range(p.n), repeat=len(face)):
            point = list(base)
            for axis, off in zip(face, offs):
                point[axis] += off
            pts.add(tuple(point))
    return frozenset(pts)


def _check_same_parameters(a: Pod, b: Pod) -> None:
    if (a.q, a.r, a.n) != (b.q, b.r, b.n):
        raise ValueError("pods have different parameters")


@dataclass(frozen=True)
class Packing:
    """A collection of same-parameter pods; valid iff pairwise disjoint.

    ``certificate`` is the apex family's comparability verdict.  Two pods
    are disjoint exactly when their apices are comparable, so a FAIL_PAIR
    (i, j) names the first pair of intersecting pods.
    """

    pods: tuple[Pod, ...]
    certificate: ComparabilityCertificate

    @property
    def valid(self) -> bool:
        return self.certificate.ok()

    @classmethod
    def of(cls, pods) -> "Packing":
        pods = tuple(pods)
        for p in pods[1:]:
            _check_same_parameters(pods[0], p)
        if not pods:
            return cls(pods, COMPARABLE)
        apices = VectorFamily((p.apex for p in pods), pods[0].r)
        return cls(pods, validate_comparable(apices))

    @classmethod
    def from_apices(cls, q: int, r: int, n: int, apices) -> "Packing":
        return cls.of(Pod(q, r, n, GridVector(tuple(a), n)) for a in apices)

    def to_json(self) -> dict:
        p0 = self.pods[0]
        return {
            "q": p0.q,
            "r": p0.r,
            "n": p0.n,
            "apices": [list(p.apex.coords) for p in self.pods],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Packing":
        q, r, n = (operator.index(data[key]) for key in ("q", "r", "n"))
        return cls.from_apices(q, r, n, data["apices"])


def packing_density(packing: Packing) -> Fraction:
    """Covered fraction of the bounding box [1, 2n-1]^q.

    Every pod with apex on the grid fits in that box; the box density is an
    exact rational and monotone in the packing size, sufficient for relative
    comparisons even though it is not the asymptotic space density.
    """
    if not packing.pods:
        return Fraction(0)
    if not packing.valid:
        raise ValueError("density of an invalid packing is undefined")
    p0 = packing.pods[0]
    per_pod = len(pod_voxels(p0))
    box = (2 * p0.n - 1) ** p0.q
    return Fraction(len(packing.pods) * per_pod, box)
