"""Reference checkers that only the tests use.

``certificate_is_sound`` re-checks a comparability verdict against the
family it was issued for; ``pods_disjoint_voxel`` decides pod disjointness
from the explicit voxel sets.  Both are plain loops, kept apart from the
numpy kernels they check.
"""

from ramsey_pods.core import (
    ComparabilityCertificate,
    VectorFamily,
    Verdict,
    validate_comparable,
    validate_increasing,
)
from ramsey_pods.pods import Pod, pod_voxels


def _up(x, y) -> frozenset[int]:
    """The 1-based coordinates where x is below y."""
    return frozenset(i for i, (a, b) in enumerate(zip(x, y), start=1) if a < b)


def certificate_is_sound(fam: VectorFamily, cert: ComparabilityCertificate) -> bool:
    """Re-check a certificate against the family it was issued for."""
    rows, r = fam.coords.tolist(), fam.r
    if cert.verdict is Verdict.FAIL_PAIR:
        a, b = cert.pair
        if not 1 <= a < b <= len(rows):
            return False
        x, y = rows[a - 1], rows[b - 1]
        up, down = len(_up(x, y)), len(_up(y, x))
        if cert.check == "increasing":
            return up < r
        if cert.check == "comparable":
            return up < r and down < r
        return False
    if cert.verdict is Verdict.CYCLIC_TRIPLE:
        if not all(1 <= i <= len(rows) for i in cert.triple):
            return False
        x, y, z = (rows[i - 1] for i in cert.triple)
        wa, wb, wc = _up(x, y), _up(y, z), _up(z, x)
        # a witness set of size >= r is exactly a dominance step
        return (
            (wa, wb, wc) == (cert.witness_a, cert.witness_b, cert.witness_c)
            and min(len(wa), len(wb), len(wc)) >= r
        )
    # a positive verdict carries no witness: re-run the check that issues it
    if cert.verdict is Verdict.INCREASING:
        return validate_increasing(fam).ok()
    return validate_comparable(fam).ok()


def pods_disjoint_voxel(a: Pod, b: Pod) -> bool:
    """Brute-force disjointness over the explicit voxel sets."""
    if (a.q, a.r, a.n) != (b.q, b.r, b.n):
        raise ValueError("pods have different parameters")
    return not (pod_voxels(a) & pod_voxels(b))
