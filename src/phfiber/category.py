"""Homotopy classes of maps between barcode types.

A morphism from type T to type T' is a monotone reparametrization of [0, 1]
carrying the bars of T onto the bars of T', up to the homotopy that wiggles
endpoint images without changing which source bar lands on which target bar.
Classes are therefore keyed by that bar matching; each class is represented
by a canonical simplicial endpoint map, which exists in every class and is
what monodromy construction requires.
"""
from __future__ import annotations

from dataclasses import dataclass

from .barcodes import (
    ZERO,
    CombinatorialBarcode,
    EndpointMap,
    all_endpoint_maps,
    identity_endpoint_map,
    map_bars_raw,
)
from .errors import DomainError

Bar = tuple[int, int]
BarMatching = tuple[tuple[tuple[Bar, Bar | None], ...], ...]


@dataclass(frozen=True)
class MorphismClass:
    """One homotopy class of morphisms between two barcode types.

    bar_matching records, per homology degree, the image bar of each distinct
    source bar (None when the bar collapses); it determines the class. The
    representative is the lexicographically largest simplicial endpoint map
    inducing the matching, which sends every collapsed endpoint up to the
    image of the nearest matched endpoint above it; with this choice the
    elementary factors of decompose_codim1 compose back to the representative
    exactly, not merely up to homotopy.
    """

    source: CombinatorialBarcode
    target: CombinatorialBarcode
    bar_matching: BarMatching
    representative: EndpointMap

    @property
    def is_identity(self) -> bool:
        return (
            self.source == self.target
            and self.representative.rank_images == tuple(range(1, self.source.dim + 1))
        )

    @property
    def index(self) -> tuple[tuple[int, ...], ...]:
        """Per target symbol ZERO..ONE, the source ranks mapped onto it."""
        phi = self.representative
        return tuple(
            tuple(i for i in range(1, self.source.dim + 1) if phi(i) == t)
            for t in range(ZERO, self.target.dim + 2)
        )


def enumerate_morphism_classes(
    T: CombinatorialBarcode, Tp: CombinatorialBarcode
) -> tuple[MorphismClass, ...]:
    """All homotopy classes of morphisms T -> Tp, in a deterministic order.

    Empty when no monotone endpoint map carries the bars of T onto the bars
    of Tp, which happens exactly when Tp is not a degeneration of T.
    """
    by_matching: dict[BarMatching, list[EndpointMap]] = {}
    for phi in all_endpoint_maps(T.dim, Tp.dim):
        degrees, matching = map_bars_raw(phi, T)
        if degrees != Tp.degrees:
            continue
        if phi.is_simplicial:
            by_matching.setdefault(matching, []).append(phi)
        else:
            by_matching.setdefault(matching, [])
    out = []
    for matching, simplicial in by_matching.items():
        if not simplicial:
            raise DomainError("morphism class without a simplicial representative")
        rep = max(simplicial, key=lambda p: p.rank_images)
        out.append(MorphismClass(T, Tp, matching, rep))
    out.sort(key=lambda c: c.representative.rank_images)
    return tuple(out)


def _class_of_map(
    T: CombinatorialBarcode, Tp: CombinatorialBarcode, phi: EndpointMap
) -> MorphismClass:
    degrees, matching = map_bars_raw(phi, T)
    if degrees != Tp.degrees:
        raise DomainError("endpoint map does not carry the source type to the target")
    for cls in enumerate_morphism_classes(T, Tp):
        if cls.bar_matching == matching:
            return cls
    raise DomainError("endpoint map induces no enumerated morphism class")


def _collapse_first_to_zero(m: int) -> EndpointMap:
    return EndpointMap(m, m - 1, (ZERO, *range(1, m)))


def _collapse_last_to_one(m: int) -> EndpointMap:
    return EndpointMap(m, m - 1, (*range(1, m), m))


def _collapse_pair(m: int, i: int) -> EndpointMap:
    return EndpointMap(m, m - 1, (*range(1, i + 1), *range(i, m)))


def _has_surviving_bar(T: CombinatorialBarcode, phi: EndpointMap, rank: int) -> bool:
    for deg in T.degrees:
        for b, d in deg:
            if rank in (b, d) and phi(b) != phi(d):
                return True
    return False


def _elementary_factor(T: CombinatorialBarcode, phi: EndpointMap) -> EndpointMap:
    """One dimension-dropping collapse that phi factors through.

    Collapsing an endpoint into 0 or 1 always drops the dimension by exactly
    one. An interior pair {i, i+1} with equal images is safe only when one of
    the two endpoints carries a bar that phi keeps nontrivial; that endpoint
    survives as a genuine endpoint of the quotient type. Such a pair exists
    in any preimage class of two or more ranks.
    """
    m = T.dim
    if phi(1) == ZERO:
        return _collapse_first_to_zero(m)
    if phi(m) == phi.target_dim + 1:
        return _collapse_last_to_one(m)
    for i in range(1, m):
        if phi(i) != phi(i + 1):
            continue
        if _has_surviving_bar(T, phi, i) or _has_surviving_bar(T, phi, i + 1):
            return _collapse_pair(m, i)
    raise DomainError("no elementary collapse factors this endpoint map")


def decompose_codim1(c: MorphismClass) -> tuple[MorphismClass, ...]:
    """Factor a class into steps that each drop the type dimension by one.

    The identity class factors as the empty sequence. Each returned step is
    the canonical class of its collapse, and composing the steps reproduces
    the bar matching of c.
    """
    steps: list[MorphismClass] = []
    T = c.source
    phi = c.representative
    while T.dim > c.target.dim:
        eps = _elementary_factor(T, phi)
        T_next = _apply_collapse(T, eps)
        steps.append(_class_of_map(T, T_next, eps))
        phi = _quotient_map(eps, phi)
        T = T_next
    if T != c.target or phi.rank_images != tuple(range(1, T.dim + 1)):
        raise DomainError("decomposition did not terminate at the target type")
    return tuple(steps)


def _apply_collapse(T: CombinatorialBarcode, eps: EndpointMap) -> CombinatorialBarcode:
    degrees, _ = map_bars_raw(eps, T)
    T_next = CombinatorialBarcode(eps.target_dim, degrees)
    if T.dim - T_next.dim != 1:
        raise DomainError("collapse does not drop the dimension by one")
    return T_next


def _quotient_map(eps: EndpointMap, phi: EndpointMap) -> EndpointMap:
    """The map psi with psi o eps = phi, defined on the collapsed type."""
    images = []
    for j in range(1, eps.target_dim + 1):
        pre = [i for i in range(1, eps.source_dim + 1) if eps(i) == j]
        images.append(phi(pre[0]))
    return EndpointMap(eps.target_dim, phi.target_dim, tuple(images))


def morphism_class_between(
    T: CombinatorialBarcode, Tp: CombinatorialBarcode, k: int = 0
) -> MorphismClass:
    """The k-th enumerated class from T to Tp; errors when none exist."""
    classes = enumerate_morphism_classes(T, Tp)
    if not classes:
        raise DomainError("no morphism between the given barcode types")
    if not 0 <= k < len(classes):
        raise DomainError(
            f"morphism class index {k} out of range, {len(classes)} classes exist"
        )
    return classes[k]


def identity_class(T: CombinatorialBarcode) -> MorphismClass:
    return _class_of_map(T, T, identity_endpoint_map(T))
