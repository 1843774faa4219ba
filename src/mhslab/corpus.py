"""Small shipped examples used by the tests and the documentation.

Everything here is hand-checkable: the Kummer family (an extension of
Q(0) by Q(1) with one Gaussian-rational parameter), pure Tate objects,
a three-step Tate triple with pairwise-distinct weight gaps, a
three-step triple with a CM piece in the middle, and a dimension-4
example mixing a weight -1 piece with two copies of Q(0).
"""

from __future__ import annotations

from fractions import Fraction

from . import mhs as mh
from .field import Q, QI, GaussRat, I, as_scalar
from .linalg import Subspace, mat
from .mhs import MixedHodgeStructure
from .triples import TPoint, Triple, build_mhs


def tate_mhs(k: int) -> MixedHodgeStructure:
    return mh.tate_twist(k)


def kummer_mhs(z) -> MixedHodgeStructure:
    """Extension of Q(0) by Q(1) with parameter z: F^0 = span(e2 + z*e1)."""
    z = as_scalar(QI, z)
    return mh.make_mhs(
        2,
        {-2: Subspace.span(Q, 2, [(1, 0)]), 0: Subspace.full(Q, 2)},
        {-1: Subspace.full(QI, 2),
         0: Subspace.span(QI, 2, [(z, GaussRat(1))])})


def kummer_triple() -> Triple:
    return Triple(
        2,
        mh.WeightFiltration.of(2, {-2: Subspace.span(Q, 2, [(1, 0)]),
                                   0: Subspace.full(Q, 2)}),
        ((-2, mh.tate_twist(1)), (0, mh.tate_twist(0))))


def kummer_tpoint(z) -> TPoint:
    """The section tuple whose built structure is kummer_mhs(z)."""
    z = as_scalar(QI, z)
    return TPoint(((-2, mat(QI, [[1], [0]])),
                   (0, mat(QI, [[z], [1]]))))


def tate3_triple() -> Triple:
    """Weights 0, -2, -6: graded Q(0) + Q(1) + Q(3), all gaps distinct."""
    return Triple(
        3,
        mh.WeightFiltration.of(3, {-6: Subspace.span(Q, 3, [(1, 0, 0)]),
                                   -2: Subspace.span(Q, 3, [(1, 0, 0), (0, 1, 0)]),
                                   0: Subspace.full(Q, 3)}),
        ((-6, mh.tate_twist(3)), (-2, mh.tate_twist(1)), (0, mh.tate_twist(0))))


def cm_piece(w: int) -> MixedHodgeStructure:
    """E(w), w odd: dimension 2 with CM by Q(i), Hodge types
    ((w+1)/2, (w-1)/2) and ((w-1)/2, (w+1)/2), F^{(w+1)/2} = span(1, i)."""
    top = (w + 1) // 2
    return mh.make_mhs(
        2, {w: Subspace.full(Q, 2)},
        {top - 1: Subspace.full(QI, 2),
         top: Subspace.span(QI, 2, [(GaussRat(1), I)])})


def tate_cm_triple() -> Triple:
    """Weights -6, -3, 0: graded Q(3) + E(-3) + Q(0), a CM piece between
    two Tate pieces, on the coordinate flag."""
    return Triple(
        4,
        mh.WeightFiltration.of(4, {-6: Subspace.span(Q, 4, [(1, 0, 0, 0)]),
                                   -3: Subspace.span(Q, 4, [(1, 0, 0, 0),
                                                            (0, 1, 0, 0),
                                                            (0, 0, 1, 0)]),
                                   0: Subspace.full(Q, 4)}),
        ((-6, mh.tate_twist(3)), (-3, cm_piece(-3)), (0, mh.tate_twist(0))))


def two_weight_triple() -> Triple:
    """Dimension 4: a weight -1 piece of Hodge type {(0,-1),(-1,0)} under
    two copies of Q(0)."""
    piece = cm_piece(-1)
    q0_sq = mh.direct_sum(mh.tate_twist(0), mh.tate_twist(0))
    return Triple(
        4,
        mh.WeightFiltration.of(4, {-1: Subspace.span(Q, 4, [(1, 0, 0, 0),
                                                            (0, 1, 0, 0)]),
                                   0: Subspace.full(Q, 4)}),
        ((-1, piece), (0, q0_sq)))


def two_weight_mhs() -> MixedHodgeStructure:
    """A fixed non-split member of the two_weight_triple family."""
    half_i = GaussRat(0, Fraction(1, 2))
    alpha = TPoint((
        (-1, mat(QI, [[1, 0], [0, 1], [0, 0], [0, 0]])),
        (0, mat(QI, [[I, half_i], [GaussRat(Fraction(1, 3), 1), 0],
                     [1, 0], [0, 1]]))))
    return build_mhs(two_weight_triple(), alpha)
