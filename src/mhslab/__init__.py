"""Exact computation with rational mixed Hodge structures over Q(i)."""

__version__ = "0.1.0"

from .errors import (DegenerateRangeError, DimensionMismatchError,
                     FieldMismatchError, LocusError, MhsError, NotAnMhsError,
                     NotASubobjectError, ParseError, RegimeError,
                     ResourceGuardError)
from .field import GaussRat, I, Q, QI
from .linalg import Subspace
from .mhs import (HodgeFiltration, MixedHodgeStructure, WeightFiltration,
                  deligne_bigrading, deligne_splitting, direct_sum, dual,
                  gr_w, hodge_classes, hom, quotient_mhs, sub_mhs, tate_twist,
                  tensor, validate_mhs)
from .triples import (LieData, Pencil, SPoint, TPoint, Triple, build_mhs,
                      dim_S, equal_in_S, fiber_dim, lie_data, sample_point,
                      sections_from_mhs, truncate, truncate_point)
from .loci import (LocusResult, can_lift, derive, eval_construction,
                   locus_on_pencil)
from .unipotent import (ExtClassRep, UpResult, ext_class_rep,
                        genericity_experiment, is_u_large, mt_lie_upper_bound,
                        splits_mod, u_p_tate)
