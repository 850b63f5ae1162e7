"""meroconn: exact computations for formal meromorphic connections.

Canonical-form reduction, Stokes-direction combinatorics, Betti-side
representation and stability checks, local Dolbeault/de Rham/Betti data
dictionaries, and symbolic verification of the local model-metric
identities.  All core arithmetic is exact over the Gaussian rationals.
"""

from ._kernel import active_backend
from .field import GaussRat, gr
from .series import INF, LaurentSeries, series_val
from .lmatrix import CMat, LaurentMatrix, mat_exp_nilpotent, mat_inv, mat_mul
from .rootdata import Character, ParabolicSpec, Root, Weight
from .connection import (CanonicalForm, IrregularType, MeroConnection,
                         canonical_reduce, extract_irregular_type, gauge_act,
                         gauge_orbit_equal, recover_irregular_shape)
from .residues import Sl2Data, jordan_decompose, sl2_complete
from .stokes import (StokesDiagram, anti_stokes, half_periods,
                     stokes_dim_check, stokes_group_basis)
from .betti import (FilteredStokesRep, StokesRep, check_relation,
                    check_stability, degree_loc, degree_zero, group_act,
                    is_compatible)
from .correspondence import (BettiLocal, DeRhamLocal, DolbeaultLocal,
                             dR_to_Betti, dR_to_Dol, rank1_monodromy_oracle,
                             roundtrip_weight_check)
from .modelmetric import (MetricData, TPoly, chern_coefficient, curvature_e0,
                          higgs_extraction, pseudo_curvature,
                          sl2_identity_suite, weight_jump_check)

__version__ = "0.1.0"

__all__ = [
    "GaussRat", "gr", "LaurentSeries", "LaurentMatrix", "CMat", "INF",
    "series_val", "mat_mul", "mat_inv", "mat_exp_nilpotent",
    "active_backend",
    "Weight", "Root", "ParabolicSpec", "Character",
    "MeroConnection", "IrregularType", "CanonicalForm",
    "gauge_act", "gauge_orbit_equal", "canonical_reduce",
    "extract_irregular_type", "recover_irregular_shape",
    "Sl2Data", "jordan_decompose", "sl2_complete",
    "StokesDiagram", "anti_stokes", "stokes_group_basis", "half_periods",
    "stokes_dim_check",
    "StokesRep", "FilteredStokesRep", "check_relation", "group_act",
    "is_compatible", "degree_loc", "degree_zero", "check_stability",
    "DeRhamLocal", "DolbeaultLocal", "BettiLocal", "dR_to_Dol",
    "dR_to_Betti", "roundtrip_weight_check", "rank1_monodromy_oracle",
    "MetricData", "TPoly", "sl2_identity_suite", "pseudo_curvature",
    "curvature_e0", "chern_coefficient", "higgs_extraction",
    "weight_jump_check",
    "__version__",
]
