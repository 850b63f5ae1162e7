"""meroconn: exact computations for formal meromorphic connections.

Canonical-form reduction, Stokes-direction combinatorics, Betti-side
representation and stability checks, local Dolbeault/de Rham/Betti data
dictionaries, and symbolic verification of the local model-metric
identities.  All core arithmetic is exact over the Gaussian rationals.

``import meroconn`` loads no submodule: each public name is imported
from its submodule on first access (PEP 562), so a caller pays only for
the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "_kernel": ["active_backend"],
    "field": ["CMat", "GaussRat", "gr"],
    "series": ["INF", "LaurentSeries"],
    "lmatrix": ["LaurentMatrix", "mat_exp_nilpotent", "mat_inv", "mat_mul"],
    "rootdata": ["Character", "IrregularType", "ParabolicSpec", "Root", "Weight"],
    "connection": ["CanonicalForm", "MeroConnection",
                   "canonical_reduce", "extract_irregular_type", "gauge_act",
                   "gauge_orbit_equal", "recover_irregular_shape"],
    "residues": ["Sl2Data", "jordan_decompose", "sl2_complete"],
    "stokes": ["StokesDiagram", "anti_stokes", "half_periods",
               "stokes_dim_check", "stokes_group_basis"],
    "betti": ["FilteredStokesRep", "StokesRep", "check_relation",
              "check_stability", "degree_loc", "degree_zero", "group_act",
              "is_compatible"],
    "correspondence": ["BettiLocal", "DeRhamLocal", "DolbeaultLocal",
                       "dR_to_Betti", "dR_to_Dol", "rank1_monodromy_oracle",
                       "roundtrip_weight_check"],
    "modelmetric": ["MetricData", "TPoly", "chern_coefficient", "curvature_e0",
                    "higgs_extraction", "pseudo_curvature",
                    "sl2_identity_suite", "weight_jump_check"],
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    # An unknown name must raise AttributeError: ``from meroconn import
    # betti`` relies on it to fall back to importing the submodule.
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
