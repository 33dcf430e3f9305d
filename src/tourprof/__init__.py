"""Tournament 3/4-subtournament profiles, extremal constructions,
analytic and flag-algebra lower bounds, and stochastic boundary search.
"""

__version__ = "0.1.0"

from .core import (BlowupSpec, DataFormatError, InternalInvariantError,
                   MixSpec, Tournament, TournamentError, blowup,
                   canonical_code, cyclic, flip_perturb, from_code,
                   from_matrix, interval, mix, random_tournament, read_trn,
                   transitive, write_trn)
from .profiles import (EdgeStats, FlipState, Profile3Counts, Profile4Counts,
                       classify4, edge_stats, moments, profile3, profile4,
                       sample_profile4, verify_identities, x_cdf)
from .bounds import (BlowupOptimum, ReplacementResult, conjectured_min_c4,
                     curve_dataset, lb_flag, lb_variance,
                     min_fourth_power_sum, mix_profile_prediction,
                     predict_blowup_profile, replace_step, ub_c4_from_c3,
                     ub_c4_from_t4, ub_t4_from_t3)
from .flags import (Certificate, Flag, ProductTable, TournamentType,
                    enumerate_flags, enumerate_types, flag_index_by_name,
                    lemma1_certificate, moment_consistency_check,
                    product_table, read_certificate, search_certificate,
                    subtype_density, verify_certificate, write_certificate,
                    write_table)
from .search import (AnnealResult, AnnealSchedule, ScanPoint, anneal,
                     boundary_scan, objective)

__all__ = [
    "__version__",
    "BlowupSpec", "DataFormatError", "InternalInvariantError", "MixSpec",
    "Tournament", "TournamentError", "blowup", "canonical_code", "cyclic",
    "flip_perturb", "from_code", "from_matrix", "interval", "mix",
    "random_tournament", "read_trn", "transitive", "write_trn",
    "EdgeStats", "FlipState", "Profile3Counts", "Profile4Counts",
    "classify4", "edge_stats", "moments", "profile3", "profile4",
    "sample_profile4", "verify_identities", "x_cdf",
    "BlowupOptimum", "ReplacementResult", "conjectured_min_c4",
    "curve_dataset", "lb_flag", "lb_variance", "min_fourth_power_sum",
    "mix_profile_prediction", "predict_blowup_profile", "replace_step",
    "ub_c4_from_c3", "ub_c4_from_t4", "ub_t4_from_t3",
    "Certificate", "Flag", "ProductTable", "TournamentType",
    "enumerate_flags", "enumerate_types", "flag_index_by_name",
    "lemma1_certificate", "moment_consistency_check", "product_table",
    "read_certificate", "search_certificate",
    "subtype_density", "verify_certificate", "write_certificate",
    "write_table",
    "AnnealResult", "AnnealSchedule", "ScanPoint", "anneal",
    "boundary_scan", "objective",
]
