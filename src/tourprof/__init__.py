"""Tournament 3/4-subtournament profiles, extremal constructions,
analytic and flag-algebra lower bounds, and stochastic boundary search.

The exports below are resolved on first access (a module __getattr__),
so importing the package loads none of its modules and no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "BlowupSpec", "DataFormatError", "InternalInvariantError", "MixSpec",
        "Tournament", "TournamentError", "blowup", "canonical_code", "cyclic",
        "flip_perturb", "from_code", "from_matrix", "interval", "mix",
        "random_tournament", "read_trn", "transitive", "write_trn"),
    "profiles": (
        "EdgeStats", "FlipState", "Profile3Counts", "Profile4Counts",
        "classify4", "edge_stats", "moments", "profile3", "profile4",
        "sample_profile4", "verify_identities", "x_cdf"),
    "bounds": (
        "BlowupOptimum", "ReplacementResult", "conjectured_min_c4",
        "curve_dataset", "lb_flag", "lb_variance", "min_fourth_power_sum",
        "mix_profile_prediction", "predict_blowup_profile", "replace_step",
        "ub_c4_from_c3", "ub_c4_from_t4"),
    "certificate": (
        "Certificate", "lemma1_certificate", "read_certificate",
        "search_certificate", "verify_certificate", "write_certificate"),
    "flags": (
        "Flag", "ProductTable", "TournamentType", "enumerate_flags",
        "enumerate_types", "moment_consistency_check", "product_table",
        "subtype_density", "write_table"),
    "search": (
        "AnnealResult", "AnnealSchedule", "ScanPoint", "anneal",
        "boundary_scan", "objective"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
