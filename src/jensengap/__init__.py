"""Numerical verification of Jensen-type inequalities on affine combinations
and positive linear functionals, for functions 3-convex at a point.

The package namespace is lazy (PEP 562): ``import jensengap`` imports no
submodule, and each public name is imported from its defining module on
first use.
"""

import importlib

#: defining module -> the public names it provides
_EXPORTS = {
    "analysis": "AInterval ConvexityClass classify_at_point",
    "affine": "cross_weighted_gap jensen_affine_gap verify_mt1 verify_mt2 verify_mt3",
    "domain": "EPS_EQ AffineConfig CheckSet DiscreteFunctional FunctionOnOmega InfeasibleError"
    " IntervalR Mt1Scenario StructureError WeightedGroup apply barycenter combination_value"
    " spread validate_affine_config",
    "funclib": "DomainError FunctionModel TabulatedFunction catalog eval_fn load_table negate"
    " tabulated_model",
    "functional": "verify_ic1 verify_ic2 verify_ic3 verify_it2 verify_it3 verify_mc1 verify_mc2"
    " verify_mc3 verify_mt4 verify_mt5",
    "report": "FAILS HOLDS UNMET ChainReport",
    "scengen": "GenSpec SearchResult gen_two_sided_scenario"
    " match_spread search_counterexamples straddle_probe_mt4 two_point_from_moments",
}
#: public name -> (defining module, its name there)
_SOURCES = {name: (module, name) for module, names in _EXPORTS.items() for name in names.split()}
_SOURCES["__version__"] = ("scenario", "VERSION")

__all__ = sorted(name for name in _SOURCES if name != "__version__")


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _SOURCES[name]
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCES))
