"""Tip-selection traffic analysis toolkit for DAG ledgers.

Hostile full nodes that answer tip-selection requests can log which tip
pairs they hand to which requester and later match those pairs against new
ledger entries, linking addresses to network identities.  This package
provides the closed-form analysis of that attack, a seeded Monte Carlo
simulator of it, preset experiment scenarios, and a CLI.
"""

import importlib

# each public name and the module that defines it, imported on first use so
# that ``import tipleak`` loads no numpy
_SOURCES = {
    **dict.fromkeys((
        "AnonymityProfile", "ParameterError", "continental_takeover_rate",
        "deanon_probability", "entropy_degree", "hypergeom_pmf",
        "mixer_chain_probability", "mixer_expected_identified", "required_full_nodes",
    ), "analytic"),
    **dict.fromkeys((
        "DEFAULT_SEED", "ExperimentResult", "exp_custom", "exp_decentralized",
        "exp_heatmap", "exp_mitigations", "exp_mixer", "exp_realworld",
        "exp_variance",
    ), "experiments"),
    **dict.fromkeys((
        "ConfigError", "Links", "SimConfig", "SimResult", "Simulation",
        "place_nodes", "run_simulation",
    ), "network"),
    **dict.fromkeys(("TOOL_VERSION", "write_result"), "results"),
    **dict.fromkeys(("AttachError", "Ledger"), "tangle"),
}
__all__ = [name for name in _SOURCES if name != "TOOL_VERSION"] + ["__version__"]


def __getattr__(name: str):
    if name == "__version__":
        name = "TOOL_VERSION"
    elif name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
