"""Tip-selection traffic analysis toolkit for DAG ledgers.

Hostile full nodes that answer tip-selection requests can log which tip
pairs they hand to which requester and later match those pairs against new
ledger entries, linking addresses to network identities.  This package
provides the closed-form analysis of that attack, a seeded Monte Carlo
simulator of it, preset experiment scenarios, and a CLI.
"""

from .analytic import (
    AnonymityProfile,
    AttackParams,
    MixerParams,
    ParameterError,
    continental_takeover_rate,
    deanon_probability,
    entropy_degree,
    hypergeom_pmf,
    mixer_chain_probability,
    mixer_expected_identified,
    required_full_nodes,
)
from .experiments import (
    DEFAULT_SEED,
    ExperimentResult,
    GridHeatmap,
    exp_custom,
    exp_decentralized,
    exp_heatmap,
    exp_mitigations,
    exp_mixer,
    exp_realworld,
    exp_variance,
)
from .network import (
    ConfigError,
    Links,
    SimConfig,
    SimResult,
    Simulation,
    place_nodes,
    run_simulation,
)
from .results import TOOL_VERSION, write_result
from .tangle import AttachError, Ledger, Transaction, ledger_from_lines, urts_pair

__version__ = TOOL_VERSION

__all__ = [
    "AnonymityProfile",
    "AttackParams",
    "AttachError",
    "ConfigError",
    "DEFAULT_SEED",
    "ExperimentResult",
    "GridHeatmap",
    "Ledger",
    "Links",
    "MixerParams",
    "ParameterError",
    "SimConfig",
    "SimResult",
    "Simulation",
    "Transaction",
    "continental_takeover_rate",
    "deanon_probability",
    "entropy_degree",
    "exp_custom",
    "exp_decentralized",
    "exp_heatmap",
    "exp_mitigations",
    "exp_mixer",
    "exp_realworld",
    "exp_variance",
    "hypergeom_pmf",
    "ledger_from_lines",
    "mixer_chain_probability",
    "mixer_expected_identified",
    "place_nodes",
    "required_full_nodes",
    "run_simulation",
    "urts_pair",
    "write_result",
    "__version__",
]
