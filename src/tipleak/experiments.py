"""Preset experiment scenarios built on the analytic and simulation layers.

Each ``exp_*`` function runs one reproducible study and returns an
:class:`ExperimentResult` table: parameter sweeps of the link-rate identity,
the 2020 region-snapshot study, spatial heatmaps of adversary selection,
the layout-variance trend, mixer chain identification, and a comparison of
the candidate mitigations; ``exp_custom`` runs one free-form simulation.
Every experiment-level draw comes from a substream keyed on (seed,
experiment, unit), and each simulation or layout from its own seed drawn
there; a heatmap cell keys its Philox generator from its substream.  So
results are byte-identical for a fixed seed regardless of worker count.
Only ``decentralized`` (its simulations) and ``variance`` (its layouts)
fan out, through :func:`pmap`, whose jobs send back numbers; every other
study runs in one process.

:data:`STUDIES` is the registry of ``tipleak run`` names.  The CLI, its
``validate`` command and ``scripts/run_all_experiments.py`` all read it, and
every key's default comes from the study function's signature.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import statistics
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .analytic import (
    cell_adversary_odds,
    deanon_probability,
    mixer_chain_probability,
    mixer_expected_identified,
    required_full_nodes,
)
from .network import (
    GRID_DIM,
    PLANE,
    RNG_SCHEME,
    WORK_BOUND,
    ConfigError,
    SimConfig,
    SimResult,
    _check_counts,
    place_nodes,
    reachable,
    run_simulation,
)
from .rng import DOMAIN_EXPERIMENT, substream

DEFAULT_SEED = 42
GRID_CELLS = GRID_DIM * GRID_DIM
CELL_RNG_SCHEME = "philox-cell-v1"  # echoed by the heatmap and variance studies
# (point, node) pairs the cell sampler holds at once.  The block size also
# fixes how a cell's chance sum is grouped into float additions, and so the
# bytes of every cell estimate: changing it changes results.
_CELL_BLOCK_ELEMENTS = 1 << 17
# Relative slack of the cell's reach prefilter over the few ulps by which a
# rounded distance can fall short of the exact one.
_NEAR_SLACK = 1e-9
REGION_DATA_FILE = "fullnode_regions_2020.json"
REALWORLD_MAX_SAMPLES = 100_000  # realworld keeps each subset: ~1.7 KB a sample
MIXER_MAX_CHAIN = 100_000  # mixer adds two rows per chain length: ~2.4 KB each

# substream tags, one per experiment family
_TAG_DECENTRALIZED = 1
_TAG_REALWORLD = 2
_TAG_HEATMAP = 3
_TAG_VARIANCE = 4
_TAG_MIXER = 5
_TAG_MITIGATIONS = 6


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    """One measured value: a (label, metric) cell plus optional spread."""

    label: str
    metric: str
    value: float
    dispersion: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite value for {self.label}/{self.metric}")
        if self.dispersion is not None and not math.isfinite(self.dispersion):
            raise ValueError(f"non-finite dispersion for {self.label}/{self.metric}")


@dataclass
class ExperimentResult:
    """Named experiment output: parameter echo plus rows of measurements."""

    name: str
    params: dict
    seed: int
    rows: list[ResultRow] = field(default_factory=list)

    def add(self, label: str, metric: str, value: float,
            dispersion: float | None = None) -> None:
        self.rows.append(ResultRow(label, metric, float(value), dispersion))

    def values(self, metric: str) -> list[float]:
        return [r.value for r in self.rows if r.metric == metric]

    def lookup(self, label: str, metric: str) -> float:
        for row in self.rows:
            if row.label == label and row.metric == metric:
                return row.value
        raise KeyError(f"no row {label!r}/{metric!r}")


# ---------------------------------------------------------------------------
# shared spatial machinery
# ---------------------------------------------------------------------------

def cell_index(points) -> np.ndarray:
    """The grid cell of each ``(x, y)`` row of ``points`` on ``PLANE``;
    points on the plane's far edges belong to the last row or column."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    col_row = (points / (np.array(PLANE) / GRID_DIM)).astype(np.int64)
    col, row = np.minimum(col_row, GRID_DIM - 1).T
    return row * GRID_DIM + col


def _binomial_se(rate: float, trials: int) -> float:
    """Binomial standard error of a rate measured over ``trials``."""
    return math.sqrt(rate * (1 - rate) / trials)


def _sub_seed(seed: int, tag: int, index: int) -> int:
    """Seed of unit ``index`` (a simulation or a layout) of study ``tag``."""
    return substream(seed, DOMAIN_EXPERIMENT, tag, index).getrandbits(63)


def layout_variance(node_counts) -> float:
    """Mean squared deviation of per-cell counts from the uniform share."""
    expected = sum(node_counts) / len(node_counts)
    return sum((c - expected) ** 2 for c in node_counts) / len(node_counts)


def local_adversary_default(placement: str) -> bool:
    """Whether cell measurements condition on a local adversary by default.

    Evenly gridded layouts are measured unconditioned (their selection rate
    should sit at the global adversary share in every cell); scattered and
    clustered layouts keep at least one adversary in the measured cell so
    that sparse regions are evaluated under an active local attacker.
    """
    return placement != "uniform_grid"


def _near_cell(nodes, corner, size, radius: float) -> np.ndarray:
    """Mask of the nodes within ``radius`` of the closed cell from
    ``corner * size`` to ``(corner + 1) * size``, which holds every sample
    point ``(corner + u) * size`` with ``0 <= u < 1`` as rounded.  A node's
    gap to the cell is at most its rounded distance to any such point, so
    the relative slack ``_NEAR_SLACK`` keeps every node that
    :func:`reachable` can find from the cell."""
    low, high = corner * size, (corner + 1) * size
    gap = np.maximum(np.maximum(low - nodes, nodes - high), 0.0)
    return np.hypot(gap[:, 0], gap[:, 1]) <= radius * (1 + _NEAR_SLACK)


def measure_cell_probability(
    positions,
    adversary_count: int,
    cell: int,
    rng,
    *,
    samples: int,
    radius: float,
    require_local_adversary: bool = False,
) -> tuple[float | None, int]:
    """Estimate how often a requester inside one grid cell follows an adversary.

    ``samples`` points are uniform within the cell of the plane ``PLANE``,
    drawn from a Philox generator keyed by ``rng``.  The adversaries are a
    uniform ``adversary_count``-subset of the full nodes, holding at least
    one of the cell's own nodes when ``require_local_adversary`` and the
    cell is populated.  A requester follows a node uniform over its reach
    (whatever it polls), so its hit chance is the mean adversary chance of
    the nodes in reach (:func:`tipleak.analytic.cell_adversary_odds`); the
    estimate is the mean of that chance over the points that reach any
    node.  No adversary set is drawn, and only the nodes within ``radius``
    of the cell (:func:`_near_cell`) are tested against its points.

    Returns ``(probability, effective_samples)``, the latter the number of
    those points; probability is None when no sample point could reach any
    full node.
    """
    if require_local_adversary and adversary_count < 1:
        raise ConfigError(
            "local-adversary conditioning needs at least one adversary; "
            "disable it for adversary-free measurements"
        )
    nodes = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = len(nodes)
    members = cell_index(nodes) == cell
    if require_local_adversary:
        q_in, q_out = map(float, cell_adversary_odds(
            n, adversary_count, int(members.sum())))
    else:
        q_in = q_out = adversary_count / n
    gen = np.random.Generator(np.random.Philox(key=rng.getrandbits(128)))
    row, col = divmod(cell, GRID_DIM)
    corner = np.array((col, row), dtype=float)
    size = np.array(PLANE) / GRID_DIM
    near = _near_cell(nodes, corner, size, radius)
    if not near.any():
        return None, 0
    nodes = nodes[near]
    # each point's reach and local counts in one product: sums of 0/1
    # terms, exact integers in float64 below 2**53
    weights = np.ones((len(nodes), 2))
    weights[:, 1] = members[near]
    block = -(-_CELL_BLOCK_ELEMENTS // n)  # points per block: bounded memory
    chance = 0.0
    effective = 0
    for start in range(0, samples, block):
        points = (corner + gen.random((min(block, samples - start), 2))) * size
        count, local = (reachable(points, nodes, radius) @ weights).T
        seen = count > 0
        count, local = count[seen], local[seen]
        chance += float(np.sum((q_in * local + q_out * (count - local)) / count))
        effective += len(count)
    if effective == 0:
        return None, 0
    return chance / effective, effective


def _cell_layout(index: int, *, layout: SimConfig, seed: int, tag: int,
                 cell_key_base: int, **sampling):
    """Place layout ``index`` of ``layout`` from the sub-seed keyed ``(tag,
    index)``.  Returns the node count of each grid cell and a function
    measuring cell ``c`` from the substream keyed ``(tag, index,
    cell_key_base + c)``, so a cell's estimate does not depend on which
    other cells are measured."""
    positions = place_nodes(replace(layout, seed=_sub_seed(seed, tag, index))).full_nodes
    counts = np.bincount(cell_index(positions), minlength=GRID_CELLS).tolist()

    def measure(cell: int) -> tuple[float | None, int]:
        return measure_cell_probability(
            positions, layout.effective_adversaries, cell,
            substream(seed, DOMAIN_EXPERIMENT, tag, index, cell_key_base + cell),
            **sampling,
        )
    return counts, measure


def _measure_extremes(index: int, **layout_args):
    """The node count of each cell of layout ``index`` (:func:`_cell_layout`)
    and the ``(probability, standard error)`` of its sparsest and of its
    densest reachable cell (ties: lower cell index), None when no cell is
    reachable.  Cells are measured in count order until one is reachable,
    so most are never measured."""
    counts, measure = _cell_layout(index, **layout_args)
    measure = functools.cache(measure)

    def first_reachable(key):
        for cell in sorted(range(GRID_CELLS), key=key):
            prob, effective = measure(cell)
            if prob is not None:
                return prob, _binomial_se(prob, effective)
        return None
    return (counts, first_reachable(lambda i: (counts[i], i)),
            first_reachable(lambda i: (-counts[i], i)))


def _cell_layouts(
    tag: int, cell_key_base: int, *, placement: str, node_count: int,
    adversary_ratio: float, samples_per_cell: int, radius: float,
    require_local_adversary: bool | None, seed: int, **clusters,
) -> dict:
    """Check the settings ``heatmap`` and ``variance`` share and return the
    keyword arguments of :func:`_cell_layout` for them, with
    ``require_local_adversary`` resolved (:func:`local_adversary_default`)."""
    _check_counts(node_count=node_count, samples_per_cell=samples_per_cell)
    if not radius > 0:
        raise ConfigError("radius must be positive")
    layout = SimConfig(full_node_count=node_count, adversary_ratio=adversary_ratio,
                       light_node_count=1, placement=placement, **clusters)
    if require_local_adversary is None:
        require_local_adversary = local_adversary_default(placement)
    elif not isinstance(require_local_adversary, bool):
        raise ConfigError("require_local_adversary must be none, true or false, "
                          f"got {require_local_adversary!r}")
    if require_local_adversary and layout.effective_adversaries < 1:
        raise ConfigError("require_local_adversary needs adversary_ratio * node_count "
                          "to round to 1 or more; set it false for no adversaries")
    return dict(layout=layout, seed=seed, tag=tag, cell_key_base=cell_key_base,
                samples=samples_per_cell, radius=radius,
                require_local_adversary=require_local_adversary)


def _seeded(configs, seed: int, tag: int) -> list[SimConfig]:
    """Each config under the sub-seed keyed ``(tag, index)``, in order."""
    return [replace(config, seed=_sub_seed(seed, tag, index))
            for index, config in enumerate(configs)]


def _link_rate(sim: SimResult) -> tuple[float, float]:
    """A simulation's link rate and its binomial standard error."""
    return sim.deanon_rate, _binomial_se(sim.deanon_rate, sim.total_transactions)


def _simulated_rate(config: SimConfig) -> tuple[float, float]:
    """:func:`_link_rate` of one simulation: a :func:`pmap` job."""
    return _link_rate(run_simulation(config))


def pmap(func, jobs, workers: int = 1) -> list:
    """Order-preserving map, fanned out across processes when workers > 1.

    A job's result is all that outlives it, pickled back from a worker, so
    a job returns numbers, not a simulation.  The pool never outnumbers the
    jobs or the CPUs: under fork every ``max_workers`` process starts at once.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(func, jobs))
    # imported here: ``concurrent.futures.process`` and ``multiprocessing``
    # are a measurable share of the package's import, and one worker needs
    # neither
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, jobs))


# ---------------------------------------------------------------------------
# heatmap experiment
# ---------------------------------------------------------------------------

def exp_heatmap(
    placement: str = "uniform_grid",
    *,
    node_count: int = 50,
    adversary_ratio: float = 0.1,
    samples_per_cell: int = 1000,
    radius: float = 3.0,
    require_local_adversary: bool | None = None,
    cluster_count: int = 2,
    cluster_spread: float = 0.8,
    cluster_fraction: float = 0.8,
    layout_index: int = 0,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Per-cell adversary-selection probabilities for one node layout.

    ``layout_index`` selects among layouts generated under the same seed, so
    a family of random layouts can be scanned without touching the per-cell
    sampling streams.  ``require_local_adversary=None`` applies the
    placement-dependent default from :func:`local_adversary_default`.

    Each cell ``cell-<row>-<col>`` has a ``node_count`` row, then either
    ``unreachable`` (no sample point reached a full node) or its
    ``adversary_selection_probability``, with the binomial standard error as
    dispersion (an upper bound for an estimate that averages exact hit
    chances), and its ``effective_samples``.  The params echo every key as
    given.
    """
    if not -2**63 <= layout_index < 2**63:  # stream keys pack it in 64 bits
        raise ConfigError(f"layout_index must be a signed 64-bit integer, got {layout_index}")
    settings = dict(
        placement=placement, node_count=node_count, adversary_ratio=adversary_ratio,
        samples_per_cell=samples_per_cell, radius=radius,
        require_local_adversary=require_local_adversary, cluster_count=cluster_count,
        cluster_spread=cluster_spread, cluster_fraction=cluster_fraction,
    )
    counts, measure = _cell_layout(
        layout_index, **_cell_layouts(_TAG_HEATMAP, 0, **settings, seed=seed))
    result = ExperimentResult("heatmap", {
        **settings, "layout_index": layout_index, "rng_scheme": CELL_RNG_SCHEME,
    }, seed)
    for cell, count in enumerate(counts):
        label = "cell-{}-{}".format(*divmod(cell, GRID_DIM))
        result.add(label, "node_count", count)
        prob, effective = measure(cell)
        if prob is None:
            result.add(label, "unreachable", 1.0)
        else:
            result.add(label, "adversary_selection_probability", prob,
                       _binomial_se(prob, effective))
            result.add(label, "effective_samples", effective)
    return result


# ---------------------------------------------------------------------------
# variance experiment
# ---------------------------------------------------------------------------

def _average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``, tied values sharing their mean rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    edges = np.flatnonzero(np.append(new, True))  # each tie run's [start, stop)
    ranks = np.empty(len(values))
    ranks[order] = ((edges[:-1] + edges[1:] + 1) / 2)[np.cumsum(new) - 1]
    return ranks


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function I_x(a, b),
    by the modified Lentz method (Press et al., Numerical Recipes, 6.4)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + aa * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 4e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}")


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """The regularised incomplete beta function I_x(a, b), given ``x`` and
    ``y = 1 - x`` each computed without cancellation."""
    if x == 0 or y == 0:
        return float(y == 0)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1 - front * _beta_fraction(b, a, y) / b


def spearman(x, y) -> tuple[float, float]:
    """Spearman's rank correlation of ``x`` and ``y`` (three or more pairs,
    neither constant) and its two-sided p-value, as
    ``scipy.stats.spearmanr`` gives them: the correlation of the average
    ranks, tested by Student's t with ``n - 2`` degrees of freedom.  The
    t tail is I_{dof/(dof+t^2)}(dof/2, 1/2), where dof/(dof+t^2) is
    ``1 - rho^2``."""
    rho = float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])
    dof = len(x) - 2
    return rho, _incomplete_beta(dof / 2, 0.5, (1 - rho) * (1 + rho), rho * rho)


def exp_variance(
    runs: int = 100,
    node_count: int = 100,
    *,
    samples_per_cell: int = 1000,
    adversary_ratio: float = 0.1,
    radius: float = 3.0,
    placement: str = "uniform_random",
    require_local_adversary: bool | None = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> ExperimentResult:
    """Layout variance versus the sparsest/densest cells' selection rates.

    For each generated layout this reports the layout variance together
    with ``min_cell_prob`` / ``max_cell_prob`` -- the adversary-selection
    probabilities of the reachable cells holding the fewest and the most
    full nodes (ties break toward the lower cell index).  Only those two
    cells are measured (:func:`_measure_extremes`): cells are tried in
    count order until one is reachable, each from its own substream, so
    the rows equal those picked from a full heatmap.  The summary rows
    carry the Spearman rank correlation of variance against each, with the
    p-value in the dispersion column (:func:`spearman`).
    """
    if runs < 3:
        # with two layouts Spearman's p-value is undefined
        raise ConfigError(f"variance study needs runs >= 3, got {runs}")
    _check_counts(runs=runs)
    layout_args = _cell_layouts(
        _TAG_VARIANCE, 1, placement=placement, node_count=node_count,
        adversary_ratio=adversary_ratio, samples_per_cell=samples_per_cell,
        radius=radius, require_local_adversary=require_local_adversary, seed=seed,
    )
    params = {
        "runs": runs,
        "node_count": node_count,
        "samples_per_cell": samples_per_cell,
        "adversary_ratio": adversary_ratio,
        "radius": radius,
        "placement": placement,
        "require_local_adversary": layout_args["require_local_adversary"],
        "rng_scheme": CELL_RNG_SCHEME,
    }
    layouts = pmap(functools.partial(_measure_extremes, **layout_args), range(runs), workers)

    result = ExperimentResult("variance", params, seed)
    for run, (counts, sparse, dense) in enumerate(layouts):
        if sparse is None:
            raise ConfigError(f"layout {run} left every grid cell unreachable")
        label = f"layout-{run:03d}"
        result.add(label, "variance", layout_variance(counts))
        result.add(label, "min_cell_prob", *sparse)
        result.add(label, "max_cell_prob", *dense)

    variances = result.values("variance")
    for metric, column in (
        ("spearman_variance_min", result.values("min_cell_prob")),
        ("spearman_variance_max", result.values("max_cell_prob")),
    ):
        if len(set(variances)) < 2 or len(set(column)) < 2:
            # a constant column carries no rank information
            result.add("summary", metric, 0.0, 1.0)
        else:
            result.add("summary", metric, *spearman(variances, column))
    return result


# ---------------------------------------------------------------------------
# region snapshot experiment
# ---------------------------------------------------------------------------

def load_region_counts(path=None) -> dict[str, int]:
    """Full-node counts per region from the bundled (or a replacement) file."""
    if path is not None and not isinstance(path, (str, os.PathLike)):
        # open() would take an int for a file descriptor
        raise ConfigError(f"data must be a file path, got {path!r}")
    try:
        if path is None:
            raw = (
                resources.files("tipleak").joinpath("data", REGION_DATA_FILE)
                .read_text(encoding="utf-8")
            )
        else:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
        doc = json.loads(raw)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read region data: {exc}") from exc
    regions = doc.get("regions") if isinstance(doc, dict) else None
    if not isinstance(regions, dict) or not regions:
        raise ConfigError("region data file needs a non-empty 'regions' mapping")
    counts = {}
    for name in sorted(regions):
        count = regions[name]
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ConfigError(f"region {name!r} has invalid count {count!r}")
        counts[name] = count
    if sum(counts.values()) < 1:
        raise ConfigError("region data file lists no full nodes")
    return counts


def regional_rates(
    region_counts: dict[str, int], adversaries_by_region: dict[str, int]
) -> dict[str, float]:
    """Per-region link rate when requesters stay inside their own region."""
    rates = {}
    for name, total in region_counts.items():
        hostile = adversaries_by_region.get(name, 0)
        rates[name] = hostile / total if total else 0.0
    return rates


def _subset_rate(
    node_regions: list[str],
    subset,
    region_counts: dict[str, int],
    weights: dict[str, float],
) -> float:
    hostile: dict[str, int] = {}
    for idx in subset:
        region = node_regions[idx]
        hostile[region] = hostile.get(region, 0) + 1
    rates = regional_rates(region_counts, hostile)
    return sum(weights[name] * rates[name] for name in region_counts)


def exp_realworld(
    samples: int = 100,
    max_adversaries: int = 16,
    *,
    data=None,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Box-plot statistics of the link rate over random adversary subsets.

    Nodes come from the bundled 2020 region snapshot.  For each adversary
    count the study draws up to ``samples`` distinct subsets (every subset
    when fewer exist), scores each by the region-weighted link rate --
    requesters poll only their own region, and regions weigh equally --
    and reports min/q1/median/q3/max.
    """
    region_counts = load_region_counts(data)
    total = sum(region_counts.values())
    if not 1 <= max_adversaries <= total:
        raise ConfigError(f"max_adversaries must be in [1, {total}]")
    _check_counts(samples=samples)
    if samples > REALWORLD_MAX_SAMPLES:
        raise ConfigError(f"samples must be <= {REALWORLD_MAX_SAMPLES}")
    weights = {name: 1.0 / len(region_counts) for name in region_counts}

    node_regions = [
        name for name in region_counts for _ in range(region_counts[name])
    ]
    params = {
        "samples": samples,
        "max_adversaries": max_adversaries,
        "regions": dict(region_counts),
        "weights": {k: round(v, 12) for k, v in weights.items()},
    }
    result = ExperimentResult("realworld", params, seed)
    for count in range(1, max_adversaries + 1):
        exhaustive = math.comb(total, count) <= samples
        if exhaustive:
            subsets = [frozenset(c) for c in itertools.combinations(range(total), count)]
        else:
            rng = substream(seed, DOMAIN_EXPERIMENT, _TAG_REALWORLD, count)
            seen: set[frozenset[int]] = set()
            while len(seen) < samples:
                seen.add(frozenset(rng.sample(range(total), count)))
            subsets = sorted(seen, key=sorted)
        rates = sorted(
            _subset_rate(node_regions, subset, region_counts, weights)
            for subset in subsets
        )
        if len(rates) == 1:
            q1 = median = q3 = rates[0]
        else:
            q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
        label = f"adversaries-{count:02d}"
        result.add(label, "min", rates[0])
        result.add(label, "q1", q1)
        result.add(label, "median", median)
        result.add(label, "q3", q3)
        result.add(label, "max", rates[-1])
        result.add(label, "subsets", len(rates))
    return result


# ---------------------------------------------------------------------------
# link-rate sweep experiment
# ---------------------------------------------------------------------------

def exp_decentralized(
    *,
    light_nodes: int = 100,
    rounds: int = 100,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> ExperimentResult:
    """One-factor sweeps of the link rate around the N=100, M=3, p=0.1 base.

    Each row pairs the closed-form link probability with a Monte Carlo
    estimate (dispersion column = standard error).  Sweep rows vary one of
    node count, request fanout, or adversary share while the others stay at
    the base; summary rows report the empirical spread inside the node and
    fanout sweeps, which the rate should not depend on.
    """
    _check_counts(light_nodes=light_nodes, rounds=rounds)
    base_n, base_m, base_ratio = 100, 3, 0.1
    node_sweep, fanout_sweep = (50, 100, 200), (1, 3, 5)
    ratio_sweep = (0.05, 0.1, 0.2, 0.33)
    specs = [(f"N-{n}", n, base_ratio, base_m) for n in node_sweep]
    specs += [(f"M-{m}", base_n, base_ratio, m) for m in fanout_sweep]
    specs += [(f"p-{ratio:g}", base_n, ratio, base_m) for ratio in ratio_sweep]
    labels = [spec[0] for spec in specs]
    configs = [
        SimConfig(full_node_count=n, adversary_ratio=ratio,
                  request_fanout=m, light_node_count=light_nodes, rounds=rounds)
        for _, n, ratio, m in specs
    ]
    params = {
        "light_nodes": light_nodes,
        "rounds": rounds,
        "node_sweep": list(node_sweep),
        "fanout_sweep": list(fanout_sweep),
        "ratio_sweep": list(ratio_sweep),
        "rng_scheme": RNG_SCHEME,
    }
    result = ExperimentResult("decentralized", params, seed)
    scored = pmap(_simulated_rate, _seeded(configs, seed, _TAG_DECENTRALIZED), workers)
    for label, config, (rate, se) in zip(labels, configs, scored):
        result.add(label, "analytic", deanon_probability(
            config.full_node_count, config.effective_adversaries, config.request_fanout))
        result.add(label, "empirical", rate, se)
    for prefix, sweep in (("N", node_sweep), ("M", fanout_sweep)):
        swept = {f"{prefix}-{v}" for v in sweep}
        rates = [rate for label, rate in zip(labels, result.values("empirical"))
                 if label in swept]
        result.add(f"{prefix}-sweep", "empirical_spread", max(rates) - min(rates))
    return result


# ---------------------------------------------------------------------------
# mixer experiment
# ---------------------------------------------------------------------------

def simulate_mixer_chains(
    link_prob: float, participants: int, rng
) -> np.ndarray:
    """How many of ``participants`` chain starts identify a chain of each
    length: ``counts[k]`` chains of length ``k``, up to the longest.

    A chain grows by one participant per hop; a hop succeeds only when both
    of the next participant's address mappings (deposit side and withdrawal
    side) are revealed, each independently with probability ``link_prob``.
    """
    if not 0.0 <= link_prob < 1.0:
        raise ConfigError("link_prob must be in [0, 1)")
    counts = [0]
    for _ in range(participants):
        length = 1
        while True:
            deposit_seen = rng.random() < link_prob
            withdraw_seen = rng.random() < link_prob
            if not (deposit_seen and withdraw_seen):
                break
            length += 1
        if length >= len(counts):
            counts.extend([0] * (length + 1 - len(counts)))
        counts[length] += 1
    return np.array(counts, dtype=np.int64)


def _sqrt_of_ratio(num: int, den: int) -> float:
    """``sqrt(num / den)`` correctly rounded, for ints ``num >= 0`` and
    ``den > 0``.  The integer root is taken to at least 55 bits and rounded
    to odd (its last bit set when inexact); rounding that to a float's 53
    bits then rounds the true root."""
    shift = max(0, (111 - num.bit_length() + den.bit_length()) // 2)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // den)
    return (root | (root * root * den != scaled)) / (1 << shift)


def _mean_and_stdev(counts: np.ndarray) -> tuple[float, float]:
    """``statistics.fmean`` and ``statistics.stdev``, bit for bit, of the
    sample that holds ``counts[k]`` copies of ``k``: from its size n, sum
    S and sum of squares Q, the mean is S / n and the variance exactly
    (n Q - S**2) / (n (n - 1))."""
    n = s = q = 0
    lengths = np.flatnonzero(counts)
    for k, c in zip(lengths.tolist(), counts[lengths].tolist()):
        n, s, q = n + c, s + k * c, q + k * k * c
    return float(s) / n, _sqrt_of_ratio(n * q - s * s, n * (n - 1))


def exp_mixer(
    p_values=(0.05, 0.1, 0.2),
    max_chain: int = 5,
    *,
    participants: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Mixer chain-identification table: closed forms next to Monte Carlo.

    Per reveal probability p this tabulates the analytic chance of
    identifying a chain of at least x participants together with the
    empirical frequency over ``participants`` simulated chains, plus both
    expected-count modes and the observed mean chain length.
    """
    params = {
        "p_values": [float(p) for p in p_values],
        "max_chain": max_chain,
        "participants": participants,
    }
    if participants < 2:  # the chain-length spread needs two samples
        raise ConfigError(f"participants must be >= 2, got {participants}")
    _check_counts(max_chain=max_chain, participants=participants)
    if max_chain > MIXER_MAX_CHAIN:
        raise ConfigError(f"max_chain must be <= {MIXER_MAX_CHAIN}")
    if not all(0.0 <= p < 1.0 for p in p_values):
        raise ConfigError(f"p_values must each be in [0, 1), got {params['p_values']}")
    result = ExperimentResult("mixer", params, seed)
    for p_idx, p in enumerate(p_values):
        rng = substream(seed, DOMAIN_EXPERIMENT, _TAG_MIXER, p_idx)
        chains = simulate_mixer_chains(p, participants, rng)
        counts = np.pad(chains, (0, max(0, max_chain + 1 - len(chains))))
        # at_least[x]: chains of length >= x, for every x up to max_chain
        at_least = np.cumsum(counts[::-1])[::-1]
        mean_len, spread = _mean_and_stdev(counts)
        label = f"p-{p:g}"
        result.add(label, "expected_raw", mixer_expected_identified(p, mode="raw"))
        result.add(
            label, "expected_normalized",
            mixer_expected_identified(p, mode="normalized"),
        )
        result.add(
            label, "mean_chain_length", mean_len,
            spread / math.sqrt(participants),
        )
        for x in range(1, max_chain + 1):
            analytic = mixer_chain_probability(p, x)
            observed = int(at_least[x]) / participants
            result.add(f"{label}-x-{x}", "chain_prob_analytic", analytic)
            result.add(f"{label}-x-{x}", "chain_prob_empirical", observed,
                       _binomial_se(observed, participants))
    return result


# ---------------------------------------------------------------------------
# mitigation comparison experiment
# ---------------------------------------------------------------------------

def exp_mitigations(
    *,
    baseline_nodes: int = 100,
    baseline_adversaries: int = 10,
    scaling_target: float = 0.01,
    baseline_rounds: int = 200,
    scaling_rounds: int = 1000,
    light_nodes: int = 100,
    proxy_light_nodes: int = 6,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Compare the unprotected baseline against each mitigation mode.

    Rows: the baseline link rate; full-node scaling at the analytically
    required population for ``scaling_target``; request proxying (links can
    only name the proxy, leaving requester anonymity intact); and local tip
    selection, which produces no link material at all.
    """
    _check_counts(
        baseline_nodes=baseline_nodes, baseline_adversaries=baseline_adversaries,
        baseline_rounds=baseline_rounds, scaling_rounds=scaling_rounds,
        light_nodes=light_nodes, proxy_light_nodes=proxy_light_nodes,
    )
    if baseline_adversaries > baseline_nodes:
        raise ConfigError("baseline_adversaries must be <= baseline_nodes")
    if not 0.0 < scaling_target <= 1.0:
        raise ConfigError(f"scaling_target must be in (0, 1], got {scaling_target}")
    params = {
        "baseline_nodes": baseline_nodes,
        "baseline_adversaries": baseline_adversaries,
        "scaling_target": scaling_target,
        "baseline_rounds": baseline_rounds,
        "scaling_rounds": scaling_rounds,
        "light_nodes": light_nodes,
        "proxy_light_nodes": proxy_light_nodes,
        "rng_scheme": RNG_SCHEME,
    }
    result = ExperimentResult("mitigations", params, seed)
    required = required_full_nodes(baseline_adversaries, scaling_target)
    if required > WORK_BOUND:
        raise ConfigError(f"scaling_target {scaling_target} needs {required} full nodes, "
                          f"more than {WORK_BOUND}")
    attacked = dict(adversary_count=baseline_adversaries, light_node_count=light_nodes)
    small = dict(full_node_count=20, adversary_count=2)
    configs = {
        "baseline": SimConfig(full_node_count=baseline_nodes, rounds=baseline_rounds,
                              **attacked),
        "scaling": SimConfig(full_node_count=required, rounds=scaling_rounds,
                             **attacked),
        "proxy": SimConfig(light_node_count=proxy_light_nodes, rounds=100,
                           mode="proxy", proxy_count=1, **small),
        "direct": SimConfig(light_node_count=20, rounds=50,
                            mode="direct_tip_selection", **small),
    }
    sims = {label: run_simulation(config) for label, config in
            zip(configs, _seeded(configs.values(), seed, _TAG_MITIGATIONS))}
    for label, sim in sims.items():
        degree = sim.to_flat()["mean_attacked_degree"]
        result.add(label, "link_rate", *_link_rate(sim))
        result.add(label, "correct_link_rate",
                   sim.correct_link_count / sim.total_transactions)
        # no attacked address leaves every light fully anonymous
        result.add(label, "anonymity_degree", 1.0 if degree is None else degree)
    result.add("scaling", "required_full_nodes", required)
    proxy = configs["proxy"]
    claims = set(sims["proxy"].links.claimed.tolist())
    proxy_ids = range(proxy.full_node_count, proxy.full_node_count + proxy.proxy_count)
    result.add("proxy", "links_to_proxies_only",
               1.0 if claims and claims <= set(proxy_ids) else 0.0)
    return result


# ---------------------------------------------------------------------------
# free-form simulation
# ---------------------------------------------------------------------------

def exp_custom(*, seed: int = DEFAULT_SEED, **settings) -> ExperimentResult:
    """One simulation; ``settings`` are :class:`SimConfig` fields.

    The rows are the simulation's scalar summary, less the seed (it is in
    the header) and the values it leaves unset.
    """
    sim = run_simulation(SimConfig(**settings, seed=seed))
    result = ExperimentResult(
        "custom", {**settings, "rng_scheme": RNG_SCHEME}, seed
    )
    for key, value in sim.to_flat().items():
        if key != "seed" and value is not None:
            result.add("simulation", key, value)
    return result


# ---------------------------------------------------------------------------
# study registry
# ---------------------------------------------------------------------------

_RUN_ARGUMENTS = ("seed", "workers")  # set by the caller, never by a key


@dataclass(frozen=True)
class Study:
    """One ``tipleak run`` name: the function it calls and the keys it takes.

    Every parameter of ``defaults_from`` (the study function unless named)
    is a key, except the seed and worker count.  A key's default is the
    parameter's default; it also tells a text parser which type to expect.
    Functions are looked up in this module on each use, so a study function
    patched or replaced at run time is the one that runs.
    """

    function: str
    defaults_from: str | None = None

    def defaults(self) -> dict:
        """Each key with its default, in signature order."""
        source = globals()[self.defaults_from or self.function]
        return {
            name: param.default
            for name, param in inspect.signature(source).parameters.items()
            if name not in _RUN_ARGUMENTS
        }

    def run(self, settings: dict, seed: int = DEFAULT_SEED,
            workers: int = 1) -> ExperimentResult:
        """Call the study at the defaults updated by ``settings``, a key ->
        value map, and return its result as it is: every study returns an
        :class:`ExperimentResult` that echoes its keys."""
        function = globals()[self.function]
        resolved = {**self.defaults(), **settings}
        if "workers" in inspect.signature(function).parameters:
            return function(**resolved, seed=seed, workers=workers)
        return function(**resolved, seed=seed)


STUDIES: dict[str, Study] = {
    "decentralized": Study("exp_decentralized"),
    "realworld": Study("exp_realworld"),
    "heatmap": Study("exp_heatmap"),
    "variance": Study("exp_variance"),
    "mixer": Study("exp_mixer"),
    "mitigations": Study("exp_mitigations"),
    "custom": Study("exp_custom", defaults_from="SimConfig"),
}
