"""Network-level attack simulation.

A population of full nodes (some of them logging adversaries), optional
proxies, and light nodes lives on the plane :data:`PLANE`.
:func:`place_nodes` builds it once, as position arrays and an adversary
mask; :func:`reachable` tells which full nodes a requester may query, and a
proxied light queries through its nearest proxy.  Each round every light
node asks up to ``request_fanout`` reachable full nodes for a tip
selection, follows exactly one answer, and attaches a transaction under a
fresh address.  Adversarial full nodes log every response they serve,
compare the new ledger entries of each round against their log of that
round and emit identity links, the rows of one columnar :class:`Links`.

A finished run is scored once, from its links: every light that reaches a
full node (every light, under direct tip selection) attaches once per
round, so the transaction counts follow from who issues.  The lights
behind an address's claimed identities are equally likely senders, so its
anonymity degree is 1.0 when there are two or more of them and 0.0 when
the address is pinned to one light.

A round is columnar, and a run draws from two counter-indexed Philox
streams (:func:`tipleak.rng.words`), in each of which every round owns a
fixed range of words: ``DOMAIN_REQUEST`` holds every light's queried set
and follow choice, ``DOMAIN_URTS`` the URTS (uniform random tip selection)
draws of every response, or of every light under direct tip selection.
Reach never changes during a run, so the request plan -- which lights send
how many requests, under which identity -- is built once, with the reach,
in :class:`Requesters`.

Only the tips pass from one round to the next, and neither the queried
nodes, the follow choices nor the matching depend on them, so adversaries
match a run in blocks of rounds bounded by ``_BLOCK`` requests, once a
block has run, the run ends or the ledger is read.  The match draws the
block's request words in one call -- the queried positions
(:func:`sample_positions`), then the follow choices, which go into the
run's one follow table that the ledger reads too -- and matches its log: a
nonce-tagged response names the one attach that followed it, so
assume_unique links are a gather of the logged mask at the followed
requests, and collision-aware matching is a join on one int64 key per
row, ``((round - r0) * R_lo + lo - lo0) * R_hi + hi - hi0`` with ``lo``
and ``hi`` the lesser and greater tip of the pair, each column offset by
its least value and ``R`` its range.  The ranges' product is checked in
Python ints first: a block too wide to key in int64 raises ValueError
instead of wrapping into false links.  Either way links come out in
(round, attach, log row) order for any block size.

A round attaches as one ledger batch, its URTS uniforms mapped against the
tips it starts from.  :meth:`Simulation._grow` is the ledger's one growth
path, and it draws the URTS words of the rounds it attaches; before its
first attach it reserves the ledger's rows for the whole run.  No round
touches the ledger as it runs: collision-aware matching, the only reader
of served pairs, grows the rounds it matches and reads their attaches
back as the ledger's last rows; otherwise the ledger is grown on read --
:attr:`Simulation.ledger` matches every round run so far, then attaches
them.

Placement and adversary choice come from :func:`tipleak.rng.substream`.
Results are a pure function of the config and seed -- scheduling, block
size and worker counts cannot reorder anything.  :data:`RNG_SCHEME` names
this draw scheme; studies that simulate echo it among their parameters, so
a change of scheme changes their ``config_hash``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field, fields

import numpy as np

from .rng import (
    DOMAIN_ADVERSARY,
    DOMAIN_LAYOUT,
    DOMAIN_REQUEST,
    DOMAIN_URTS,
    substream,
    to_uniforms,
    words,
)
from .tangle import (
    GENESIS_ID,
    Ledger,
    bootstrap_labels,
    round_address,
    urts_pairs,
)

RNG_SCHEME = "philox-run-v3"

PLANE = (10.0, 10.0)  # width and height of the placement plane
GRID_DIM = 3  # heatmap cells per plane axis

MODE_BASELINE = "baseline"
MODE_PROXY = "proxy"
MODE_DIRECT = "direct_tip_selection"

MATCH_ASSUME_UNIQUE = "assume_unique"
MATCH_COLLISION_AWARE = "collision_aware"

PLACEMENTS = ("uniform_grid", "uniform_random", "clustered")

# The most nodes, ledger rows or samples one input may ask for.  Inputs
# past it are refused up front with a ConfigError naming the key, not left
# to fail in an allocation or to run without end.
WORK_BOUND = 2 ** 31


class ConfigError(ValueError):
    """Raised for simulation configs that cannot be run."""


def _check_counts(**counts: int) -> None:
    """Reject any count below 1 or above ``WORK_BOUND``, naming its key."""
    for key, value in counts.items():
        if value < 1:
            raise ConfigError(f"{key} must be >= 1")
        if value > WORK_BOUND:
            raise ConfigError(f"{key} must be <= {WORK_BOUND}")


@dataclass(frozen=True, eq=False)
class Links:
    """Identity links in match order: the matched response's nonce
    (round, responder, light), the identity it claims, the light that
    attached (the address is ``round_address(round, light)``) and, for
    evaluation only, whether the claim names the true issuer."""

    nonce: np.ndarray    # (n, 3)
    claimed: np.ndarray  # (n,)
    light: np.ndarray    # (n,)
    correct: np.ndarray  # (n,) bool

    def __len__(self) -> int:
        return len(self.claimed)


@dataclass(frozen=True)
class ResponseLog:
    """Responses adversaries served, one row each.

    ``nonce`` rows are (round, responder, light), ``requester`` is the
    identity the responder saw and ``tips`` the pair it served.
    """

    nonce: np.ndarray       # (n, 3)
    requester: np.ndarray   # (n,)
    tips: np.ndarray        # (n, 2)

    def __len__(self) -> int:
        return len(self.requester)


@dataclass(frozen=True)
class RoundAttaches:
    """Attaches in ledger order, with their issue round and the ground
    truth needed to score links."""

    light: np.ndarray           # (n,) origin light; address label
    identity: np.ndarray        # (n,) true issuer (the proxy, when proxied)
    parents: np.ndarray         # (n, 2)
    round: np.ndarray           # (n,)

    def __len__(self) -> int:
        return len(self.light)


_COUNT_FIELDS = (
    "full_node_count", "adversary_count", "request_fanout", "light_node_count",
    "rounds", "cluster_count", "proxy_count", "bootstrap_tips",
)


@dataclass
class SimConfig:
    full_node_count: int = 100
    adversary_count: int | None = None   # overrides adversary_ratio when set
    adversary_ratio: float = 0.1
    request_fanout: int = 3
    light_node_count: int = 100
    rounds: int = 100
    request_radius: float | None = None  # None: every full node reachable
    placement: str = "uniform_random"
    cluster_count: int = 2
    cluster_spread: float = 0.8
    cluster_fraction: float = 0.8        # share of nodes pulled into clusters
    mode: str = MODE_BASELINE
    matching: str = MATCH_ASSUME_UNIQUE
    proxy_count: int = 0
    bootstrap_tips: int = 0              # pre-attached genesis children
    seed: int = 42

    def __post_init__(self) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if value is None and name == "adversary_count":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        _check_counts(full_node_count=self.full_node_count,
                      light_node_count=self.light_node_count)
        # light_node_count >= 1, so this also bounds rounds alone
        if self.rounds * self.light_node_count > WORK_BOUND:
            raise ConfigError(f"rounds x light_node_count must be <= {WORK_BOUND}")
        _check_counts(rounds=self.rounds)
        if self.request_fanout < 1:
            raise ConfigError("request_fanout must be >= 1")
        if not 0.0 <= self.adversary_ratio <= 1.0:
            raise ConfigError("adversary_ratio must be in [0, 1]")
        if self.adversary_count is not None and not (
            0 <= self.adversary_count <= self.full_node_count
        ):
            raise ConfigError("adversary_count must be in [0, full_node_count]")
        if self.request_radius is not None and not self.request_radius > 0:
            raise ConfigError("request_radius must be positive or None")
        _check_counts(cluster_count=self.cluster_count)
        if not (self.cluster_spread >= 0 and math.isfinite(self.cluster_spread)):
            raise ConfigError("cluster_spread must be >= 0 and finite")
        if not 0.0 <= self.cluster_fraction <= 1.0:
            raise ConfigError("cluster_fraction must be in [0, 1]")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}")
        if self.mode not in (MODE_BASELINE, MODE_PROXY, MODE_DIRECT):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.matching not in (MATCH_ASSUME_UNIQUE, MATCH_COLLISION_AWARE):
            raise ConfigError(f"unknown matching {self.matching!r}")
        if self.mode == MODE_PROXY and self.proxy_count < 1:
            raise ConfigError("proxy mode needs proxy_count >= 1")
        if self.proxy_count < 0:
            raise ConfigError("proxy_count must be >= 0")
        if self.bootstrap_tips < 0:
            raise ConfigError("bootstrap_tips must be >= 0")
        for name in ("proxy_count", "bootstrap_tips"):
            if getattr(self, name) > WORK_BOUND:
                raise ConfigError(f"{name} must be <= {WORK_BOUND}")

    @property
    def effective_adversaries(self) -> int:
        if self.adversary_count is not None:
            return self.adversary_count
        return int(round(self.adversary_ratio * self.full_node_count))


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def _grid_positions(n: int) -> np.ndarray:
    """Spread n points evenly over the GRID_DIM x GRID_DIM cells: round-robin
    across cells, sub-lattice inside each cell.  ``(n, 2)``."""
    cells = GRID_DIM * GRID_DIM
    slot, cell = np.divmod(np.arange(n), cells)
    row, col = np.divmod(cell, GRID_DIM)
    # a cell's side is the ceiling of the root of how many points it holds
    side = np.ceil(np.sqrt((n - cell + cells - 1) // cells)).astype(np.int64)
    sy, sx = np.divmod(slot, side)
    return np.column_stack(((col + (sx + 0.5) / side) * (PLANE[0] / GRID_DIM),
                            (row + (sy + 0.5) / side) * (PLANE[1] / GRID_DIM)))


def _clustered_positions(
    n: int, rng: random.Random, cluster_count: int, spread: float, fraction: float,
) -> list[tuple[float, float]]:
    centers = [
        (rng.uniform(0, PLANE[0]), rng.uniform(0, PLANE[1]))
        for _ in range(cluster_count)
    ]
    positions = []
    for i in range(n):
        if rng.random() < fraction:
            cx, cy = centers[rng.randrange(len(centers))]
            x = min(max(rng.gauss(cx, spread), 0.0), PLANE[0])
            y = min(max(rng.gauss(cy, spread), 0.0), PLANE[1])
        else:
            x, y = rng.uniform(0, PLANE[0]), rng.uniform(0, PLANE[1])
        positions.append((x, y))
    return positions


def _uniform_positions(n: int, rng: random.Random) -> np.ndarray:
    """``(n, 2)`` points uniform on the plane, x then y of each in turn:
    ``rng.uniform(0, w)`` is ``0 + w * rng.random()``, the same float."""
    draw = rng.random
    return np.array([draw() for _ in range(2 * n)]).reshape(n, 2) * PLANE


def _positions(n: int, config: SimConfig, rng: random.Random) -> np.ndarray:
    """``(n, 2)`` positions by the config's placement."""
    if config.placement == "uniform_grid":
        return _grid_positions(n)
    if config.placement == "clustered":
        positions = _clustered_positions(
            n, rng, config.cluster_count, config.cluster_spread, config.cluster_fraction
        )
        return np.array(positions, dtype=float).reshape(n, 2)
    return _uniform_positions(n, rng)


@dataclass(frozen=True, eq=False)
class Population:
    """Node positions by kind, each a ``(k, 2)`` array, and which full
    nodes are adversaries.

    Ids run over full nodes first, then proxies, then light nodes, so a
    node's id is its row plus the counts of the kinds before it.
    """

    full_nodes: np.ndarray   # (N, 2)
    adversary: np.ndarray    # (N,) bool
    proxies: np.ndarray      # (P, 2)
    light_nodes: np.ndarray  # (L, 2)

    @property
    def light_ids(self) -> np.ndarray:
        first = len(self.full_nodes) + len(self.proxies)
        return np.arange(first, first + len(self.light_nodes))


def place_nodes(config: SimConfig) -> Population:
    """Build the positioned population for a config.

    The layout stream places the full nodes, then the proxies, then the
    light nodes; the adversaries are drawn from their own stream.
    """
    rng = substream(config.seed, DOMAIN_LAYOUT)
    n = config.full_node_count
    full_nodes = _positions(n, config, rng)
    adversary = np.zeros(n, dtype=bool)
    adversary[substream(config.seed, DOMAIN_ADVERSARY).sample(
        range(n), config.effective_adversaries)] = True
    return Population(
        full_nodes=full_nodes,
        adversary=adversary,
        proxies=_positions(config.proxy_count, config, rng),
        light_nodes=_positions(config.light_node_count, config, rng),
    )


# Squared distances carry a few ulps of rounding, hypot under one: outside
# this relative band around radius**2 both give the same side of the ball.
_REACH_BAND = 1e-12
_REACH_RADII = (1e-150, 1e150)  # squares stay normal, band bounds finite
# (point, node) pairs per pass.  Its two float64 temporaries, 64 KiB each,
# stay in cache and under glibc's 128 KiB mmap threshold, so malloc serves
# them from the heap.  At 1 << 15 (256 KiB each) glibc mapped and unmapped
# them afresh every pass: a perfbench ``variance`` call took about 9,200
# minor page faults and 4-16 ms of system time, against 0-12 faults now.
_REACH_CHUNK = 1 << 13


def _distances(points, nodes) -> np.ndarray:
    """``(k, n)`` Euclidean distance from each of ``k`` points to each of
    ``n`` nodes, both ``(x, y)`` rows."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    return np.hypot(points[:, None, 0] - nodes[None, :, 0],
                    points[:, None, 1] - nodes[None, :, 1])


def _within(points, nodes, radius: float) -> np.ndarray:
    """:func:`reachable` for one chunk of points, by squared distance."""
    d2 = np.subtract.outer(points[:, 0], nodes[:, 0])
    d2 *= d2
    dy = np.subtract.outer(points[:, 1], nodes[:, 1])
    dy *= dy
    d2 += dy
    r2 = radius * radius
    reach = d2 <= r2 * (1 - _REACH_BAND)
    band = d2 <= r2 * (1 + _REACH_BAND)
    if np.count_nonzero(band) != np.count_nonzero(reach):
        i, j = np.nonzero(band ^ reach)
        reach[i, j] = np.hypot(points[i, 0] - nodes[j, 0],
                               points[i, 1] - nodes[j, 1]) <= radius
    return reach


def reachable(points, nodes, radius: float | None) -> np.ndarray:
    """``(k, n)`` bool: whether node ``j`` lies within ``radius`` of point
    ``i``.  Reach is a closed ball (a distance exactly equal to the radius
    counts); every node is reachable when ``radius`` is None.

    The result equals ``np.hypot(dx, dy) <= radius`` element for element,
    but is computed on squared distances: a pair whose ``dx*dx + dy*dy``
    lies more than ``_REACH_BAND`` (relative) from ``radius * radius``
    cannot round to the other side of the ball, so only the few-ulp band
    around the boundary -- almost always empty -- is decided by ``hypot``.
    Radii whose square leaves the normal float range use ``hypot`` alone.
    """
    if radius is None:
        return np.ones((len(points), len(nodes)), dtype=bool)
    if not _REACH_RADII[0] < radius < _REACH_RADII[1]:
        return _distances(points, nodes) <= radius
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    reach = np.empty((len(points), len(nodes)), dtype=bool)
    step = max(1, _REACH_CHUNK // max(len(nodes), 1))
    for start in range(0, len(points), step):
        reach[start:start + step] = _within(points[start:start + step], nodes, radius)
    return reach


def proxy_assign(population: Population) -> np.ndarray:
    """The id of each light node's nearest proxy (ties: lowest proxy id)."""
    if not len(population.proxies):
        raise ConfigError("proxy assignment requires at least one proxy")
    d = _distances(population.light_nodes, population.proxies)
    # argmin takes the first minimum, which is the lowest proxy id
    return len(population.full_nodes) + np.argmin(d, axis=1)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

_KEY_MAX = np.iinfo(np.int64).max


def _row_keys(*columns: np.ndarray) -> np.ndarray:
    """One int64 key per row of the equal-length integer ``columns``, equal
    exactly when the rows are equal: the row's mixed-radix index, each
    column offset by its least value and ranging up to its greatest, as
    :func:`np.ravel_multi_index` indexes the offset rows.  Raises
    ValueError, as that does, when the ranges multiply past int64, where
    the keys would wrap."""
    empty = not len(columns[0])
    offsets = [0 if empty else int(column.min()) for column in columns]
    ranges = [1 if empty else int(column.max()) - offset + 1
              for column, offset in zip(columns, offsets)]
    if math.prod(ranges) > _KEY_MAX:  # Python ints: the check cannot wrap
        raise ValueError(f"key ranges {ranges} multiply past int64")
    keys = np.subtract(columns[0], offsets[0], dtype=np.int64)
    for column, offset, size in zip(columns[1:], offsets[1:], ranges[1:]):
        keys *= size
        keys += column - offset
    return keys


def _pair_join(
    left_round: np.ndarray, left_pairs: np.ndarray,
    right_round: np.ndarray, right_pairs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every (left row, right row) index pair that shares a round and an
    unordered tip pair, ordered by right row and then by left row."""
    pairs = np.concatenate((left_pairs, right_pairs))
    keys = _row_keys(np.concatenate((left_round, right_round)),
                     np.minimum(pairs[:, 0], pairs[:, 1]),
                     np.maximum(pairs[:, 0], pairs[:, 1]))
    return _join_keys(keys[:len(left_pairs)], keys[len(left_pairs):])


def _join_keys(left_keys: np.ndarray, right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (left row, right row) index pair of equal int64 keys, ordered
    by right row and then by left row."""
    order = np.argsort(left_keys, kind="stable")
    sorted_keys = left_keys[order]
    # both searches run over the needles in ascending order, where each
    # starts near the last, then the bounds go back to right-row order
    needles = np.argsort(right_keys)
    found = right_keys[needles]
    first = np.searchsorted(sorted_keys, found, "left")
    lo, counts = np.empty_like(first), np.empty_like(first)
    lo[needles] = first
    counts[needles] = np.searchsorted(sorted_keys, found, "right") - first
    if counts.max(initial=0) <= 1:  # no key matched twice: no repeat to expand
        hit = np.flatnonzero(counts)
        return order[lo[hit]], hit
    right_idx = np.repeat(np.arange(len(right_keys)), counts)
    within = np.arange(len(right_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    return order[np.repeat(lo, counts) + within], right_idx


def match_responses(
    log: ResponseLog, new: RoundAttaches, matching: str = MATCH_COLLISION_AWARE,
) -> Links:
    """Link new ledger entries to logged requesters under collision_aware
    matching: on the raw unordered tip pair, within the round it was
    served in.  Every (logged response, matching entry) combination
    produces a link, and entries that merely share the pair become false
    positives.

    Nonce-tagged (assume_unique) links need no join: :meth:`Simulation._match`
    gathers them.  ``matching`` stays a third parameter, collision_aware
    alone, because perfbench's tracer wraps this function with a
    three-argument call.
    """
    if matching != MATCH_COLLISION_AWARE:
        raise ConfigError(f"match_responses matches collision_aware only, not {matching!r}")
    log_idx, new_idx = _pair_join(log.nonce[:, 0], log.tips, new.round, new.parents)
    claimed = log.requester[log_idx]
    return Links(nonce=log.nonce[log_idx], claimed=claimed, light=new.light[new_idx],
                 correct=claimed == new.identity[new_idx])


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Requesters:
    """The light nodes that reach at least one full node, ascending by id,
    and the request plan every round of a run shares.

    Row ``r`` is one light: the identity responders see (its proxy's, when
    proxied) and the ``fanout[r]`` requests it sends each round -- at most
    ``request_fanout``, and no more than the full nodes it reaches -- which
    are rows ``first[r]:first[r] + fanout[r]`` of a round's requests.
    ``full_ids`` holds each identity's reachable ids once, ascending,
    identity after identity, so the lights behind one proxy share one run
    of it.  The request columns
    give the first entry in ``full_ids`` of each request's owner, its
    nonce light and its visible identity.
    The ``(width, rows)`` mask ``drawing`` tells which rows make a pick at
    each fan-out step, and ``bounds`` holds the bound of every pick in
    step-major order: step ``t`` of a row that reaches ``k`` full nodes
    draws below ``k - t``.
    Reach never changes during a run, so only the queried nodes, the
    responses and the follow choices are drawn per round.
    """

    light: np.ndarray
    visible: np.ndarray
    full_ids: np.ndarray
    fanout: np.ndarray
    first: np.ndarray
    request_start: np.ndarray
    request_light: np.ndarray
    request_visible: np.ndarray
    drawing: np.ndarray
    bounds: np.ndarray


def sample_positions(draws: np.ndarray, drawing: np.ndarray) -> np.ndarray:
    """Each round's uniform ``counts[r]``-subset of ``range(sizes[r])`` for
    every row ``r``, from the round's raw draws.

    Row ``r`` picks at the steps where the ``(width, rows)`` mask
    ``drawing`` is true.  Row ``i`` of ``draws`` holds round ``i``'s picks
    in step-major order -- every row's first pick, then every second pick
    of the rows that make one, and so on -- and step ``t`` of a row drew
    below ``sizes[r] - t``.  Returns ``(rounds, drawing.sum())``: each
    round's subsets in draw order, rows concatenated.
    """
    width, rows = drawing.shape
    every = drawing.all()  # every row picks at every step: no mask to apply
    if every:
        picks = draws.reshape(len(draws), width, rows).transpose(1, 0, 2).astype(
            np.int64, order="C")
    else:
        picks = np.zeros((width, len(draws), rows), dtype=np.int64)
        picks.swapaxes(0, 1)[:, drawing] = draws
    # the positions taken so far, ascending: ranks[k] is each row's k-th
    # smallest (rows past their count pick garbage, never read)
    ranks: list[np.ndarray] = []
    for t, pick in enumerate(picks):
        # the pick-th position not taken yet: step over the taken ones in
        # ascending order
        for taken in ranks:
            pick += taken <= pick
        if t + 1 < width:
            # insert the pick into the ranks in one min/max pass
            for k, taken in enumerate(ranks):
                ranks[k], pick = np.minimum(taken, pick), np.maximum(taken, pick)
            ranks.append(pick)
    if every:
        return picks.transpose(1, 2, 0).reshape(len(draws), width * rows)
    return picks.transpose(1, 2, 0)[:, drawing.T]


_BLOCK = 1 << 14  # requests drawn per block of rounds: bounds its arrays


def _block_rounds(draws: int) -> int:
    """How many rounds of ``draws`` draws each fit in one ``_BLOCK``."""
    return max(1, _BLOCK // max(draws, 1))


def _transactions(links: Links, lights: np.ndarray) -> tuple[int, np.ndarray]:
    """A bound above every light id, and each link's transaction -- its
    address -- keyed round * span + light."""
    span = int(lights[-1]) + 1
    return span, links.nonce[:, 0] * span + links.light


@dataclass
class SimResult:
    """A scored run.  ``per_light`` and ``address_degrees`` are scored from
    the links on first read, from the lights, the issuing lights and the
    identities they show responders."""

    seed: int
    total_transactions: int
    linked_count: int
    correct_link_count: int
    false_positive_count: int
    deanon_rate: float
    false_positive_rate: float
    unreachable_light_nodes: int
    links: Links = field(repr=False)
    rounds: int = field(repr=False)
    light_ids: np.ndarray = field(repr=False, compare=False)  # every light, ascending
    issuing: np.ndarray = field(repr=False, compare=False)    # lights that attach each round
    visible: np.ndarray = field(repr=False, compare=False)    # each light's visible identity

    @functools.cached_property
    def per_light(self) -> list[dict]:
        """Each light's transactions, correctly linked transactions and
        links claiming its identity."""
        lights, links = self.light_ids, self.links
        span, tx = _transactions(links, lights)
        correct_txs = np.unique(tx[links.correct])
        return [
            {"light_id": light, "transactions": transactions,
             "correct_links": correct_links, "claimed_links": claimed_links}
            for light, transactions, correct_links, claimed_links in zip(
                lights.tolist(),
                np.where(np.isin(lights, self.issuing), self.rounds, 0).tolist(),
                np.bincount(correct_txs % span, minlength=span)[lights].tolist(),
                np.bincount(links.claimed, minlength=span)[lights].tolist(),
            )
        ]

    @functools.cached_property
    def _anonymous(self) -> tuple[int, np.ndarray, np.ndarray]:
        """A bound above every light id, each linked address's transaction
        key (round * span + light), ascending, and whether two or more
        lights stand behind its claims.  A proxy stands for every light
        assigned to it and no light has two proxies, so the lights behind
        an address's claims never overlap."""
        span, tx = _transactions(self.links, self.light_ids)
        claims = np.unique(tx * span + self.links.claimed)
        addresses, inverse = np.unique(claims // span, return_inverse=True)
        lights_behind = np.bincount(
            inverse, np.bincount(self.visible, minlength=span)[claims % span]
        )
        return span, addresses, lights_behind >= 2

    @functools.cached_property
    def address_degrees(self) -> dict[str, float]:
        """Each linked address's anonymity degree: 1.0 when two or more
        lights stand behind its claims, else 0.0."""
        span, addresses, anonymous = self._anonymous
        return dict(sorted(
            (round_address(key // span, key % span), degree) for key, degree
            in zip(addresses.tolist(), anonymous.astype(float).tolist())
        ))

    def to_flat(self) -> dict:
        """Scalar summary used by the CSV/structured writers.  The degrees
        are 0.0 or 1.0, so their mean is the anonymous share of the linked
        addresses, exactly, and needs none of their names."""
        _, addresses, anonymous = self._anonymous
        attacked = len(addresses)
        return {
            "seed": self.seed,
            "total_transactions": self.total_transactions,
            "linked_count": self.linked_count,
            "correct_link_count": self.correct_link_count,
            "false_positive_count": self.false_positive_count,
            "deanon_rate": self.deanon_rate,
            "false_positive_rate": self.false_positive_rate,
            "unreachable_light_nodes": self.unreachable_light_nodes,
            "attacked_addresses": attacked,
            "mean_attacked_degree": (
                np.count_nonzero(anonymous) / attacked if attacked else None
            ),
        }


class Simulation:
    """One configured attack run against a shared ledger.

    Rounds run once each, in order.  Within a round every response is
    computed against the round-start tip snapshot, attaches land in
    ascending light-node order, and adversaries match afterwards, once per
    block of rounds -- so light nodes are independent inside a round and
    the ledger view only advances between rounds.  :meth:`_match` draws the
    requests of the rounds it matches, so no block outlives its match.

    The ledger past its bootstrap tips grows only in :meth:`_grow`, which
    draws the URTS words of the rounds it attaches: under collision_aware
    matching when a match needs the tips served, otherwise when
    :attr:`ledger` is read.  A read matches first, so a request mode keeps
    ``_grown <= _matched <= _ran``: no round grows before it is matched.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.population = place_nodes(config)
        self._ledger = Ledger()
        self._ledger.attach_round(np.full((config.bootstrap_tips, 2), GENESIS_ID), 0,
                                  bootstrap_labels(config.bootstrap_tips))
        self._ran = 0      # rounds run
        self._matched = 0  # rounds whose log is matched
        self._grown = 0    # rounds attached to the ledger
        # one table per match, after an empty one
        self._links = [Links(np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))]
        # the identity responders see: a proxied light's proxy, else its own
        self._visible = (
            proxy_assign(self.population) if config.mode == MODE_PROXY
            else self.population.light_ids
        )
        self._requesters = self._reachability()
        # each round's request row each light attaches on, drawn when the
        # round is matched; None under direct tip selection: a light's own pair
        self._followed = None if config.mode == MODE_DIRECT else np.empty(
            (config.rounds, len(self._requesters.light)), dtype=np.int64)

    def _reachability(self) -> Requesters:
        """Reachable full-node ids per light (positions never move); a
        proxied light reaches what its proxy reaches."""
        pop = self.population
        positions = np.concatenate((pop.full_nodes, pop.proxies, pop.light_nodes))
        # reach once per identity that sends: a proxy, or the light itself
        senders, row = np.unique(self._visible, return_inverse=True)
        reach = reachable(positions[senders], pop.full_nodes, self.config.request_radius)
        reached = reach.sum(axis=1)
        keep = reached[row] > 0
        light, visible, row = pop.light_ids[keep], self._visible[keep], row[keep]
        count = reached[row]
        start = (np.cumsum(reached) - reached)[row]
        fanout = np.minimum(count, self.config.request_fanout)
        owner = np.repeat(np.arange(len(light)), fanout)
        steps = np.arange(fanout.max(initial=0))[:, None]
        drawing = steps < fanout  # (width, rows): which rows pick at each step
        return Requesters(
            light=light,
            visible=visible,
            # the column of every reachable entry, sender by sender
            full_ids=np.broadcast_to(np.arange(reach.shape[1]), reach.shape)[reach],
            fanout=fanout,
            first=np.cumsum(fanout) - fanout,
            request_start=start[owner],
            request_light=light[owner],
            request_visible=visible[owner],
            drawing=drawing,
            bounds=(count - steps)[drawing],
        )

    @property
    def ledger(self) -> Ledger:
        """The ledger through every round run so far, grown on read, after
        matching what has run so that no served pair goes unmatched."""
        self._match()
        self._grow(self._ran)
        return self._ledger

    def _draw_schedule(self, rounds: range) -> tuple[np.ndarray, np.ndarray]:
        """Draw the requests of ``rounds``: who answers each, one row a
        round, and whether that node logs.  A round's request words are its
        queried positions, then its follow choices, which go to
        ``_followed``."""
        req = self._requesters
        picks = len(req.bounds)
        w = words(self.config.seed, DOMAIN_REQUEST, rounds, picks + len(req.light))
        self._followed[rounds.start:rounds.stop] = (
            req.first + (to_uniforms(w[:, picks:]) * req.fanout).astype(np.int64))
        draws = (to_uniforms(w[:, :picks]) * req.bounds).astype(np.int64)
        responder = req.full_ids[req.request_start + sample_positions(draws, req.drawing)]
        return responder, self.population.adversary[responder]

    def _grow(self, stop: int) -> list[np.ndarray]:
        """Attach every round from the ledger's next one up to ``stop``.
        The URTS uniforms -- two per request (per light, under direct tip
        selection) and round -- are drawn here, as many rounds at a time as
        fit in ``_BLOCK`` draws.  Returns each grown round's served pairs."""
        if self.config.mode == MODE_DIRECT:
            labels = self.population.light_ids
            n = len(labels)
        else:
            labels, n = self._requesters.light, len(self._requesters.request_light)
        served = []
        if self._grown < stop:
            # the rows of the whole run, once: growth by doubling copies
            # them and, past glibc's mmap threshold, faults in fresh pages
            self._ledger.reserve(
                len(self._ledger) + (self.config.rounds - self._grown) * len(labels))
        while self._grown < stop:
            rounds = range(self._grown, min(self._grown + _block_rounds(n), stop))
            urts = to_uniforms(words(self.config.seed, DOMAIN_URTS, rounds, 2 * n))
            for u, round_idx in zip(urts, rounds):
                pairs = urts_pairs(self._ledger.tips, u.reshape(2, -1))
                attached = pairs if self._followed is None else pairs[self._followed[round_idx]]
                self._ledger.attach_round(attached, round_idx, labels)
                served.append(pairs)
            self._grown = rounds.stop
        return served

    def run_round(self, round_idx: int) -> None:
        """Run the next round: every reachable light queries a uniform
        subset of its reachable full nodes, each answers with a URTS pair
        against the round-start tips, and the light follows one answer
        uniformly and attaches.  Under direct tip selection every light
        selects its own tips: no request, nothing logged, so the round only
        counts.  A round's queried nodes and follow choices are drawn when
        it is matched: once its block of rounds is full, the run ends or the
        ledger is read.  The ledger is left to grow when read or matched."""
        config = self.config
        if round_idx != self._ran or round_idx >= config.rounds:
            raise ValueError(
                f"round {round_idx} cannot run: rounds run once, in order, "
                f"and {self._ran} of {config.rounds} have run")
        self._ran += 1
        block = _block_rounds(len(self._requesters.request_light))
        if self._ran == config.rounds or self._ran - self._matched >= block:
            self._match()

    def _match(self) -> None:
        """Draw the requests of every round run since the last match and
        match their log against those rounds' attaches, in one pass."""
        if self.config.mode == MODE_DIRECT or self._matched == self._ran:
            return
        req = self._requesters
        responder, logged = self._draw_schedule(range(self._matched, self._ran))
        rounds = np.arange(self._matched, self._ran)
        self._matched = self._ran
        if self.config.matching == MATCH_ASSUME_UNIQUE:
            # a nonce names one response, and only the light that followed
            # it attaches under it: a link wherever a light's followed
            # request was logged, in attach order
            followed = self._followed[rounds]
            at, row = np.nonzero(np.take_along_axis(logged, followed, 1))
            light = req.light[row]
            self._links.append(Links(
                nonce=np.column_stack((rounds[at], responder[at, followed[at, row]], light)),
                claimed=req.visible[row], light=light, correct=np.ones(len(row), dtype=bool),
            ))
            return
        # collision-aware matching compares tip pairs: grow these rounds,
        # whose attaches are then the ledger's last rows
        first = len(self._ledger)
        served = self._grow(self._ran)
        at, request = np.nonzero(logged)
        log = ResponseLog(
            nonce=np.column_stack((rounds[at], responder[at, request],
                                   req.request_light[request])),
            requester=req.request_visible[request],
            tips=np.stack(served)[logged],
        )
        attaches = RoundAttaches(
            light=np.tile(req.light, len(rounds)),
            identity=np.tile(req.visible, len(rounds)),
            parents=self._ledger.parents[first:],
            round=np.repeat(rounds, len(req.light)),  # each attach's round
        )
        self._links.append(match_responses(log, attaches, self.config.matching))

    def run(self) -> SimResult:
        for round_idx in range(self.config.rounds):
            self.run_round(round_idx)
        return self._result()

    # -- scoring ----------------------------------------------------------

    def _result(self) -> SimResult:
        """Score the run from its links.  Every issuing light -- each light
        in direct mode, each light that reaches a full node otherwise --
        attaches once per round."""
        self._match()
        lights = self.population.light_ids
        issuing = lights if self.config.mode == MODE_DIRECT else self._requesters.light
        total = self.config.rounds * len(issuing)
        links = Links(*(
            np.concatenate([getattr(part, column.name) for part in self._links])
            for column in fields(Links)
        ))
        # a transaction counts once however many adversaries linked it
        correct_txs = np.unique(_transactions(links, lights)[1][links.correct])
        correct = int(np.count_nonzero(links.correct))
        false_pos = len(links) - correct
        return SimResult(
            seed=self.config.seed,
            total_transactions=total,
            linked_count=len(links),
            correct_link_count=correct,
            false_positive_count=false_pos,
            deanon_rate=len(correct_txs) / total if total else 0.0,
            false_positive_rate=false_pos / total if total else 0.0,
            unreachable_light_nodes=len(lights) - len(issuing),
            links=links,
            rounds=self.config.rounds,
            light_ids=lights,
            issuing=issuing,
            visible=self._visible,
        )


def run_simulation(config: SimConfig) -> SimResult:
    return Simulation(config).run()
