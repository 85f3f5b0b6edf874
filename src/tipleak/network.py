"""Network-level attack simulation.

A population of full nodes (some of them logging adversaries), optional
proxies, and light nodes lives on the plane :data:`PLANE`.
:func:`place_nodes` builds it once, as position arrays and an adversary
mask; :func:`reachable` tells which full nodes a requester may query, and a
proxied light queries through its nearest proxy.  Each round every light
node asks up to ``request_fanout`` reachable full nodes for a tip
selection, follows exactly one answer, and attaches a transaction under a
fresh address.  Adversarial full nodes log every response they serve;
after the round's attaches they compare new ledger entries against their
logs and emit identity links.

A finished run is scored once, from its links: every light that reaches a
full node (every light, under direct tip selection) attaches once per
round, so the transaction counts follow from who issues.  The lights
behind an address's claimed identities are equally likely senders, so its
anonymity degree is 1.0 when there are two or more of them and 0.0 when
the address is pinned to one light.

A round is columnar: every light's queried set, every response and every
follow choice are drawn as arrays from one Philox generator keyed by
(seed, domain, round) (:func:`tipleak.rng.round_generator`), the round
attaches as one ledger batch, and matching is an array join.  Placement
and adversary choice come from :func:`tipleak.rng.substream`.  Results
are a pure function of the config and seed -- scheduling and worker
counts cannot reorder anything.  :data:`RNG_SCHEME` names this draw
scheme; studies that simulate echo it among their parameters, so a
change of scheme changes their ``config_hash``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .rng import (
    DOMAIN_ADVERSARY,
    DOMAIN_LAYOUT,
    DOMAIN_LOCAL,
    DOMAIN_REQUEST,
    round_generator,
    substream,
)
from .tangle import GENESIS_ID, NO_ISSUER, Ledger, round_address, urts_pairs

RNG_SCHEME = "philox-round-v1"

PLANE = (10.0, 10.0)  # width and height of the placement plane
GRID_DIM = 3  # heatmap cells per plane axis

MODE_BASELINE = "baseline"
MODE_PROXY = "proxy"
MODE_DIRECT = "direct_tip_selection"

MATCH_ASSUME_UNIQUE = "assume_unique"
MATCH_COLLISION_AWARE = "collision_aware"

PLACEMENTS = ("uniform_grid", "uniform_random", "clustered")


class ConfigError(ValueError):
    """Raised for simulation configs that cannot be run."""


@dataclass(frozen=True)
class LinkRecord:
    address: str
    claimed_identity: int
    matched_response: tuple[int, int, int]
    correct: bool                # evaluation-only, judged from ground truth
    origin_light: int            # evaluation-only: the light that attached


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
    """One round's attaches in ledger order, with the ground truth needed
    to score links.  A light that followed no response has nonce -1s."""

    round_issued: int
    light: np.ndarray           # (n,) origin light; address label
    identity: np.ndarray        # (n,) true issuer (the proxy, when proxied)
    parents: np.ndarray         # (n, 2)
    followed_nonce: np.ndarray  # (n, 3)

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
        if self.full_node_count < 1:
            raise ConfigError("full_node_count must be >= 1")
        if self.light_node_count < 1:
            raise ConfigError("light_node_count must be >= 1")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
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
        if self.cluster_count < 1:
            raise ConfigError("cluster_count must be >= 1")
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

    @property
    def effective_adversaries(self) -> int:
        if self.adversary_count is not None:
            return self.adversary_count
        return int(round(self.adversary_ratio * self.full_node_count))


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def _grid_positions(n: int) -> list[tuple[float, float]]:
    """Spread n points evenly over the GRID_DIM x GRID_DIM cells: round-robin
    across cells, sub-lattice inside each cell."""
    cell_w = PLANE[0] / GRID_DIM
    cell_h = PLANE[1] / GRID_DIM
    per_cell: list[list[int]] = [[] for _ in range(GRID_DIM * GRID_DIM)]
    for i in range(n):
        per_cell[i % (GRID_DIM * GRID_DIM)].append(i)
    positions: list[tuple[float, float] | None] = [None] * n
    for cell_idx, members in enumerate(per_cell):
        if not members:
            continue
        row, col = divmod(cell_idx, GRID_DIM)
        side = math.ceil(math.sqrt(len(members)))
        for slot, node_idx in enumerate(members):
            sx, sy = slot % side, slot // side
            x = (col + (sx + 0.5) / side) * cell_w
            y = (row + (sy + 0.5) / side) * cell_h
            positions[node_idx] = (x, y)
    return positions  # type: ignore[return-value]


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


def _positions(n: int, config: SimConfig, rng: random.Random) -> np.ndarray:
    """``(n, 2)`` positions by the config's placement."""
    if config.placement == "uniform_grid":
        positions = _grid_positions(n)
    elif config.placement == "clustered":
        positions = _clustered_positions(
            n, rng, config.cluster_count, config.cluster_spread, config.cluster_fraction
        )
    else:
        positions = [
            (rng.uniform(0, PLANE[0]), rng.uniform(0, PLANE[1])) for _ in range(n)
        ]
    return np.array(positions, dtype=float).reshape(n, 2)


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


def _distances(points, nodes) -> np.ndarray:
    """``(k, n)`` Euclidean distance from each of ``k`` points to each of
    ``n`` nodes, both ``(x, y)`` rows."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    return np.hypot(points[:, None, 0] - nodes[None, :, 0],
                    points[:, None, 1] - nodes[None, :, 1])


def reachable(points, nodes, radius: float | None) -> np.ndarray:
    """``(k, n)`` bool: whether node ``j`` lies within ``radius`` of point
    ``i``.  Reach is a closed ball (a distance exactly equal to the radius
    counts); every node is reachable when ``radius`` is None."""
    if radius is None:
        return np.ones((len(points), len(nodes)), dtype=bool)
    return _distances(points, nodes) <= radius


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

def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (left row, right row) index pair of equal rows, ordered by
    right row and then by left row."""
    rows = np.concatenate((left, right))
    rows = rows - rows.min(axis=0, initial=0)
    keys = np.ravel_multi_index(rows.T, rows.max(axis=0, initial=0) + 1)
    left_keys, right_keys = keys[:len(left)], keys[len(left):]
    order = np.argsort(left_keys, kind="stable")
    lo = np.searchsorted(left_keys[order], right_keys, "left")
    counts = np.searchsorted(left_keys[order], right_keys, "right") - lo
    right_idx = np.repeat(np.arange(len(right)), counts)
    within = np.arange(len(right_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    return order[np.repeat(lo, counts) + within], right_idx


def match_responses(
    log: ResponseLog, new: RoundAttaches, matching: str
) -> list[LinkRecord]:
    """Link new ledger entries to logged requesters.

    assume_unique: responses are nonce-tagged, so a parent pair identifies
    exactly one served response -- no false positives by construction.

    collision_aware: matching is on the raw unordered tip pair; every
    (logged response, matching entry) combination produces a link, and
    entries that merely share the pair become false positives.
    """
    if matching == MATCH_ASSUME_UNIQUE:
        log_idx, new_idx = _join(log.nonce, new.followed_nonce)
    elif matching == MATCH_COLLISION_AWARE:
        log_idx, new_idx = _join(np.sort(log.tips, axis=1), np.sort(new.parents, axis=1))
    else:
        raise ConfigError(f"unknown matching {matching!r}")
    return [
        LinkRecord(
            address=round_address(new.round_issued, light),
            claimed_identity=requester,
            matched_response=tuple(nonce),
            correct=requester == identity,
            origin_light=light,
        )
        for requester, nonce, light, identity in zip(
            log.requester[log_idx].tolist(), log.nonce[log_idx].tolist(),
            new.light[new_idx].tolist(), new.identity[new_idx].tolist(),
        )
    ]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Requesters:
    """The light nodes that reach at least one full node, ascending by id.

    Row ``r`` is one light: the identity responders see (its proxy's, when
    proxied) and its reachable full-node ids
    ``full_ids[start[r]:start[r] + count[r]]``, ascending.
    """

    light: np.ndarray
    visible: np.ndarray
    start: np.ndarray
    count: np.ndarray
    full_ids: np.ndarray


def sample_positions(
    gen: np.random.Generator, sizes: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """A uniform ``counts[r]``-subset of ``range(sizes[r])`` for every row
    ``r``, each in draw order, rows concatenated."""
    width = int(counts.max(initial=0))
    picks = np.zeros((len(sizes), width), dtype=np.int64)
    for t in range(width):
        live = np.flatnonzero(counts > t)
        pick = gen.integers(0, sizes[live] - t)
        # the pick-th position not taken yet: step over the taken ones in
        # ascending order
        for taken in np.sort(picks[live, :t], axis=1).T:
            pick += taken <= pick
        picks[live, t] = pick
    return picks[np.arange(width) < counts[:, None]]


@dataclass
class SimResult:
    seed: int
    total_transactions: int
    linked_count: int
    correct_link_count: int
    false_positive_count: int
    deanon_rate: float
    false_positive_rate: float
    unreachable_light_nodes: int
    address_degrees: dict[str, float]
    per_light: list[dict]
    links: list[LinkRecord] = field(repr=False, default_factory=list)

    def to_flat(self) -> dict:
        """Scalar summary used by the CSV/structured writers."""
        degrees = list(self.address_degrees.values())
        return {
            "seed": self.seed,
            "total_transactions": self.total_transactions,
            "linked_count": self.linked_count,
            "correct_link_count": self.correct_link_count,
            "false_positive_count": self.false_positive_count,
            "deanon_rate": self.deanon_rate,
            "false_positive_rate": self.false_positive_rate,
            "unreachable_light_nodes": self.unreachable_light_nodes,
            "attacked_addresses": len(degrees),
            "mean_attacked_degree": (
                sum(degrees) / len(degrees) if degrees else None
            ),
        }


class Simulation:
    """One configured attack run against a shared ledger.

    Within a round every response is computed against the round-start tip
    snapshot, attaches land in ascending light-node order, and adversaries
    match afterwards -- so light nodes are independent inside a round and
    the ledger view only advances between rounds.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.population = place_nodes(config)
        self.ledger = Ledger()
        self.ledger.attach_round(
            np.full((config.bootstrap_tips, 2), GENESIS_ID), 0,
            np.full(config.bootstrap_tips, NO_ISSUER),
            addresses=[f"bootstrap-{i}" for i in range(config.bootstrap_tips)],
        )
        self.links: list[LinkRecord] = []
        # the identity responders see: a proxied light's proxy, else its own
        self._visible = (
            proxy_assign(self.population) if config.mode == MODE_PROXY
            else self.population.light_ids
        )
        self._requesters = self._reachability()

    def _reachability(self) -> Requesters:
        """Reachable full-node ids per light (positions never move); a
        proxied light reaches what its proxy reaches."""
        pop = self.population
        positions = np.concatenate((pop.full_nodes, pop.proxies, pop.light_nodes))
        # reach once per identity that sends: a proxy, or the light itself
        senders, row = np.unique(self._visible, return_inverse=True)
        reach = reachable(
            positions[senders], pop.full_nodes, self.config.request_radius
        )[row]
        keep = reach.any(axis=1)
        reach = reach[keep]
        count = reach.sum(axis=1)
        return Requesters(
            light=pop.light_ids[keep],
            visible=self._visible[keep],
            start=np.cumsum(count) - count,
            count=count,
            # the column of every reachable entry, row by row
            full_ids=np.broadcast_to(np.arange(reach.shape[1]), reach.shape)[reach],
        )

    def _local_round(self, round_idx: int, tips: np.ndarray):
        """Every light selects its own tips: no request, nothing logged."""
        gen = round_generator(self.config.seed, DOMAIN_LOCAL, round_idx)
        lights = self.population.light_ids
        log = ResponseLog(
            nonce=np.empty((0, 3), dtype=np.int64),
            requester=np.empty(0, dtype=np.int64),
            tips=np.empty((0, 2), dtype=np.int64),
        )
        return log, RoundAttaches(
            round_issued=round_idx,
            light=lights,
            identity=lights,
            parents=urts_pairs(tips, gen, len(lights)),
            followed_nonce=np.full((len(lights), 3), -1, dtype=np.int64),
        )

    def _request_round(self, round_idx: int, tips: np.ndarray):
        """Every reachable light queries a uniform subset of its reachable
        full nodes, each answers with a URTS pair, and the light follows
        one answer uniformly."""
        req = self._requesters
        gen = round_generator(self.config.seed, DOMAIN_REQUEST, round_idx)
        fanout = np.minimum(req.count, self.config.request_fanout)
        owner = np.repeat(np.arange(len(req.light)), fanout)
        responder = req.full_ids[
            req.start[owner] + sample_positions(gen, req.count, fanout)
        ]
        served = urts_pairs(tips, gen, len(responder))
        nonce = np.stack(
            (np.full(len(responder), round_idx), responder, req.light[owner]), axis=1
        )
        followed = np.cumsum(fanout) - fanout + gen.integers(0, fanout)
        logged = self.population.adversary[responder]
        log = ResponseLog(
            nonce=nonce[logged], requester=req.visible[owner[logged]], tips=served[logged]
        )
        return log, RoundAttaches(
            round_issued=round_idx,
            light=req.light,
            identity=req.visible,
            parents=served[followed],
            followed_nonce=nonce[followed],
        )

    def run_round(self, round_idx: int) -> list[LinkRecord]:
        config = self.config
        draw = self._local_round if config.mode == MODE_DIRECT else self._request_round
        log, attaches = draw(round_idx, self.ledger.tips)
        self.ledger.attach_round(
            attaches.parents, round_idx, attaches.identity, attaches.light
        )
        links = match_responses(log, attaches, config.matching)
        self.links.extend(links)
        return links

    def run(self) -> SimResult:
        for round_idx in range(self.config.rounds):
            self.run_round(round_idx)
        return self._result()

    # -- scoring ----------------------------------------------------------

    def _address_degrees(self) -> dict[str, float]:
        """Anonymity degree of each linked address: 1.0 when two or more
        lights stand behind its claimed identities, else 0.0.  A proxy
        stands for every light assigned to it and no light has two proxies,
        so the candidates never overlap and are equally likely."""
        lights_behind = np.bincount(self._visible).tolist()
        claims_by_address: dict[str, set[int]] = {}
        for link in self.links:
            claims_by_address.setdefault(link.address, set()).add(
                link.claimed_identity
            )
        return {
            address: 1.0 if sum(lights_behind[c] for c in claims) >= 2 else 0.0
            for address, claims in sorted(claims_by_address.items())
        }

    def _result(self) -> SimResult:
        """Score the run from its links.  Every issuing light -- each light
        in direct mode, each light that reaches a full node otherwise --
        attaches once per round."""
        lights = self.population.light_ids
        issuing = lights if self.config.mode == MODE_DIRECT else self._requesters.light
        total = self.config.rounds * len(issuing)
        correct = sum(1 for l in self.links if l.correct)
        # a transaction counts once however many adversaries linked it
        correct_txs = {
            (l.matched_response[0], l.origin_light) for l in self.links if l.correct
        }
        correct_per_light = Counter(light for _, light in correct_txs)
        claimed = Counter(l.claimed_identity for l in self.links)
        issued = set(issuing.tolist())
        false_pos = len(self.links) - correct
        per_light = [
            {
                "light_id": light,
                "transactions": self.config.rounds if light in issued else 0,
                "correct_links": correct_per_light[light],
                "claimed_links": claimed[light],
            }
            for light in lights.tolist()
        ]
        return SimResult(
            seed=self.config.seed,
            total_transactions=total,
            linked_count=len(self.links),
            correct_link_count=correct,
            false_positive_count=false_pos,
            deanon_rate=len(correct_txs) / total if total else 0.0,
            false_positive_rate=false_pos / total if total else 0.0,
            unreachable_light_nodes=len(lights) - len(issuing),
            address_degrees=self._address_degrees(),
            per_light=per_light,
            links=list(self.links),
        )


def run_simulation(config: SimConfig) -> SimResult:
    return Simulation(config).run()
