"""Network-level attack simulation.

A population of full nodes (some of them logging adversaries), optional
proxies, and light nodes lives on a bounded plane or in named regions.
Each round every light node asks up to ``request_fanout`` reachable full
nodes for a tip selection, follows exactly one answer, and attaches a
transaction under a fresh address.  Adversarial full nodes log every
response they serve; after the round's attaches they compare new ledger
entries against their logs and emit identity links.

Determinism: all draws come from :func:`tipleak.rng.substream` keyed by
(domain, round, entity), so results are a pure function of the config
and seed -- scheduling and worker counts cannot reorder anything.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, asdict
from typing import Sequence

from .analytic import AnonymityProfile, entropy_degree
from .rng import (
    DOMAIN_ADVERSARY,
    DOMAIN_LAYOUT,
    DOMAIN_LOCAL,
    DOMAIN_REQUEST,
    DOMAIN_RESPONSE,
    substream,
)
from .tangle import GENESIS_ID, Ledger, urts_pair

GRID_DIM = 3  # heatmap cells per plane axis

KIND_FULL = "full"
KIND_ADVERSARY = "adversary_full"
KIND_LIGHT = "light"
KIND_PROXY = "proxy"

MODE_BASELINE = "baseline"
MODE_PROXY = "proxy"
MODE_DIRECT = "direct_tip_selection"

MATCH_ASSUME_UNIQUE = "assume_unique"
MATCH_COLLISION_AWARE = "collision_aware"

PLACEMENTS = ("uniform_grid", "uniform_random", "clustered", "explicit")


class ConfigError(ValueError):
    """Raised for simulation configs that cannot be run."""


@dataclass(frozen=True)
class NodeDescriptor:
    node_id: int
    kind: str
    position: tuple[float, float]
    region: str | None = None


@dataclass(frozen=True)
class AdversaryLogEntry:
    nonce: tuple[int, int, int]
    requester_id: int            # network identity visible to the responder
    tips: tuple[int, int]
    responder_id: int
    round_logged: int


@dataclass(frozen=True)
class LinkRecord:
    address: str
    claimed_identity: int
    matched_response: tuple[int, int, int]
    round_observed: int
    correct: bool                # evaluation-only, judged from ground truth


@dataclass(frozen=True)
class AttachRecord:
    """Internal: one attach plus the ground truth needed to score links."""

    address: str
    parents: tuple[int, int]
    followed_nonce: tuple[int, int, int] | None
    true_identity: int
    origin_light: int


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
    plane_size: tuple[float, float] = (10.0, 10.0)
    request_radius: float | None = None  # None: every full node reachable
    placement: str = "uniform_random"
    regions: dict[str, int] | None = None  # full nodes per region (explicit)
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
        if self.plane_size[0] <= 0 or self.plane_size[1] <= 0:
            raise ConfigError("plane_size must be positive")
        if self.request_radius is not None and self.request_radius <= 0:
            raise ConfigError("request_radius must be positive or None")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}")
        if self.placement == "explicit":
            if not self.regions:
                raise ConfigError("explicit placement needs a regions mapping")
            if any(v < 0 for v in self.regions.values()):
                raise ConfigError("region counts must be >= 0")
            if sum(self.regions.values()) != self.full_node_count:
                raise ConfigError(
                    f"region counts sum to {sum(self.regions.values())}, "
                    f"expected full_node_count={self.full_node_count}"
                )
        elif self.regions is not None:
            raise ConfigError("regions mapping requires placement='explicit'")
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

def _grid_positions(n: int, plane: tuple[float, float]) -> list[tuple[float, float]]:
    """Spread n points evenly over the GRID_DIM x GRID_DIM cells: round-robin
    across cells, sub-lattice inside each cell."""
    cell_w = plane[0] / GRID_DIM
    cell_h = plane[1] / GRID_DIM
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
    n: int, plane: tuple[float, float], rng: random.Random,
    cluster_count: int, spread: float, fraction: float,
) -> list[tuple[float, float]]:
    centers = [
        (rng.uniform(0, plane[0]), rng.uniform(0, plane[1]))
        for _ in range(max(1, cluster_count))
    ]
    positions = []
    for i in range(n):
        if rng.random() < fraction:
            cx, cy = centers[rng.randrange(len(centers))]
            x = min(max(rng.gauss(cx, spread), 0.0), plane[0])
            y = min(max(rng.gauss(cy, spread), 0.0), plane[1])
        else:
            x, y = rng.uniform(0, plane[0]), rng.uniform(0, plane[1])
        positions.append((x, y))
    return positions


def _positions_for(
    strategy: str, n: int, config: SimConfig, rng: random.Random
) -> list[tuple[float, float]]:
    plane = config.plane_size
    if strategy == "uniform_grid":
        return _grid_positions(n, plane)
    if strategy == "clustered":
        return _clustered_positions(
            n, plane, rng, config.cluster_count,
            config.cluster_spread, config.cluster_fraction,
        )
    # uniform_random and explicit (regions carry the meaning there)
    return [(rng.uniform(0, plane[0]), rng.uniform(0, plane[1])) for _ in range(n)]


@dataclass
class Population:
    full_nodes: list[NodeDescriptor]
    proxies: list[NodeDescriptor]
    light_nodes: list[NodeDescriptor]
    plane_size: tuple[float, float]
    request_radius: float | None
    region_scoped: bool

    @property
    def adversary_ids(self) -> frozenset[int]:
        return frozenset(
            n.node_id for n in self.full_nodes if n.kind == KIND_ADVERSARY
        )

    def reachable_full_ids(
        self, position: tuple[float, float] | None, region: str | None = None
    ) -> list[int]:
        """Ids of full nodes a requester at ``position`` (or in ``region``)
        may query, ascending.  Reachability is a closed ball: distance
        exactly equal to the radius still counts."""
        if self.region_scoped:
            return [n.node_id for n in self.full_nodes if n.region == region]
        if self.request_radius is None or position is None:
            return [n.node_id for n in self.full_nodes]
        r = self.request_radius
        return [
            n.node_id
            for n in self.full_nodes
            if math.dist(position, n.position) <= r
        ]


def place_nodes(config: SimConfig, seed: int | None = None) -> Population:
    """Build the positioned population for a config.

    Ids are assigned full nodes first, then proxies, then light nodes, so
    tie-breaking by lowest id is stable across runs.
    """
    root = config.seed if seed is None else seed
    rng = substream(root, DOMAIN_LAYOUT)
    n = config.full_node_count

    regions: list[str | None]
    if config.placement == "explicit":
        assert config.regions is not None
        regions = []
        for name in sorted(config.regions):
            regions.extend([name] * config.regions[name])
    else:
        regions = [None] * n

    positions = _positions_for(config.placement, n, config, rng)
    adversaries = set(
        substream(root, DOMAIN_ADVERSARY).sample(range(n), config.effective_adversaries)
    )
    full_nodes = [
        NodeDescriptor(
            node_id=i,
            kind=KIND_ADVERSARY if i in adversaries else KIND_FULL,
            position=positions[i],
            region=regions[i],
        )
        for i in range(n)
    ]

    proxy_positions = _positions_for(config.placement, config.proxy_count, config, rng)
    proxies = [
        NodeDescriptor(node_id=n + i, kind=KIND_PROXY, position=proxy_positions[i])
        for i in range(config.proxy_count)
    ]

    light_positions = _positions_for(
        config.placement, config.light_node_count, config, rng
    )
    region_names = sorted(config.regions) if config.regions else []
    light_nodes = []
    for i in range(config.light_node_count):
        region = region_names[i % len(region_names)] if region_names else None
        light_nodes.append(
            NodeDescriptor(
                node_id=n + config.proxy_count + i,
                kind=KIND_LIGHT,
                position=light_positions[i],
                region=region,
            )
        )
    return Population(
        full_nodes=full_nodes,
        proxies=proxies,
        light_nodes=light_nodes,
        plane_size=config.plane_size,
        request_radius=config.request_radius,
        region_scoped=config.placement == "explicit",
    )


def proxy_assign(population: Population) -> dict[int, int]:
    """Map each light node to its nearest proxy (ties: lowest proxy id)."""
    if not population.proxies:
        raise ConfigError("proxy assignment requires at least one proxy")
    assignment = {}
    for light in population.light_nodes:
        best = min(
            population.proxies,
            key=lambda p: (math.dist(light.position, p.position), p.node_id),
        )
        assignment[light.node_id] = best.node_id
    return assignment


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def match_responses(
    log_entries: Sequence[AdversaryLogEntry],
    new_entries: Sequence[AttachRecord],
    matching: str,
) -> list[LinkRecord]:
    """Link new ledger entries to logged requesters.

    assume_unique: responses are nonce-tagged, so a parent pair identifies
    exactly one served response -- no false positives by construction.

    collision_aware: matching is on the raw unordered tip pair; every
    (logged response, matching entry) combination produces a link, and
    entries that merely share the pair become false positives.
    """
    links: list[LinkRecord] = []
    if matching == MATCH_ASSUME_UNIQUE:
        by_nonce = {e.nonce: e for e in log_entries}
        for rec in new_entries:
            entry = by_nonce.get(rec.followed_nonce)
            if entry is None:
                continue
            links.append(
                LinkRecord(
                    address=rec.address,
                    claimed_identity=entry.requester_id,
                    matched_response=entry.nonce,
                    round_observed=entry.round_logged,
                    correct=entry.requester_id == rec.true_identity,
                )
            )
        return links
    if matching != MATCH_COLLISION_AWARE:
        raise ConfigError(f"unknown matching {matching!r}")
    by_pair: dict[tuple[int, int], list[AdversaryLogEntry]] = {}
    for e in log_entries:
        key = (min(e.tips), max(e.tips))
        by_pair.setdefault(key, []).append(e)
    for rec in new_entries:
        key = (min(rec.parents), max(rec.parents))
        for entry in by_pair.get(key, ()):
            links.append(
                LinkRecord(
                    address=rec.address,
                    claimed_identity=entry.requester_id,
                    matched_response=entry.nonce,
                    round_observed=entry.round_logged,
                    correct=entry.requester_id == rec.true_identity,
                )
            )
    return links


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass
class SimResult:
    params: dict
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
        for i in range(config.bootstrap_tips):
            self.ledger.attach(
                (GENESIS_ID, GENESIS_ID), f"bootstrap-{i}", round_issued=0
            )
        self.links: list[LinkRecord] = []
        self._adversaries = self.population.adversary_ids
        self._proxy_for: dict[int, int] = {}
        if config.mode == MODE_PROXY:
            self._proxy_for = proxy_assign(self.population)
        # lights an adversary cannot tell apart behind each proxy it sees
        self._lights_per_proxy = Counter(self._proxy_for.values())
        self._reachable = self._precompute_reachability()
        self._unreachable_lights: set[int] = set()
        self._tx_per_light: dict[int, int] = {
            l.node_id: 0 for l in self.population.light_nodes
        }
        self._claimed_per_identity: dict[int, int] = {}
        self._origin_of_address: dict[str, int] = {}

    def _precompute_reachability(self) -> dict[int, list[int]]:
        """Per-light reachable full-node ids (positions never move)."""
        pop = self.population
        out = {}
        proxy_cache: dict[int, list[int]] = {}
        for light in pop.light_nodes:
            if self.config.mode == MODE_PROXY:
                proxy_id = self._proxy_for[light.node_id]
                if proxy_id not in proxy_cache:
                    proxy = next(
                        p for p in pop.proxies if p.node_id == proxy_id
                    )
                    proxy_cache[proxy_id] = pop.reachable_full_ids(
                        proxy.position, proxy.region
                    )
                out[light.node_id] = proxy_cache[proxy_id]
            else:
                out[light.node_id] = pop.reachable_full_ids(
                    light.position, light.region
                )
        return out

    def run_round(self, round_idx: int) -> list[LinkRecord]:
        config = self.config
        seed = config.seed
        ledger = self.ledger
        ledger.round = round_idx
        snapshot = list(ledger.tips)
        round_log: list[AdversaryLogEntry] = []
        pending: list[AttachRecord] = []

        for light in self.population.light_nodes:
            lid = light.node_id
            address = f"addr-{round_idx}-{lid}"
            if config.mode == MODE_DIRECT:
                rng = substream(seed, DOMAIN_LOCAL, round_idx, lid)
                pending.append(
                    AttachRecord(
                        address=address,
                        parents=urts_pair(snapshot, rng),
                        followed_nonce=None,
                        true_identity=lid,
                        origin_light=lid,
                    )
                )
                continue

            reachable = self._reachable[lid]
            if not reachable:
                self._unreachable_lights.add(lid)
                continue
            visible_id = self._proxy_for.get(lid, lid)
            rng = substream(seed, DOMAIN_REQUEST, round_idx, lid)
            fanout = min(config.request_fanout, len(reachable))
            queried = rng.sample(reachable, fanout)
            responses = []  # (tips, nonce) per queried responder
            for responder in queried:
                resp_rng = substream(seed, DOMAIN_RESPONSE, round_idx, responder, lid)
                tips = urts_pair(snapshot, resp_rng)
                nonce = (round_idx, responder, lid)
                responses.append((tips, nonce))
                if responder in self._adversaries:
                    round_log.append(
                        AdversaryLogEntry(
                            nonce=nonce,
                            requester_id=visible_id,
                            tips=tips,
                            responder_id=responder,
                            round_logged=round_idx,
                        )
                    )
            tips, nonce = responses[rng.randrange(len(responses))]
            pending.append(
                AttachRecord(
                    address=address,
                    parents=tips,
                    followed_nonce=nonce,
                    true_identity=visible_id,
                    origin_light=lid,
                )
            )

        for rec in pending:  # already ascending light id
            ledger.attach(
                rec.parents,
                rec.address,
                round_issued=round_idx,
                issuer_identity=rec.true_identity,
            )
            self._tx_per_light[rec.origin_light] += 1
            self._origin_of_address[rec.address] = rec.origin_light

        links = match_responses(round_log, pending, config.matching)
        for link in links:
            self._claimed_per_identity[link.claimed_identity] = (
                self._claimed_per_identity.get(link.claimed_identity, 0) + 1
            )
        self.links.extend(links)
        return links

    def run(self) -> SimResult:
        for round_idx in range(self.config.rounds):
            self.run_round(round_idx)
        return self._result()

    # -- scoring ----------------------------------------------------------

    def _candidate_count(self, claims: set[int]) -> int:
        """How many light nodes fit the identities claimed for one address.

        A proxy stands for every light assigned to it, and no light has two
        proxies, so the candidates behind distinct proxies never overlap.
        """
        if self.config.mode == MODE_PROXY:
            return sum(self._lights_per_proxy[identity] for identity in claims)
        return len(claims)

    def _address_degrees(self) -> dict[str, float]:
        claims_by_address: dict[str, set[int]] = {}
        for link in self.links:
            claims_by_address.setdefault(link.address, set()).add(
                link.claimed_identity
            )
        degrees = {}
        for address, claims in sorted(claims_by_address.items()):
            candidates = self._candidate_count(claims)
            if candidates >= 2:
                degrees[address] = entropy_degree(
                    AnonymityProfile.uniform(candidates)
                )
            else:
                degrees[address] = 0.0  # pinned to a single light node
        return degrees

    def _result(self) -> SimResult:
        total = sum(self._tx_per_light.values())
        correct = sum(1 for l in self.links if l.correct)
        # a transaction counts once however many adversaries linked it
        correct_addresses = {l.address for l in self.links if l.correct}
        correct_per_light = Counter(
            self._origin_of_address[address] for address in correct_addresses
        )
        false_pos = len(self.links) - correct
        per_light = [
            {
                "light_id": lid,
                "transactions": self._tx_per_light[lid],
                "correct_links": correct_per_light[lid],
                "claimed_links": self._claimed_per_identity.get(lid, 0),
            }
            for lid in sorted(self._tx_per_light)
        ]
        return SimResult(
            params=asdict(self.config),
            seed=self.config.seed,
            total_transactions=total,
            linked_count=len(self.links),
            correct_link_count=correct,
            false_positive_count=false_pos,
            deanon_rate=len(correct_addresses) / total if total else 0.0,
            false_positive_rate=false_pos / total if total else 0.0,
            unreachable_light_nodes=len(self._unreachable_lights),
            address_degrees=self._address_degrees(),
            per_light=per_light,
            links=list(self.links),
        )


def run_simulation(config: SimConfig) -> SimResult:
    return Simulation(config).run()
