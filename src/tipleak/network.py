"""Network-level attack simulation.

A population of full nodes (some of them logging adversaries), optional
proxies, and light nodes lives on the plane :data:`PLANE`.
:func:`place_nodes` builds it once, as position arrays and an adversary
mask; :func:`reachable` tells which full nodes a requester may query, and a
proxied light queries through its nearest proxy.  Each round every light
node asks up to ``request_fanout`` reachable full nodes for a tip
selection, follows exactly one answer, and attaches a transaction under a
fresh address.  Adversarial full nodes log every response they serve,
match each round's attaches against their log of that round and emit
identity links, the rows of one columnar :class:`Links`.

A finished run is scored once, from its links: every light that reaches a
full node (every light, under direct tip selection) attaches once per
round, so the transaction counts follow from who issues.  The lights
behind an address's claimed identities are equally likely senders, so its
anonymity degree is 1.0 when there are two or more of them and 0.0 when
the address is pinned to one light.

A round is columnar, and a run draws from counter-indexed Philox streams
(:func:`tipleak.rng.words`), in each of which every round owns a fixed
range of words.  A light queries a uniform subset of its reach by
sequential draws without replacement and follows its first pick, which is
uniform over the queried set: so following it gives the same joint law of
(queried set, followed node) as following a uniform answer.
``DOMAIN_FIRST_PICK`` holds every requesting light's first pick, one word
a light a round.  Reach never changes during a run, so the request plan --
which lights send how many requests, under which identity -- is built
once, with the reach, in :class:`Requesters`.

Only the tips pass from one round to the next, and neither the queried
nodes nor the matching depend on them, so :meth:`Simulation.run` walks a
run in blocks of rounds bounded by ``_BLOCK`` drawn rows, and adversaries
match each block in one pass.  A nonce-tagged response names the one
attach that followed it, so only the followed response can link:
assume_unique matching draws the block's first picks in one call and
nothing else, and its links are the lights whose first pick logs.

Collision-aware matching compares served tip pairs with the parents of new
ledger entries, so only a collision-aware run keeps a ledger and draws the
whole queried sets and the URTS (uniform random tip selection) draws of
every response.  Step 0 of each queried set is the light's first pick, and
``DOMAIN_REQUEST`` holds steps 1 to fan-out - 1 (:func:`sample_positions`).
:meth:`Simulation._grow` is the run's one growth path: at each block's
match it draws the block's ``DOMAIN_URTS`` words in one call, maps each
round's against the tips the round starts from, attaches the pairs of the
lights' first picks as one batch a round and hands the served pairs to the
match, a join on one int64 key per row, ``((round - r0) * R_lo +
lo - lo0) * R_hi + hi - hi0`` with ``lo`` and ``hi`` the lesser and greater
tip of the pair, each column offset by its least value and ``R`` its
range.  The ranges' product is checked in Python ints first: a block too
wide to key in int64 raises ValueError instead of wrapping into false
links.  In both modes links come out in (round, attach, log row) order for
any block size.  A nonce-matched run and a run under direct tip selection --
where no response is served, so nothing can link -- build no ledger: their
links do not depend on the tips.

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
    DOMAIN_FIRST_PICK,
    DOMAIN_LAYOUT,
    DOMAIN_REQUEST,
    DOMAIN_URTS,
    substream,
    to_uniforms,
    words,
)
from .tangle import GENESIS_ID, Ledger, round_address, urts_pairs

RNG_SCHEME = "philox-run-v4"

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
        radius = self.request_radius
        numeric = isinstance(radius, (int, float)) and not isinstance(radius, bool)
        if radius is not None and not (numeric and radius > 0):
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
    ``rng.uniform(0, w)`` is ``0 + w * rng.random()``, the same float, and
    ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` of its next two
    32-bit words, which ``getrandbits`` hands out least significant first."""
    draws = np.empty((n, 2))
    for start in range(0, n, 2**16):  # bounds the int each getrandbits call builds
        k = min(2**16, n - start)
        words = np.frombuffer(rng.getrandbits(128 * k).to_bytes(16 * k, "little"), "<u4")
        a, b = words[0::2] >> 5, words[1::2] >> 6
        draws[start:start + k].flat = (a * 67108864.0 + b) / 2**53
    return draws * PLANE


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


# Reach is decided on squared distances from one matrix product per chunk
# (see reachable for the error bound).  _REACH_BAND is the relative margin
# around radius**2 that covers hypot's own rounding.  _REACH_RADII keeps
# radius**2 a normal float, so the margin, at least 1e-312, dwarfs what
# underflow can lose (about 5e-324 an operation).
_REACH_BAND = 1e-12
_REACH_RADII = (1e-150, 1e150)
# (point, node) pairs per product: a float64 block of at most 1 MiB.  It
# and its bool twin are allocated once a call and every chunk writes into
# them through ``out=``: temporaries allocated afresh each pass above
# glibc's 128 KiB mmap threshold are mapped and unmapped every time (about
# 9,200 minor page faults a perfbench ``variance`` call with 256 KiB ones).
# Over 30 in-process ``variance`` calls (16 layouts) a call now takes a
# median 0 minor faults (at most 6) at 1 << 13, 1 << 15 and 1 << 17 pairs.
_REACH_CHUNK = 1 << 17
_EPS = 2.0 ** -52  # float64 machine epsilon


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
    counts); every node is reachable when ``radius`` is None.

    The result equals ``np.hypot(dx, dy) <= radius`` element for element,
    but the squared distances come from one matrix product per chunk:
    with ``P = p - c`` and ``Q = q - c`` taken from the first point ``c``,
    ``d2 = [P, |P|**2, 1] @ [-2Q; 1; |Q|**2]``.  Let ``u = eps / 2`` and
    ``S = max|P| + max|Q|``.  Against the exact ``D = |p - q|**2``, d2 errs
    by at most:

    * ``2u S**2`` from rounding ``P`` and ``Q``: each moves ``P - Q`` by at
      most ``u (|P| + |Q|)``, and ``|p - q| <= S``;
    * ``2u S**2`` from rounding ``|P|**2`` and ``|Q|**2``;
    * ``4u S**2`` from the four-term sum, whatever its order or fused
      multiply-adds (the ``gamma_4`` bound on ``sum |terms| <= S**2``), so
      whatever the BLAS kernel or thread count.

    That is ``8u S**2 = 4 eps S**2``; ``tol = r2 * _REACH_BAND + 16 eps
    S**2`` adds room for rounding ``S``, ``tol`` and ``r2 +- tol``, and
    ``_REACH_BAND`` covers hypot's few ulps, underflow residues and the
    rounding of ``r2 = radius**2``.  So a pair with ``d2 <= r2 - tol``
    is in reach and one with ``d2 > r2 + tol`` is not by hypot too; the
    rest -- almost always none -- are decided by ``hypot`` on the original
    coordinates.  Radii whose square leaves the normal float range use
    ``hypot`` alone, and so do inputs with ``16 S**2`` above the float
    range (or not finite), where a term or partial sum could overflow.
    """
    if radius is None:
        return np.ones((len(points), len(nodes)), dtype=bool)
    if not _REACH_RADII[0] < radius < _REACH_RADII[1]:
        return _distances(points, nodes) <= radius
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    k, n = len(points), len(nodes)
    reach = np.empty((k, n), dtype=bool)
    if not reach.size:
        return reach
    # rows [P, |P|^2, 1] and columns [-2Q; 1; |Q|^2], centred on points[0];
    # an overflow or a coordinate that is not finite leaves bound infinite
    # or NaN, and such inputs go to hypot
    left = np.empty((k, 4))
    right = np.empty((4, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, centre in enumerate(points[0]):
            np.subtract(points[:, axis], centre, out=left[:, axis])
        np.multiply(left[:, 0], left[:, 0], out=left[:, 2])
        left[:, 2] += left[:, 1] * left[:, 1]
        np.subtract(nodes.T, points[0, :, None], out=right[:2])
        np.multiply(right[0], right[0], out=right[3])
        right[3] += right[1] * right[1]
        right[:2] *= -2.0
    left[:, 3] = 1.0
    right[2] = 1.0
    r2 = radius * radius
    span = math.sqrt(left[:, 2].max()) + math.sqrt(right[3].max())
    bound = 16 * (span * span)  # finite: no term or partial sum overflows
    if not math.isfinite(bound):
        return _distances(points, nodes) <= radius
    tol = r2 * _REACH_BAND + _EPS * bound
    low, high = r2 - tol, r2 + tol
    step = max(1, _REACH_CHUNK // n)
    d2 = np.empty((min(step, k), n))
    beyond = np.empty(d2.shape, dtype=bool)
    for start in range(0, k, step):
        rows = min(step, k - start)
        block, inside, outside = d2[:rows], reach[start:start + rows], beyond[:rows]
        np.matmul(left[start:start + rows], right, out=block)
        np.less_equal(block, low, out=inside)
        np.greater(block, high, out=outside)
        if np.count_nonzero(inside) + np.count_nonzero(outside) != block.size:
            i, j = np.nonzero(~(inside | outside))
            i += start
            reach[i, j] = np.hypot(points[i, 0] - nodes[j, 0],
                                   points[i, 1] - nodes[j, 1]) <= radius
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
    proxied), the ``count[r]`` full nodes it reaches -- entries
    ``start[r]:start[r] + count[r]`` of ``full_ids`` -- and the
    ``fanout[r]`` requests it sends each round -- at most
    ``request_fanout``, and no more than ``count[r]`` -- which are rows
    ``first[r]:first[r] + fanout[r]`` of a round's requests.  ``full_ids``
    holds each identity's reachable ids once, ascending, identity after
    identity, so the lights behind one proxy share one run of it.  Row
    ``first[r]`` is the light's first pick, the request it follows.

    The request columns, the ``(width, rows)`` mask ``drawing`` of which
    rows make a pick at each fan-out step and ``bounds``, the bound of
    every pick after the first in step-major order (step ``t`` of a row
    draws below ``count[r] - t``), serve collision-aware runs alone: only
    they draw whole queried sets.  Reach never changes during a run, so
    only the queried nodes and the responses are drawn per round.
    """

    light: np.ndarray
    visible: np.ndarray
    full_ids: np.ndarray
    start: np.ndarray
    count: np.ndarray
    fanout: np.ndarray
    first: np.ndarray
    request_start: np.ndarray
    request_light: np.ndarray
    request_visible: np.ndarray
    drawing: np.ndarray
    bounds: np.ndarray


def sample_positions(draws: np.ndarray, drawing: np.ndarray) -> np.ndarray:
    """Each round's uniform ``counts[r]``-subset of ``range(sizes[r])`` for
    every row ``r``, from the round's raw draws: a collision-aware run's
    queried sets, whose first picks are the followed ones.

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


_BLOCK = 1 << 14  # rows drawn per block of rounds: bounds its arrays


def _block_rounds(draws: int) -> int:
    """How many rounds of ``draws`` rows each fit in one ``_BLOCK``."""
    return max(1, _BLOCK // max(draws, 1))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending: what ``np.unique`` returns for
    an integer array.  numpy 2.x answers a plain ``np.unique`` of integers
    through a hash table and then sorts the result, several times the cost
    of one sort and a neighbour compare for the few thousand keys that
    scoring passes it."""
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


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
        correct_txs = _distinct(tx[links.correct])
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
        claims = _distinct(tx * span + self.links.claimed)
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
    """One configured attack run.

    :meth:`run` runs every round once, in order, and only once.  Within a
    round every response is computed against the round-start tip snapshot,
    attaches land in ascending light-node order, and adversaries match
    afterwards, once per block of rounds -- so light nodes are independent
    inside a round and the ledger view only advances between rounds.
    :meth:`_match` draws the requests of the rounds it matches, so no block
    outlives its match.

    :attr:`ledger` is None unless the run matches collision_aware outside
    direct tip selection.  Then it holds the bootstrap tips from the
    start, with room for every row the run attaches, and :meth:`_grow`
    attaches each block's rounds at the block's match.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.population = place_nodes(config)
        self._matched = 0  # rounds whose log is matched
        # one table per match, after an empty one
        self._links = [Links(np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))]
        # the identity responders see: a proxied light's proxy, else its own
        self._visible = (
            proxy_assign(self.population) if config.mode == MODE_PROXY
            else self.population.light_ids
        )
        self._requesters = self._reachability()
        self.ledger: Ledger | None = None
        if config.matching == MATCH_COLLISION_AWARE and config.mode != MODE_DIRECT:
            self.ledger = Ledger(
                1 + config.bootstrap_tips + config.rounds * len(self._requesters.light))
            self.ledger.attach_round(np.full((config.bootstrap_tips, 2), GENESIS_ID))

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
            start=start,
            count=count,
            fanout=fanout,
            first=np.cumsum(fanout) - fanout,
            request_start=start[owner],
            request_light=light[owner],
            request_visible=visible[owner],
            drawing=drawing,
            bounds=(count - steps)[1:][drawing[1:]],
        )

    def _first_picks(self, rounds: range) -> np.ndarray:
        """Each requesting light's first pick of its reach in ``rounds``,
        one row a round: ``floor(u * count)`` of one ``DOMAIN_FIRST_PICK``
        word.  The light follows the full node at that pick."""
        req = self._requesters
        u = to_uniforms(words(self.config.seed, DOMAIN_FIRST_PICK, rounds, len(req.light)))
        return (u * req.count).astype(np.int64)

    def _queried(self, rounds: range, first: np.ndarray) -> np.ndarray:
        """The full node each request of ``rounds`` asks, one row a round.
        Step 0 of each light's queried set is its ``first`` pick; the
        round's ``DOMAIN_REQUEST`` words draw the later steps, and no word
        is drawn when no light sends more than one request."""
        req = self._requesters
        draws = first
        if len(req.bounds):
            u = to_uniforms(words(self.config.seed, DOMAIN_REQUEST, rounds, len(req.bounds)))
            draws = np.concatenate((first, (u * req.bounds).astype(np.int64)), axis=1)
        return req.full_ids[req.request_start + sample_positions(draws, req.drawing)]

    def _grow(self, block: range) -> np.ndarray:
        """Attach the rounds of ``block``, each light on the served pair of
        its first pick.  The URTS uniforms, two per request and round, are
        drawn in one call.  Returns the served pairs, ``(rounds, requests,
        2)``."""
        req = self._requesters
        n = len(req.request_light)
        urts = to_uniforms(words(self.config.seed, DOMAIN_URTS, block, 2 * n))
        served = np.empty((len(block), n, 2), dtype=np.int64)
        for u, pairs in zip(urts, served):
            pairs[:] = urts_pairs(self.ledger.tips, u.reshape(2, -1))
            self.ledger.attach_round(pairs[req.first])
        return served

    def _match(self, block: range) -> None:
        """Draw the requests of the rounds of ``block`` and match their log
        against those rounds' attaches, in one pass.  Under direct tip
        selection nothing is requested, so nothing is logged."""
        self._matched = block.stop
        if self.config.mode == MODE_DIRECT:
            return
        req = self._requesters
        first = self._first_picks(block)
        rounds = np.arange(block.start, block.stop)
        if self.config.matching == MATCH_ASSUME_UNIQUE:
            # a nonce names one response, and only the light that followed
            # it attaches under it: a link wherever a light's first pick
            # logs, in attach order
            responder = req.full_ids[req.start + first]
            at, row = np.nonzero(self.population.adversary[responder])
            light = req.light[row]
            self._links.append(Links(
                nonce=np.column_stack((rounds[at], responder[at, row], light)),
                claimed=req.visible[row], light=light, correct=np.ones(len(row), dtype=bool),
            ))
            return
        # collision-aware matching compares tip pairs: grow these rounds,
        # whose attaches are then the ledger's last rows
        responder = self._queried(block, first)
        logged = self.population.adversary[responder]
        attached = len(self.ledger)
        served = self._grow(block)
        at, request = np.nonzero(logged)
        log = ResponseLog(
            nonce=np.column_stack((rounds[at], responder[at, request],
                                   req.request_light[request])),
            requester=req.request_visible[request],
            tips=served[logged],
        )
        attaches = RoundAttaches(
            light=np.tile(req.light, len(rounds)),
            identity=np.tile(req.visible, len(rounds)),
            parents=self.ledger.parents[attached:],
            round=np.repeat(rounds, len(req.light)),  # each attach's round
        )
        self._links.append(match_responses(log, attaches, self.config.matching))

    def run(self) -> SimResult:
        """Run every round, in blocks of ``_BLOCK`` drawn rows, each matched
        in one pass, and score the run.  In a round every reachable light
        queries a uniform subset of its reachable full nodes, each answers
        with a URTS pair against the round-start tips, and the light follows
        its first pick, a uniform one of the answers, and attaches.  A
        round draws one row a light under assume_unique matching and one a
        request under collision-aware matching.  A second call raises
        ValueError."""
        if self._matched:
            raise ValueError(f"this simulation has run ({self._matched} of "
                             f"{self.config.rounds} rounds); a Simulation runs once")
        req, rounds = self._requesters, self.config.rounds
        rows = req.request_light if self.config.matching == MATCH_COLLISION_AWARE else req.light
        step = _block_rounds(len(rows))
        for start in range(0, rounds, step):
            self._match(range(start, min(start + step, rounds)))
        return self._result()

    # -- scoring ----------------------------------------------------------

    def _result(self) -> SimResult:
        """Score the run from its links.  Every issuing light -- each light
        in direct mode, each light that reaches a full node otherwise --
        attaches once per round."""
        lights = self.population.light_ids
        issuing = lights if self.config.mode == MODE_DIRECT else self._requesters.light
        total = self.config.rounds * len(issuing)
        links = Links(*(
            np.concatenate([getattr(part, column.name) for part in self._links])
            for column in fields(Links)
        ))
        # a transaction counts once however many adversaries linked it
        correct_txs = _distinct(_transactions(links, lights)[1][links.correct])
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
