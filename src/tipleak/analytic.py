"""Closed-form analysis of the tip-selection identity leak.

The attack model: a network of ``full_nodes`` full nodes, ``compromised``
of which log the tip pairs they hand out.  A light node asks ``requests``
distinct full nodes for a tip selection and follows exactly one answer.
The chance that the followed answer came from a logging node is what the
adversary needs; everything here is computed with exact integer
combinatorics so the numbers stay trustworthy up to ledger-scale node
counts (10**6 and beyond).

Each closed form takes plain numbers and checks them itself: an argument
outside its domain raises :class:`ParameterError`, whose message names the
parameter (``full_nodes``, ``link_prob``, ...) so a front end can name the
flag that set it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


class ParameterError(ValueError):
    """Raised when arguments fall outside a formula's domain."""


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

@dataclass
class AnonymityProfile:
    """A probability distribution over candidate senders.

    Probabilities are normalized on construction; a sum farther than
    1e-9 from 1 is rejected rather than silently rescaled.
    """

    sender_probs: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        probs = list(self.sender_probs)
        if not probs:
            raise ParameterError("profile needs at least one probability")
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"probability {p} outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"probabilities sum to {total}, not 1")
        self.sender_probs = [p / total for p in probs]

    @property
    def candidate_count(self) -> int:
        return len(self.sender_probs)

    @classmethod
    def uniform(cls, n: int) -> "AnonymityProfile":
        if n < 1:
            raise ParameterError("uniform profile needs n >= 1")
        return cls([1.0 / n] * n)


# ---------------------------------------------------------------------------
# hypergeometric machinery
# ---------------------------------------------------------------------------

# The most requests and full nodes hypergeom_pmf takes: its binomials grow
# with M and with the digits of N.  At N = 10**9, C = N/2 one value took
# 0.5 s at M = 10**4 and 7.9 s at M = 10**5; at M = 10**4 it took 0.45 s at
# N = 10**18, 2.0 s at N = 10**36 and more than 100 s at N = 10**300.
PMF_MAX_REQUESTS = 10_000
PMF_MAX_FULL_NODES = 10 ** 18


def _check_attack(full_nodes: int, compromised: int, requests: int) -> None:
    """Refuse a population outside the attack model: N >= 1 full nodes,
    0 <= C <= N compromised, 1 <= M <= N requests."""
    n, c, m = full_nodes, compromised, requests
    if n < 1:
        raise ParameterError(f"full_nodes must be >= 1, got {n}")
    if not 0 <= c <= n:
        raise ParameterError(f"compromised must be in [0, full_nodes={n}], got {c}")
    if not 1 <= m <= n:
        raise ParameterError(f"requests must be in [1, full_nodes={n}], got {m}")


def hypergeom_pmf(full_nodes: int, compromised: int, requests: int, k: int) -> float:
    """P(exactly k of the queried nodes are compromised).

    Exact rational arithmetic: C(C,k)*C(N-C,M-k)/C(N,M) evaluated with
    big-integer binomials, converted to float only at the end.  Returns
    0.0 for k outside the feasible support.
    """
    _check_attack(full_nodes, compromised, requests)
    n, c, m = full_nodes, compromised, requests
    if m > PMF_MAX_REQUESTS:
        raise ParameterError(f"requests must be <= {PMF_MAX_REQUESTS}, got {m}")
    if n > PMF_MAX_FULL_NODES:
        raise ParameterError(f"full_nodes must be <= {PMF_MAX_FULL_NODES}, got {n}")
    if k < max(0, m - (n - c)) or k > min(m, c):
        return 0.0
    num = math.comb(c, k) * math.comb(n - c, m - k)
    return float(Fraction(num, math.comb(n, m)))


def deanon_probability(full_nodes: int, compromised: int, requests: int) -> float:
    """Probability that the response a light node follows was logged: C/N.

    The paper writes it as the sum over k of (k/M) * P(k of M queried are
    compromised), which collapses to C/N for every valid parameter set (the
    mean of a hypergeometric draw is MC/N) -- so the population ratio alone
    decides the attack's success rate.  :func:`_deanon_sum` keeps that sum
    as the reference the ratio is checked against.
    """
    _check_attack(full_nodes, compromised, requests)
    return float(Fraction(compromised, full_nodes))


def _deanon_sum(full_nodes: int, compromised: int, requests: int) -> Fraction:
    """The paper's sum behind :func:`deanon_probability`, in exact
    rationals: min(M, C) terms of big binomials."""
    _check_attack(full_nodes, compromised, requests)
    n, c, m = full_nodes, compromised, requests
    total = Fraction(0)
    denom = math.comb(n, m)
    for k in range(1, min(m, c) + 1):
        weight = Fraction(k, m)
        total += weight * Fraction(math.comb(c, k) * math.comb(n - c, m - k), denom)
    return total


def cell_adversary_odds(
    full_nodes: int, compromised: int, members: int
) -> tuple[Fraction, Fraction]:
    """Chance that one full node is compromised, given that at least one
    of ``members`` fixed nodes is: ``(q_in, q_out)`` for a node among them
    and for any other node.

    The C compromised nodes are a uniform C-subset of the N.  With
    P0 = C(N-s,C)/C(N,C) the chance that none of the s members is hit,
    q_in = (C/N)/(1-P0) and q_out = (C/N)(1 - C(N-1-s,C-1)/C(N-1,C-1))/(1-P0).
    Both are C/N when the condition is void, because no C-subset hits a
    member (C = 0 or s = 0), and when there is no other node (s = N).
    The two ratios are formed from integers alone: with A = C(N-s,C),
    B = C(N,C), A' = C(N-1-s,C-1) and B' = C(N-1,C-1), q_in =
    C B / (N (B-A)) and q_out = C (B'-A') B / (N B' (B-A)).
    """
    n, c, s = full_nodes, compromised, members
    if n < 1:
        raise ParameterError(f"full_nodes must be >= 1, got {n}")
    if not 0 <= c <= n:
        raise ParameterError(f"compromised must be in [0, {n}], got {c}")
    if not 0 <= s <= n:
        raise ParameterError(f"members must be in [0, {n}], got {s}")
    b = math.comb(n, c)
    hit = b - math.comb(n - s, c)  # B - A
    if hit == 0 or s == n:
        return Fraction(c, n), Fraction(c, n)
    b1 = math.comb(n - 1, c - 1)
    a1 = math.comb(n - 1 - s, c - 1)
    return Fraction(c * b, n * hit), Fraction(c * (b1 - a1) * b, n * b1 * hit)


def required_full_nodes(compromised: int, target_rate: float | str | Fraction) -> int:
    """Smallest honest-network size N with C/N strictly below target_rate.

    The target is interpreted as the decimal the caller wrote (0.01 means
    1/100 exactly), not as the nearest binary float, so thresholds behave
    the way operators expect: required_full_nodes(10, 0.01) == 1001.
    """
    if compromised < 1:
        raise ParameterError(f"compromised must be >= 1, got {compromised}")
    if isinstance(target_rate, float):
        target = Fraction(str(target_rate)) if math.isfinite(target_rate) else None
    else:
        target = Fraction(target_rate)
    if target is None or not 0 < target <= 1:
        raise ParameterError(f"target_rate must be in (0, 1], got {target_rate}")
    # smallest integer N with N > C/target
    return math.floor(Fraction(compromised) / target) + 1


# ---------------------------------------------------------------------------
# anonymity degree
# ---------------------------------------------------------------------------

def entropy_degree(profile: AnonymityProfile) -> float:
    """Shannon-entropy anonymity degree H(X) / log2(N) in [0, 1].

    Zero-probability candidates contribute nothing.  A uniform profile
    scores exactly 1; the degree is undefined (raises) for fewer than two
    candidates because the normalizer log2(N) vanishes.
    """
    n = profile.candidate_count
    if n < 2:
        raise ParameterError("anonymity degree needs at least 2 candidates")
    probs = profile.sender_probs
    if all(p == probs[0] for p in probs):
        return 1.0
    h = -math.fsum(p * math.log2(p) for p in probs if p > 0.0)
    h_max = math.log2(n)
    # 0.0 first: max keeps the first of equal values, so a pinned profile's
    # -0.0 (the negated sum of 1 * log2(1)) comes back as +0.0
    return min(max(0.0, h / h_max), 1.0)


# ---------------------------------------------------------------------------
# mixing-service chains
# ---------------------------------------------------------------------------

def mixer_chain_probability(link_prob: float, length: int) -> float:
    """P(an identified participant chain reaches the given length).

    Each extra hop needs two fresh mappings known to the adversary, so
    the survival probability is link_prob**(2*(length-1)).
    """
    if not 0.0 <= link_prob <= 1.0:
        raise ParameterError(f"link_prob must be in [0, 1], got {link_prob}")
    if length < 1:
        raise ParameterError(f"chain_length must be >= 1, got {length}")
    return link_prob ** (2 * (length - 1))


def mixer_expected_identified(link_prob: float, mode: str = "normalized") -> float:
    """Expected number of participants identified through a mixer chain.

    mode="raw" evaluates the literal series sum_i i * p**(2*(i-1)),
    which closes to 1/(1-p**2)**2.  The series' terms are survival
    probabilities rather than a normalized distribution, so "normalized"
    (the default) divides by the series of the terms themselves, giving
    1/(1-p**2) -- the true expected chain length (about 1.0101 at p=0.1).
    """
    if not 0.0 <= link_prob < 1.0:
        raise ParameterError(
            f"expected chain length diverges unless 0 <= link_prob < 1, got {link_prob}"
        )
    q = link_prob * link_prob
    raw = 1.0 / ((1.0 - q) * (1.0 - q))
    if mode == "raw":
        return raw
    if mode == "normalized":
        return raw * (1.0 - q)  # == 1 / (1 - p**2)
    raise ParameterError(f"mode must be 'raw' or 'normalized', got {mode!r}")


# ---------------------------------------------------------------------------
# regional takeover rates
# ---------------------------------------------------------------------------

def continental_takeover_rate(region_nodes: int, mode: str, count: int = 1) -> float:
    """Attack rate inside one region under same-region request routing.

    mode="takeover": count existing nodes become adversarial -> count/n.
    mode="add":      count new adversarial nodes join -> count/(n+count).
    mode="collude":  count of the n operators pool logs -> count/n.
    """
    if region_nodes < 1:
        raise ParameterError(f"region_nodes must be >= 1, got {region_nodes}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    if mode in ("takeover", "collude"):
        if count > region_nodes:
            raise ParameterError(f"{mode} needs count <= region_nodes={region_nodes}, "
                                 f"got {count}")
        return float(Fraction(count, region_nodes))
    if mode == "add":
        return float(Fraction(count, region_nodes + count))
    raise ParameterError(f"mode must be 'takeover', 'add' or 'collude', got {mode!r}")
