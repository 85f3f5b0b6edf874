#!/usr/bin/env python3
"""Walk through one small logging attack and print what the adversary learns.

A handful of full nodes answer tip requests; the adversarial subset keeps a
log of (requester, tips served).  After every wallet has issued a few
transactions, each ledger entry whose parent pair appears in a log gets
linked back to the requester's network identity.  The script prints the
per-wallet outcome plus the aggregate rate, next to the closed-form c/n.
"""

import sys

from tipleak.analytic import deanon_probability
from tipleak.cli import _Parser  # exits 1, not argparse's 2, on bad usage
from tipleak.cli import _naming_flags
from tipleak.network import SimConfig, run_simulation

# the flag that sets each SimConfig field, named in its error lines
_FLAGS = {
    "full_node_count": "--full-nodes", "adversary_count": "--adversaries",
    "light_node_count": "--wallets", "rounds": "--rounds",
}


def main(argv=None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--full-nodes", type=int, default=20)
    parser.add_argument("--adversaries", type=int, default=4)
    parser.add_argument("--wallets", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if not -2**63 <= args.seed < 2**63:  # stream keys pack the seed in 64 bits
        parser.error(f"--seed must be a signed 64-bit integer, got {args.seed}")
    try:
        config = SimConfig(
            full_node_count=args.full_nodes,
            adversary_count=args.adversaries,
            light_node_count=args.wallets,
            rounds=args.rounds,
            seed=args.seed,
        )
        result = run_simulation(config)
    except ValueError as exc:  # a ConfigError too
        parser.exit(1, f"{parser.prog}: error: {_naming_flags(str(exc), _FLAGS)}\n")

    print(
        f"{args.full_nodes} full nodes, {args.adversaries} logging, "
        f"{args.wallets} wallets x {args.rounds} transactions "
        f"(seed {args.seed})\n"
    )
    print("wallet  transactions  linked  exposed")
    for row in result.per_light:
        share = row["correct_links"] / row["transactions"]
        print(
            f"{row['light_id']:>6}  {row['transactions']:>12}  "
            f"{row['correct_links']:>6}  {share:>6.0%}"
        )

    analytic = deanon_probability(
        args.full_nodes, args.adversaries, config.request_fanout
    )
    print(
        f"\nlinked {result.correct_link_count}/{result.total_transactions} "
        f"transactions to a wallet identity "
        f"(rate {result.deanon_rate:.3f}, closed form {analytic:.3f})"
    )
    if result.false_positive_count:
        print(f"plus {result.false_positive_count} incorrect links")
    return 0


if __name__ == "__main__":
    sys.exit(main())
