"""Command-line front end: analytic queries, experiment runs, self-checks.

Exit codes follow the interface contract: 0 on success, 1 for usage errors
(bad flags, unknown keys, unreadable files), 2 when `validate` checks fail.

Each call builds only the parser of the command it invokes; the others are
listed by name and help alone, so every help text reads the same.  The
simulator, its experiments and numpy load on the first `run` or `validate`:
`tipleak analytic` and a bare `import tipleak.cli` never load them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import analytic
from .analytic import ParameterError

if TYPE_CHECKING:
    from .experiments import ExperimentResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2

OUT_ENV_VAR = "TIPLEAK_OUT"

# sha256 of the bundled 2020 region snapshot; `validate` pins the shipped
# artifact so silent edits to the data file are caught.
BUNDLED_DATA_SHA256 = (
    "f697a7e5b9eb3ae13fab94e25eb20e638bd5333b9da913102606a5739631bdc0"
)


class UsageError(Exception):
    """Bad command usage: unknown keys, malformed values, missing files."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; the contract wants 1.

    ``epilog_from``, when given, makes the epilog when help is printed, so
    a call that prints no help never formats it.
    """

    def __init__(self, *args, epilog_from=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._epilog_from = epilog_from

    def format_help(self) -> str:
        if self._epilog_from is not None:
            self.epilog = self._epilog_from()
        return super().format_help()

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message} (see --help)\n")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


# ---------------------------------------------------------------------------
# config files and overrides
# ---------------------------------------------------------------------------

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False}


def _cast(section: str, key: str, caster, raw: str):
    try:
        return caster(raw)
    except ValueError as exc:
        raise UsageError(
            f"{section}.{key} expects {caster.__name__}, got {raw!r}"
        ) from exc


def _coerce(section: str, key: str, raw: str, defaults: dict):
    """Parse one value to the type of the key's default in its study,
    whose keys and defaults are ``defaults``.

    A tuple default takes comma-separated values of its element type.  A
    key whose default is None takes none, a boolean word, a number, or
    text; the study checks what it got.
    """
    if key not in defaults:
        raise UsageError(f"unknown config key {section}.{key}")
    witness = defaults[key]
    raw = raw.strip()
    if isinstance(witness, tuple):
        tokens = [tok for tok in raw.split(",") if tok.strip()]
        if not tokens:
            raise UsageError(f"{section}.{key} expects comma-separated values")
        return tuple(_cast(section, key, type(witness[0]), tok) for tok in tokens)
    if witness is not None:
        return _cast(section, key, type(witness), raw)
    if raw.lower() in ("none", ""):
        return None
    if raw.lower() in _BOOL_WORDS:
        return _BOOL_WORDS[raw.lower()]
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            pass
    return raw


def parse_config_line(line: str, default_section: str) -> tuple[str, str, str] | None:
    """Split one `section.key=value` line; returns None for blanks/comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "=" not in stripped:
        raise UsageError(f"expected key=value, got {stripped!r}")
    key, value = stripped.split("=", 1)
    key = key.strip()
    if "." in key:
        section, key = key.split(".", 1)
        section = section.strip()
        key = key.strip()
    else:
        section = default_section
    from .experiments import STUDIES

    if section not in STUDIES:
        raise UsageError(f"unknown config section {section!r}")
    return section, key, value


def resolve_overrides(
    experiment: str, config_path: str | None, sets: list[str]
) -> dict[str, dict]:
    """Merge file config then --set pairs into per-section override maps."""
    from .experiments import STUDIES

    merged: dict[str, dict] = {name: {} for name in STUDIES}
    defaults: dict[str, dict] = {}  # each section's, read once per call
    lines: list[str] = []
    if config_path:
        try:
            lines = Path(config_path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    for line in lines + list(sets):
        parsed = parse_config_line(line, experiment)
        if parsed is None:
            continue
        section, key, value = parsed
        if section not in defaults:
            defaults[section] = STUDIES[section].defaults()
        merged[section][key] = _coerce(section, key, value, defaults[section])
    return merged


# ---------------------------------------------------------------------------
# analytic subcommand
# ---------------------------------------------------------------------------

class _Flag(NamedTuple):
    option: str
    param: str  # the closed form's name for it, as its error lines write it
    type: type = int
    default: object = None  # None makes the flag required
    help: str | None = None
    choices: tuple[str, ...] | None = None


def _entropy(probs: str) -> float:
    try:
        values = tuple(float(tok) for tok in probs.split(",") if tok.strip())
        return analytic.entropy_degree(analytic.AnonymityProfile(values))
    except ValueError as exc:
        raise UsageError(f"bad --probs {probs!r}: {exc}") from exc


def _required_nodes(compromised: int, target: str) -> int:
    try:
        target_value = Fraction(target) if "/" in target else float(target)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --target {target!r}") from exc
    return analytic.required_full_nodes(compromised, target_value)


# each analytic operation: its help line, the closed form it prints (called
# with its flags' values in order) and its flags
_OPERATIONS = {
    "deanon": ("per-transaction link probability", analytic.deanon_probability, (
        _Flag("--n", "full_nodes", help="full nodes"),
        _Flag("--c", "compromised", help="hostile full nodes"),
        _Flag("--m", "requests", default=3, help="request fanout"),
    )),
    "hypergeom": ("P(k hostile among m polled)", analytic.hypergeom_pmf, (
        _Flag("--n", "full_nodes"), _Flag("--c", "compromised"),
        _Flag("--m", "requests"), _Flag("--k", "k"),
    )),
    "entropy": ("normalized anonymity degree", _entropy, (
        _Flag("--probs", "probs", str, help="comma-separated sender "
              "probabilities, e.g. 0.5,0.25,0.25"),
    )),
    "mixer-chain": (
        "P(identifying a length-x chain)", analytic.mixer_chain_probability,
        (_Flag("--p", "link_prob", float), _Flag("--x", "chain_length")),
    ),
    "mixer-expected": ("expected identified count", analytic.mixer_expected_identified, (
        _Flag("--p", "link_prob", float),
        _Flag("--mode", "mode", str, "normalized", choices=("raw", "normalized")),
    )),
    "required-nodes": (
        "population needed to push the rate under target", _required_nodes,
        (_Flag("--c", "compromised"), _Flag("--target", "target_rate", str)),
    ),
    "takeover": ("regional link rate", analytic.continental_takeover_rate, (
        _Flag("--nodes", "region_nodes", help="nodes in region"),
        _Flag("--mode", "mode", str, "takeover", choices=("takeover", "add", "collude")),
        _Flag("--count", "count", default=1, help="hostile nodes"),
    )),
}


def _add_analytic_parser(subparsers, name: str, help_text: str) -> None:
    parser = subparsers.add_parser(name, help=help_text)
    ops = parser.add_subparsers(dest="operation", required=True, parser_class=_Parser)
    for op, (op_help, _, flags) in _OPERATIONS.items():
        op_parser = ops.add_parser(op, help=op_help)
        for flag in flags:
            op_parser.add_argument(
                flag.option, dest=flag.param, type=flag.type, default=flag.default,
                required=flag.default is None, help=flag.help, choices=flag.choices,
                # a metavar would replace the choices in the help
                metavar=None if flag.choices else flag.option[2:].upper(),
            )


def _naming_flags(message: str, flags: dict[str, str]) -> str:
    """``message`` followed by the flag of each parameter it names, given
    ``flags`` from parameter name to flag."""
    named = [flag for name, flag in flags.items() if re.search(rf"\b{name}\b", message)]
    return f"{message} ({', '.join(named)})"


def cmd_analytic(args) -> int:
    _, closed_form, flags = _OPERATIONS[args.operation]
    try:
        value = closed_form(*(getattr(args, flag.param) for flag in flags))
    except ParameterError as exc:
        # the message names parameters; the user typed their flags
        names = {flag.param: flag.option for flag in flags}
        raise UsageError(_naming_flags(str(exc), names)) from exc
    print(value if isinstance(value, int) else _fmt(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

def _print_summary(result: ExperimentResult) -> None:
    from .results import format_value

    by_metric: dict[str, list[float]] = {}
    for row in result.rows:
        by_metric.setdefault(row.metric, []).append(row.value)
    for metric, values in by_metric.items():
        if len(values) == 1:
            print(f"{result.name}: {metric} = {format_value(values[0])}")
        else:
            lo, hi = min(values), max(values)
            mean = sum(values) / len(values)
            print(
                f"{result.name}: {metric} n={len(values)} "
                f"mean={mean:.6g} min={lo:.6g} max={hi:.6g}"
            )


def cmd_run(args) -> int:
    from . import results
    from .experiments import STUDIES

    study = STUDIES.get(args.experiment)
    if study is None:
        raise UsageError(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {tuple(STUDIES)}"
        )
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if not -2**63 <= args.seed < 2**63:  # stream keys pack the seed in 64 bits
        raise UsageError(f"--seed must be a signed 64-bit integer, got {args.seed}")
    overrides = resolve_overrides(args.experiment, args.config, args.set or [])
    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or "."
    # a ConfigError or ParameterError is a ValueError: main prints it
    result = study.run(overrides[args.experiment], args.seed, args.workers)
    try:
        path = results.write_result(result, out_dir, args.format)
    except OSError as exc:
        raise UsageError(f"cannot write results: {exc}") from exc
    _print_summary(result)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------

def _check_analytic_identities() -> tuple[bool, str]:
    from .rng import substream

    rng = substream(2024, 99)
    for _ in range(200):
        n = rng.randint(1, 2000)
        c = rng.randint(0, n)
        m = rng.randint(1, min(10, n))
        value = analytic.deanon_probability(n, c, m)
        if abs(value - c / n) > 1e-12:
            return False, f"deanon({n},{c},{m}) = {value} != {c / n}"
        paper = analytic._deanon_sum(n, c, m)
        if paper != Fraction(c, n):
            return False, f"paper's sum for deanon({n},{c},{m}) = {paper} != {c}/{n}"
        total = sum(
            analytic.hypergeom_pmf(n, c, m, k) for k in range(0, min(m, n) + 1)
        )
        if abs(total - 1.0) > 1e-12:
            return False, f"pmf({n},{c},{m}) sums to {total}"
    return True, "200 randomized tuples"


def _check_analytic_continental() -> tuple[bool, str]:
    cases = [
        ((8, "takeover", 1), 0.125),
        ((31, "takeover", 1), 0.0323),
        ((6, "add", 1), 0.1429),
        ((6, "takeover", 1), 0.1667),
        ((6, "collude", 5), 0.8333),
    ]
    for (nodes, mode, count), want in cases:
        got = analytic.continental_takeover_rate(nodes, mode=mode, count=count)
        if round(got, 4) != want:
            return False, f"{mode}({count}/{nodes}) = {got:.4f}, want {want}"
    return True, "regional rates at 4 decimal places"


def _check_analytic_mixer() -> tuple[bool, str]:
    normalized = analytic.mixer_expected_identified(0.1, mode="normalized")
    if abs(normalized - 1.0101) > 1e-4:
        return False, f"normalized E at p=0.1 is {normalized}"
    for p in (0.1, 0.5, 0.9):
        raw = analytic.mixer_expected_identified(p, mode="raw")
        partial = sum(x * p ** (2 * (x - 1)) for x in range(1, 1001))
        if abs(raw - partial) > 1e-9:
            return False, f"raw E at p={p}: {raw} vs partial sum {partial}"
    return True, "expected identified counts"


def _check_analytic_required() -> tuple[bool, str]:
    cases = [((10, 0.01), 1001), ((16, 0.05), 321), ((1, 1.0), 2)]
    for (c, target), want in cases:
        got = analytic.required_full_nodes(c, target)
        if got != want:
            return False, f"required({c},{target}) = {got}, want {want}"
    return True, "population thresholds"


def _check_tangle_integrity() -> tuple[bool, str]:
    from . import tangle
    from .rng import uniforms

    ledger = tangle.Ledger(1 + 200 * 10)
    draws = uniforms(2024, 98, range(200), 2 * 10)
    for r in range(200):  # grown round by round, as a simulation grows it
        ledger.attach_round(tangle.urts_pairs(ledger.tips, draws[r].reshape(2, -1)))
    approved = set(ledger.parents[1:].ravel().tolist())
    recomputed = set(range(len(ledger))) - approved
    if recomputed != set(ledger.tips.tolist()):
        return False, "maintained tip set diverged from recomputation"
    return True, "200 rounds x 10 attaches, tips"


def _check_determinism() -> tuple[bool, str]:
    from . import experiments, results

    first = experiments.exp_mixer(p_values=(0.1,), participants=2000, seed=5)
    second = experiments.exp_mixer(p_values=(0.1,), participants=2000, seed=5)
    if results.result_to_csv_bytes(first) != results.result_to_csv_bytes(second):
        return False, "identical seeds produced different bytes"
    return True, "re-run is byte-identical"


def _check_null_adversary() -> tuple[bool, str]:
    from .network import SimConfig, run_simulation

    sim = run_simulation(SimConfig(
        full_node_count=10, adversary_count=0, light_node_count=5,
        rounds=20, seed=3,
    ))
    if sim.linked_count or sim.correct_link_count:
        return False, f"{sim.linked_count} links with zero hostile nodes"
    return True, "no hostile nodes, no links"


def _check_null_direct() -> tuple[bool, str]:
    from .network import SimConfig, run_simulation

    sim = run_simulation(SimConfig(
        full_node_count=10, adversary_count=5, light_node_count=5,
        rounds=20, mode="direct_tip_selection", seed=3,
    ))
    if sim.linked_count:
        return False, f"direct mode linked {sim.linked_count}"
    return True, "local selection leaks nothing"


def _check_proxy_claims() -> tuple[bool, str]:
    from .network import SimConfig, run_simulation

    sim = run_simulation(SimConfig(
        full_node_count=10, adversary_count=5, light_node_count=4,
        rounds=20, mode="proxy", proxy_count=1, seed=3,
    ))
    claims = set(sim.links.claimed.tolist())
    if not claims or not claims.issubset({10}):
        return False, f"claims {claims} reach past the proxy"
    degrees = set(sim.address_degrees.values())
    if degrees != {1.0}:
        return False, f"proxied degrees {degrees} != 1.0"
    return True, "links stop at the proxy, degree 1.0"


def _make_data_check(path: str | None):
    def check() -> tuple[bool, str]:
        import hashlib

        from . import experiments

        counts = experiments.load_region_counts(path)
        total = sum(counts.values())
        if total != 47 or len(counts) != 5:
            return False, f"{len(counts)} regions, {total} nodes (want 5/47)"
        if path is None:
            data = (
                Path(__file__).parent / "data" / experiments.REGION_DATA_FILE
            ).read_bytes()
        else:
            data = Path(path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != BUNDLED_DATA_SHA256:
            return False, f"data digest {digest[:16]}... is not the 2020 snapshot"
        return True, "2020 snapshot intact"
    return check


def cmd_validate(args) -> int:
    overrides = resolve_overrides("realworld", None, args.set or [])
    for section, keys in overrides.items():
        for key in keys:
            if (section, key) != ("realworld", "data"):
                raise UsageError(f"validate reads only realworld.data, got {section}.{key}")
    data_path = overrides["realworld"].get("data")
    checks = [
        ("analytic-identities", _check_analytic_identities),
        ("analytic-continental", _check_analytic_continental),
        ("analytic-mixer", _check_analytic_mixer),
        ("analytic-required", _check_analytic_required),
        ("tangle-integrity", _check_tangle_integrity),
        ("determinism", _check_determinism),
        ("null-adversary", _check_null_adversary),
        ("null-direct", _check_null_direct),
        ("proxy-claims", _check_proxy_claims),
        ("realworld-data", _make_data_check(data_path)),
    ]
    if args.only:
        checks = [(name, fn) for name, fn in checks if args.only in name]
        if not checks:
            raise UsageError(f"no validate check matches {args.only!r}")
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _show(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return "none" if value is None else str(value)


def _run_epilog() -> str:
    """Every study's keys with their defaults, for ``tipleak run --help``."""
    import textwrap

    from .experiments import STUDIES

    lines = ["keys and their defaults (--set STUDY.KEY=VALUE):"]
    for name, study in STUDIES.items():
        pairs = " ".join(
            f"{key}={_show(value)}" for key, value in study.defaults().items()
        )
        lines.append(textwrap.fill(
            pairs, initial_indent=f"  {name}: ", subsequent_indent="      "
        ))
    return "\n".join(lines)


def _add_run_parser(subparsers, name: str, help_text: str) -> None:
    from .experiments import DEFAULT_SEED, STUDIES
    from .results import FORMATS

    run = subparsers.add_parser(
        name, help=help_text, epilog_from=_run_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run.add_argument("experiment", help=f"one of {', '.join(STUDIES)}")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", help=f"output directory (or ${OUT_ENV_VAR})")
    run.add_argument("--format", choices=FORMATS, default="csv")
    run.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="parallel workers (default: 1); never affects results",
    )


def _add_validate_parser(subparsers, name: str, help_text: str) -> None:
    validate = subparsers.add_parser(name, help=help_text)
    validate.add_argument("--only", help="substring filter on check names")
    validate.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="check a replacement region file: realworld.data=PATH, the only key",
    )


# each command: its help line, the function that adds its parser, its handler
_COMMANDS = {
    "analytic": ("evaluate a closed-form quantity and print it",
                 _add_analytic_parser, cmd_analytic),
    "run": ("run an experiment and write files", _add_run_parser, cmd_run),
    "validate": ("run the fast self-checks and report PASS/FAIL",
                 _add_validate_parser, cmd_validate),
}


def build_parser(command: str | None = None) -> _Parser:
    """The CLI's parser.  Given a command name, only that command's parser
    takes arguments and the others are listed by name and help, which is
    all the top-level help shows.  Anything else builds every command, so
    a usage error reads the same whatever was mistyped."""
    parser = _Parser(
        prog="tipleak",
        description=(
            "Tip-selection traffic analysis toolkit: closed-form link "
            "probabilities, seeded attack simulations, and experiment tables."
        ),
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    for name, (help_text, add_parser, _) in _COMMANDS.items():
        if command == name or command not in _COMMANDS:
            add_parser(subparsers, name, help_text)
        else:
            subparsers.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _, _, handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (UsageError, ValueError) as exc:  # ConfigError, ParameterError too
        print(f"tipleak: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
