"""Golden bytes: every study's output is pinned by its sha256.

Each case runs ``tipleak run <study> --seed 7 --workers 1`` at small
settings and compares the CSV and the structured JSON against recorded
digests.  A refactor that keeps behaviour keeps these digests; a deliberate
change of the output must update them and say why.  The studies that
simulate (decentralized, mitigations, custom) are recorded under
``network.RNG_SCHEME`` "philox-run-v4": each run's counter-indexed Philox
uniforms, each light's first pick -- the node it follows -- on one stream,
the later steps of a collision-aware run's queried sets on a second and its
URTS draws on a third.  The cell studies (heatmap, variance) are recorded under
the per-cell Philox draws of ``experiments.CELL_RNG_SCHEME``
"philox-cell-v1"; the others never changed.  The battery script's files and the attack
demo's printed table are pinned as well.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from tipleak.cli import EXIT_OK, main, resolve_overrides
from tipleak.network import SimConfig, run_simulation

ROOT = Path(__file__).resolve().parent.parent

# (study, --set settings, csv sha256, json sha256)
CASES = [
    ("decentralized", ("light_nodes=10", "rounds=10"),
     "5adeff84b98da86ff965c39384fa42c380f0c54b3914617bf303811fab17126e",
     "c8cbae3bc03417281fb2e209219b16c8277dc27ba5ab225a458259f6ff618ee6"),
    ("realworld", ("samples=20", "max_adversaries=5"),
     "efb01041b64a84fc6f046ff19ff87817cd0bc4c4ac9bf78c3acdeb5bcc748205",
     "085c87e1dd51cf7e92be131386c3bd2764a6b9cd069d0a159e373365468232b4"),
    ("heatmap", ("placement=clustered", "samples_per_cell=100"),
     "ded367986aa1e03aeeecb69b11b9fc5fba586db30eb854eb91a07975fdb6310c",
     "6314d7fc0bad1136a23756935842574e5af1dfd4df90c305a8c152c4d3b547ab"),
    ("heatmap", ("samples_per_cell=50", "radius=2.5"),
     "22d00362afbc031ba933a7418a3ab078d8a45f75d5273a6dbe1456b56a3dc350",
     "ceae0de7ca1b7a01348ad0c4969eebefb9b65613877cbb76a7dfbcf2a3ae5332"),
    ("variance", ("runs=4", "node_count=50", "samples_per_cell=50"),
     "e935bebfcde376d7c5c114a9f083db551a48776454215c5a9fdfe34eada6143d",
     "c9216b2f62fae2da6bf9d822eb4cda5e71263378300ed1de1c9895b0750b16d6"),
    ("mixer", ("participants=2000", "p_values=0.1,0.2"),
     "8493447b9efa464c846bb4fc0e5d583b7206df64e231d166fb9da510d18fb1a5",
     "a7cdaf95eef77f4741cddcf2f0ca1f1950c751e9c0e1457c8e1777240ec2c452"),
    ("mitigations", ("baseline_rounds=20", "scaling_rounds=5", "light_nodes=10"),
     "0ede2dd6053c1638d4774dbe99a367e8617e1f46aa5a9b1c088662adc3eb4f89",
     "be9f255bb0288f4922a1a61cd9cee32e34d048261a5466f72c36c72a5e6eedec"),
    ("custom", ("light_node_count=40", "rounds=10", "mode=proxy", "proxy_count=3",
                "matching=collision_aware", "adversary_count=20"),
     "71b2475a48f57b16ab87449a867a4285d9b8ca1b951a7626713495131914243b",
     "62477398a6ae6fa29e1eb44547f9f99e2e168dbc242498ac7aacdeccd13b33f4"),
    ("custom", ("light_node_count=20", "rounds=5", "request_radius=4",
                "placement=clustered", "adversary_ratio=0.2"),
     "da67980250dc1b45e6057d2dc463e80857f0c4defa0763d38c4e56ae3e74fff5",
     "69ce2069ae677a28952b61b5ed83822864621c5ee1002ba41ddde3d5a45c6d0e"),
    # two lights sit exactly as far from proxy 101 as from proxy 103; with a
    # finite radius the proxy a light goes through decides what it reaches,
    # so the lowest-id tie rule shows in the bytes
    ("custom", ("light_node_count=40", "rounds=5", "placement=uniform_grid",
                "mode=proxy", "proxy_count=4", "request_radius=3"),
     "688bc2049f5c4939650f06f72f1e5bb916daf7628a49bc3f5ac9257a94d12deb",
     "53d4aeaf7a396fccabd7243112a9a7c1a4b10b275f4fbf2e3e840afe66fee1dc"),
    ("custom", ("light_node_count=10", "rounds=5", "mode=direct_tip_selection"),
     "24a9822e9d0563603b307cd3ea1e1a9bce111a7d5280a85e53f178b0f493bcc5",
     "6e37e814409afe49239f472477723aa7b28e875a853712cccd5ed8c6171fc172"),
    # every URTS draw and every collision-aware match reads the ids of the
    # pre-attached bootstrap tips
    ("custom", ("light_node_count=40", "rounds=5", "bootstrap_tips=60", "mode=proxy",
                "proxy_count=2", "matching=collision_aware"),
     "5b29c40a9a33cb4272c77f591b6b16adf86f25d6a49ccbcd3213bedb69738bb8",
     "ecc08a10376aed4bcd2691e72b4794875fc3d929c5af6d916233a731c5615fde"),
]

# `run_all_experiments.py --fast --seed 42`, the files that are not heatmaps
BATTERY = {
    "decentralized_42.csv":
        "24fb723a7edacb1f059a26c173a8fa68ad83c9f2cd4e6868c689fc527c973256",
    "realworld_42.csv":
        "04c9c14b8407f91db962f8525062ee42f2f7498db9f872a18fe8052234f442e2",
    "variance_42.csv":
        "b637ef24ae38877f384e288dc6dca650d40c1c49289e443e14825e94c49ee3a6",
    "mixer_42.csv":
        "943000c92d61577b5c71b9d80dfc5e65dcbf770d16760ce4031c825df9d76ae2",
    "mitigations_42.csv":
        "d70be56ad3bba5cb971a386b3eb58d1eef6e3c2ffaddda4d87366adc7f84cd07",
}
PLACEMENTS = ("uniform_grid", "uniform_random", "clustered")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(study, settings, out_dir, *extra):
    argv = ["run", study, "--seed", "7", "--workers", "1", "--out", str(out_dir)]
    for setting in settings:
        argv += ["--set", f"{study}.{setting}"]
    assert main(argv + list(extra)) == EXIT_OK


@pytest.mark.parametrize(
    "study, settings, csv_sha, json_sha", CASES,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(CASES)],
)
def test_run_output_bytes_are_pinned(tmp_path, study, settings, csv_sha, json_sha):
    _run(study, settings, tmp_path)
    _run(study, settings, tmp_path, "--format", "structured")
    assert _sha256(tmp_path / f"{study}_7.csv") == csv_sha
    assert _sha256(tmp_path / f"{study}_7.json") == json_sha


def test_decentralized_bytes_do_not_depend_on_workers(tmp_path):
    study, settings, csv_sha, _ = CASES[0]
    _run(study, settings, tmp_path, "--workers", "2")  # the later flag wins
    assert _sha256(tmp_path / f"{study}_7.csv") == csv_sha


def test_mitigations_bytes_do_not_depend_on_workers(tmp_path):
    study, settings, csv_sha, _ = CASES[6]
    assert study == "mitigations"
    _run(study, settings, tmp_path, "--workers", "2")
    assert _sha256(tmp_path / f"{study}_7.csv") == csv_sha


def test_variance_bytes_do_not_depend_on_workers(tmp_path):
    study, settings, csv_sha, _ = CASES[4]
    assert study == "variance"
    _run(study, settings, tmp_path, "--workers", "2")
    assert _sha256(tmp_path / f"{study}_7.csv") == csv_sha


# sha256 of the canonical JSON of `_scoring` over every `custom` case above
# and two runs whose addresses mix degrees 0.0 and 1.0: outputs that no
# result file carries
SCORING_MIXED = [
    ("light_node_count=30", "rounds=5", "matching=collision_aware", "adversary_count=50"),
    ("light_node_count=30", "rounds=5", "matching=collision_aware", "adversary_count=50",
     "mode=proxy", "proxy_count=40", "request_radius=2"),
]
SCORING_SHA256 = "7647c1f8b09395d1141879cd5a28bf256ae53e175d764a46a1dfd2ad1e605370"


def _scoring(sim):
    """``per_light``, ``address_degrees`` (in its order) and the link rows
    (round, responder, nonce light, claimed, light, correct), in match order."""
    links = [
        [*nonce, claimed, light, correct]
        for nonce, claimed, light, correct in zip(
            sim.links.nonce.tolist(), sim.links.claimed.tolist(),
            sim.links.light.tolist(), sim.links.correct.tolist())
    ]
    return {"per_light": sim.per_light,
            "address_degrees": list(sim.address_degrees.items()), "links": links}


def test_scoring_outputs_are_pinned():
    runs = [settings for study, settings, _, _ in CASES if study == "custom"]
    assert len(runs) == 5
    scored = [
        _scoring(run_simulation(SimConfig(
            **resolve_overrides("custom", None, list(settings))["custom"], seed=7)))
        for settings in runs + SCORING_MIXED
    ]
    text = json.dumps(scored, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SCORING_SHA256


# 37 of 40 lights reach a full node, 28 of them fewer than the fan-out of 5
# (reach counts 1 to 8): rows leave the request draws partway through
SHORT_REACH = ("full_node_count=30", "light_node_count=40", "rounds=5",
               "request_radius=2", "request_fanout=5", "adversary_ratio=0.2")
SHORT_REACH_CSV = "b99fab48dc67087dc541a18ac517c9c0ddcce5c6845cf6ab86d9db60c34eb5ba"
SHORT_REACH_JSON = "7a37529bd001bb634a64792bdabb1e0b05e00155a58a276419921e632c6056b4"
SHORT_REACH_SCORING = "ba18696dd7e6f27ef4e09be602de7f710069044954424533a765d230f0c65030"


def test_short_reach_requests_are_pinned(tmp_path):
    _run("custom", SHORT_REACH, tmp_path)
    _run("custom", SHORT_REACH, tmp_path, "--format", "structured")
    assert _sha256(tmp_path / "custom_7.csv") == SHORT_REACH_CSV
    assert _sha256(tmp_path / "custom_7.json") == SHORT_REACH_JSON
    sim = run_simulation(SimConfig(
        **resolve_overrides("custom", None, list(SHORT_REACH))["custom"], seed=7))
    text = json.dumps([_scoring(sim)], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SHORT_REACH_SCORING


# one light queries four adversaries for 30 rounds over a few tips, so a
# pair it is served in one round is often attached again in a later round:
# collision-aware matching must join on the round as well as the pair
# (75 links at seed 4; a join across rounds finds 77)
CROSS_ROUND = ("matching=collision_aware", "light_node_count=1", "full_node_count=4",
               "adversary_count=4", "rounds=30", "bootstrap_tips=10")
CROSS_ROUND_CSV = "21dff159d89dae536d71eb51f352995c1dd1219a85dc51bcbbc2ebed613b7e78"
CROSS_ROUND_JSON = "2f20c99619c3dfe1a98906999e32146428b72590b89495da779e8e902ac7d6ff"
CROSS_ROUND_SCORING = "81b9c475154f5d88aec8b774bf20d90656bf6d70bdef7e7f1b7587989d491572"


def test_collision_aware_matches_within_a_round_only(tmp_path):
    _run("custom", CROSS_ROUND, tmp_path, "--seed", "4")
    _run("custom", CROSS_ROUND, tmp_path, "--seed", "4", "--format", "structured")
    assert _sha256(tmp_path / "custom_4.csv") == CROSS_ROUND_CSV
    assert _sha256(tmp_path / "custom_4.json") == CROSS_ROUND_JSON
    sim = run_simulation(SimConfig(
        **resolve_overrides("custom", None, list(CROSS_ROUND))["custom"], seed=4))
    assert len(sim.links) == 75
    text = json.dumps([_scoring(sim)], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CROSS_ROUND_SCORING


def _script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_battery_fast_smoke(tmp_path):
    battery = tmp_path / "battery"
    assert _script("run_all_experiments").main(
        ["--fast", "--workers", "1", "--out", str(battery)]
    ) == 0
    heatmaps = {f"heatmap-{p}_42.csv" for p in PLACEMENTS}
    assert {p.name for p in battery.iterdir()} == set(BATTERY) | heatmaps
    for name, digest in BATTERY.items():
        assert _sha256(battery / name) == digest, name
    # each heatmap file is what the CLI writes for its placement
    for placement in PLACEMENTS:
        single = tmp_path / placement
        assert main([
            "run", "heatmap", "--seed", "42", "--workers", "1",
            "--out", str(single), "--set", f"heatmap.placement={placement}",
            "--set", "heatmap.samples_per_cell=200",
        ]) == EXIT_OK
        assert (battery / f"heatmap-{placement}_42.csv").read_bytes() == (
            single / "heatmap_42.csv"
        ).read_bytes()


def test_battery_rejects_nonpositive_workers(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        _script("run_all_experiments").main(["--workers", "0", "--out", str(tmp_path)])
    assert info.value.code == 1
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_attack_demo_prints_the_readme_excerpt(capsys):
    assert _script("attack_demo").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("wallet  transactions  linked  exposed")
    # wallet ids follow the 20 full nodes
    assert lines[header + 1] == "    20            25       6     24%"
    assert [line.split()[0] for line in lines[header + 1:header + 9]] == [
        str(i) for i in range(20, 28)
    ]
    assert lines[-1] == (
        "linked 34/200 transactions to a wallet identity "
        "(rate 0.170, closed form 0.200)"
    )
