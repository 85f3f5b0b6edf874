"""Golden bytes: every study's output is pinned by its sha256.

Each case runs ``tipleak run <study> --seed 7 --workers 1`` at small
settings and compares the CSV and the structured JSON against recorded
digests.  A refactor that keeps behaviour keeps these digests; a deliberate
change of the output must update them and say why.  The studies that
simulate (decentralized, mitigations, custom) are recorded under the
per-round Philox draws of ``network.RNG_SCHEME`` "philox-round-v1", and the
cell studies (heatmap, variance) under the per-cell Philox draws of
``experiments.CELL_RNG_SCHEME`` "philox-cell-v1"; the others never changed.  The battery script's files and the
attack demo's printed table are pinned as well.
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
     "7d8cf8b9ce4e1fe1b9327bdc4545de7359cd4e835b84592ae27b60840505b105",
     "baf681a8719d9fcdbf27bcceee3f4aabf7e04f9a0bfc1803280e0dc9f69bd288"),
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
     "fdbaf095a49fca02aa209c8326e2b9637b3e8be7e5b27155140eece80b85a566"),
    ("mixer", ("participants=2000", "p_values=0.1,0.2"),
     "8493447b9efa464c846bb4fc0e5d583b7206df64e231d166fb9da510d18fb1a5",
     "a7cdaf95eef77f4741cddcf2f0ca1f1950c751e9c0e1457c8e1777240ec2c452"),
    ("mitigations", ("baseline_rounds=20", "scaling_rounds=5", "light_nodes=10"),
     "290118d98a2c6459cf5e16dd408a52f3d089007861dc367075672aba4d10d61f",
     "d6f9b4047cc945b1d18e3b0bda1b5880f5cc11cb74a3fba84d737bf596d31532"),
    ("custom", ("light_node_count=40", "rounds=10", "mode=proxy", "proxy_count=3",
                "matching=collision_aware", "adversary_count=20"),
     "bf59a343d80e6dfad5b21302a3d70bf4c9f73b8e761e3b22416f64cbef7316e9",
     "10b1542871b67fdb47741133643f4470a47bceda227b3b17f1f699887c4696e6"),
    ("custom", ("light_node_count=20", "rounds=5", "request_radius=4",
                "placement=clustered", "adversary_ratio=0.2"),
     "33656d0972d16fd275bbea30f1dafeb09082770b9b1933a90783d203175df5a0",
     "3b54d53225f0cecfa9afe47433542aded0aa0cbafcc08cabb92c4a50c905cc3a"),
    # two lights sit exactly as far from proxy 101 as from proxy 103; with a
    # finite radius the proxy a light goes through decides what it reaches,
    # so the lowest-id tie rule shows in the bytes
    ("custom", ("light_node_count=40", "rounds=5", "placement=uniform_grid",
                "mode=proxy", "proxy_count=4", "request_radius=3"),
     "0bdd41546dcde176a5b96208fe15ef4b1f9ccab3817f1caeaf1835b06bb79cd3",
     "157592920854c511053079105aa8504bb2c5a3182bbcf2b3799286a72ffe44ed"),
    ("custom", ("light_node_count=10", "rounds=5", "mode=direct_tip_selection"),
     "e1cbfc3e1b7e3c725eba60340cb690128b7bde6ba52d801109cb33b3e512430a",
     "1cdde6b6751bf0589e888524ddd510ee1a5c5dda6e17ddb247366324849c3674"),
    # every URTS draw and every collision-aware match reads the ids of the
    # pre-attached bootstrap tips
    ("custom", ("light_node_count=40", "rounds=5", "bootstrap_tips=60", "mode=proxy",
                "proxy_count=2", "matching=collision_aware"),
     "0867f4e7aac5e74f8724269c3fc0009da7c3cfe044db9b1ccaf3bfc1af6606e5",
     "06706075eb83dcd20bc3a95ca2dcb67774c65ab9b797858fab0b8dd21e0c73e9"),
]

# `run_all_experiments.py --fast --seed 42`, the files that are not heatmaps
BATTERY = {
    "decentralized_42.csv":
        "da6e928d76f05a0e0d7fa4178ce63d797a467fde33baca26cde30f98e60c44e2",
    "realworld_42.csv":
        "04c9c14b8407f91db962f8525062ee42f2f7498db9f872a18fe8052234f442e2",
    "variance_42.csv":
        "b637ef24ae38877f384e288dc6dca650d40c1c49289e443e14825e94c49ee3a6",
    "mixer_42.csv":
        "943000c92d61577b5c71b9d80dfc5e65dcbf770d16760ce4031c825df9d76ae2",
    "mitigations_42.csv":
        "4c1914501806ea97f79fc477379aeae93627ae9138add6b1dc0a2749d293a8ed",
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
SCORING_SHA256 = "ce83685d254e268fa89bc836a13b21035954d81aae1c46a960d78b46f07a6ca7"


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
SHORT_REACH_CSV = "c1dcb84c9f97b38ee9ce29fd3c42e07b9fb78572d918a431404c9cbb59ba7867"
SHORT_REACH_JSON = "dcc138623fc4ef2f0a0367358496d1839898294a461b19229d1951f159269204"
SHORT_REACH_SCORING = "e480c1e3fe279dd8289cd267584eea9e54c345e0b57aaafb1d17b1405c95d65e"


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
# (76 links at seed 2; a join across rounds finds 77)
CROSS_ROUND = ("matching=collision_aware", "light_node_count=1", "full_node_count=4",
               "adversary_count=4", "rounds=30", "bootstrap_tips=10")
CROSS_ROUND_CSV = "bce7cf7839a381802a030ff6f54797449e527d95a81843d54f2e87067ce28c64"
CROSS_ROUND_JSON = "67b5f744bd3d20c551ca760d524aeef6488d224ccccab6025d0a8e6883bd6626"
CROSS_ROUND_SCORING = "f6d054b19aaa70e46ef65d35ff2dd3485dfc028cdc9d042d2f1d04d16ca56087"


def test_collision_aware_matches_within_a_round_only(tmp_path):
    _run("custom", CROSS_ROUND, tmp_path, "--seed", "2")
    _run("custom", CROSS_ROUND, tmp_path, "--seed", "2", "--format", "structured")
    assert _sha256(tmp_path / "custom_2.csv") == CROSS_ROUND_CSV
    assert _sha256(tmp_path / "custom_2.json") == CROSS_ROUND_JSON
    sim = run_simulation(SimConfig(
        **resolve_overrides("custom", None, list(CROSS_ROUND))["custom"], seed=2))
    assert len(sim.links) == 76
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
    assert lines[header + 1] == "    20            25       4     16%"
    assert [line.split()[0] for line in lines[header + 1:header + 9]] == [
        str(i) for i in range(20, 28)
    ]
    assert lines[-1] == (
        "linked 46/200 transactions to a wallet identity "
        "(rate 0.230, closed form 0.200)"
    )
