"""Golden bytes: every study's output is pinned by its sha256.

Each case runs ``tipleak run <study> --seed 7 --workers 1`` at small
settings and compares the CSV and the structured JSON against recorded
digests.  A refactor that keeps behaviour keeps these digests; a deliberate
change of the output must update them and say why.  The studies that
simulate (decentralized, mitigations, custom) are recorded under
``network.RNG_SCHEME`` "philox-run-v3": each run's counter-indexed Philox
uniforms, its queried sets and follow choices on one stream and its URTS
draws on another.  The cell studies (heatmap, variance) are recorded under
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
     "d1f549f1ebd012a9f65833c280c9fc92ce43cb45f09f894caafcb7a71905a06f",
     "6bb5f2427107024c14bae60cce53d7a33959dc8afa06b155859c1c1883a75c29"),
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
     "98c9dac7bb03adb63a9ed491fb8810cbc7ab9fadd5f87943fc56b5ba73850027",
     "d553913a3e1e2c0f15965bbaa47d149dcf8914b978313b44b674d4c2ba080bff"),
    ("custom", ("light_node_count=40", "rounds=10", "mode=proxy", "proxy_count=3",
                "matching=collision_aware", "adversary_count=20"),
     "7d5926773dab880a33ea7a8f2dd60258494befdea11ef3b06a4d86cb902fb79f",
     "c40d1cab2c777c91ca5bf2a7b9e13ab2881390897e18122d10fe55843e713ca7"),
    ("custom", ("light_node_count=20", "rounds=5", "request_radius=4",
                "placement=clustered", "adversary_ratio=0.2"),
     "4b4036efdb1cc6aa372de66139ef57a198ab391dd876de636219d32acacd9698",
     "b55df29d6e743b1c626eeb6e125118308b30a946215454cd92b23dd8a8ba881b"),
    # two lights sit exactly as far from proxy 101 as from proxy 103; with a
    # finite radius the proxy a light goes through decides what it reaches,
    # so the lowest-id tie rule shows in the bytes
    ("custom", ("light_node_count=40", "rounds=5", "placement=uniform_grid",
                "mode=proxy", "proxy_count=4", "request_radius=3"),
     "ade37efe87650c1ea6b683b8dacf4cdd87a35454cfcd59eafb2002d4670c1308",
     "2c4b922cc909d24a244d1449812b21c067b61e53c1d3551e033cab1b55a493fc"),
    ("custom", ("light_node_count=10", "rounds=5", "mode=direct_tip_selection"),
     "bbd9ceb352b3cac74ee7a7000e7d69b0dd28253d145309803d9a2efd3e1ca6b5",
     "32b3da5a0676eedb90c1b8a999ba4b83f319687bcc080bff3e09565e6c98eef8"),
    # every URTS draw and every collision-aware match reads the ids of the
    # pre-attached bootstrap tips
    ("custom", ("light_node_count=40", "rounds=5", "bootstrap_tips=60", "mode=proxy",
                "proxy_count=2", "matching=collision_aware"),
     "34ac031f7e3a6f83b5742c260ed69e5a1f5afc3da797ee2ad169523cd832d682",
     "84438c495280ea9a12f9a87a62faa9cf399bba1835920416012ae339109f25dc"),
]

# `run_all_experiments.py --fast --seed 42`, the files that are not heatmaps
BATTERY = {
    "decentralized_42.csv":
        "aae4342335bae4db3686b4a59380eca2d018e05f10ce6f81db4a913ff96b3e35",
    "realworld_42.csv":
        "04c9c14b8407f91db962f8525062ee42f2f7498db9f872a18fe8052234f442e2",
    "variance_42.csv":
        "b637ef24ae38877f384e288dc6dca650d40c1c49289e443e14825e94c49ee3a6",
    "mixer_42.csv":
        "943000c92d61577b5c71b9d80dfc5e65dcbf770d16760ce4031c825df9d76ae2",
    "mitigations_42.csv":
        "e11b3eafe6ad33ee1593fb81098edd953385de981a570d3a8241f6da75c2e117",
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
SCORING_SHA256 = "df76809fed303ac54771ce7c2475ad04477475d4555cd893622b521630bcb244"


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
SHORT_REACH_CSV = "707d4e43fd854fc46330b2a1cbf53244335745292e739dbdada163b78ead0553"
SHORT_REACH_JSON = "7d73735937d677cbb0bf5ef930b286e4169431f7cdf5f16a876ce6efc315c562"
SHORT_REACH_SCORING = "79fcf1e3afd5ec4976e007fdb8732afa3914d3d9a9dea38de7a2830d34ffd6b4"


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
# (77 links at seed 2; a join across rounds finds 78)
CROSS_ROUND = ("matching=collision_aware", "light_node_count=1", "full_node_count=4",
               "adversary_count=4", "rounds=30", "bootstrap_tips=10")
CROSS_ROUND_CSV = "2df777239cdc673e63f3566b3d07d7842120ff692d5597505d86f91b54f5e4a1"
CROSS_ROUND_JSON = "5b6036ad3233f3781eec4f1073646580d065c6f5bda0d1a48d84edb9cf27647b"
CROSS_ROUND_SCORING = "c2d1a578e6b08f110d8714a1acb944bf403d750589259ee56b066c10fcc2622d"


def test_collision_aware_matches_within_a_round_only(tmp_path):
    _run("custom", CROSS_ROUND, tmp_path, "--seed", "2")
    _run("custom", CROSS_ROUND, tmp_path, "--seed", "2", "--format", "structured")
    assert _sha256(tmp_path / "custom_2.csv") == CROSS_ROUND_CSV
    assert _sha256(tmp_path / "custom_2.json") == CROSS_ROUND_JSON
    sim = run_simulation(SimConfig(
        **resolve_overrides("custom", None, list(CROSS_ROUND))["custom"], seed=2))
    assert len(sim.links) == 77
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
        "linked 48/200 transactions to a wallet identity "
        "(rate 0.240, closed form 0.200)"
    )
