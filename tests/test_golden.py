"""Golden bytes: every study's output is pinned by its sha256.

Each case runs ``tipleak run <study> --seed 7 --workers 1`` at small
settings and compares the CSV and the structured JSON against the digests
recorded before the study registry replaced the per-study CLI code.  A
refactor that keeps behaviour keeps these digests; a deliberate change of
the output must update them and say why.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from tipleak.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent

# (study, --set settings, csv sha256, json sha256)
CASES = [
    ("decentralized", ("light_nodes=10", "rounds=10"),
     "1e65c3f75e49c69963930cfa74912dcdf24aad7df9c8d8920131f624526fa57d",
     "88e4c8bb91ab54e8e71f1afaf3c7063248b772066bb7b679e79409bf40e4918b"),
    ("realworld", ("samples=20", "max_adversaries=5"),
     "efb01041b64a84fc6f046ff19ff87817cd0bc4c4ac9bf78c3acdeb5bcc748205",
     "085c87e1dd51cf7e92be131386c3bd2764a6b9cd069d0a159e373365468232b4"),
    ("heatmap", ("placement=clustered", "samples_per_cell=100"),
     "5ed43b980741efa665d1066488420e07c2f270528901e1e9925d7ee225a88144",
     "9f7882edabcc72cdd34811e7f6ce88df549c252ae935ccda406302cd556eb4dd"),
    ("heatmap", ("samples_per_cell=50", "radius=2.5"),
     "4c90250cb9212c4754a4fbc6cc6ccae4f5d4c81b349768e11b4f758a6f67f79b",
     "e2fef013e84dc7f3116a447b3df2c908a565e4846808450ac08986d231d78962"),
    ("variance", ("runs=4", "node_count=50", "samples_per_cell=50"),
     "e5db75fafee6c5c056ef693a54330f5c310b28938f9a9639e24dc12554d6ebb8",
     "b0a9791d74782dc2848c627c79fccd8d0a82d77291edae89b03216e94ca0b148"),
    ("mixer", ("participants=2000", "p_values=0.1,0.2"),
     "8493447b9efa464c846bb4fc0e5d583b7206df64e231d166fb9da510d18fb1a5",
     "a7cdaf95eef77f4741cddcf2f0ca1f1950c751e9c0e1457c8e1777240ec2c452"),
    ("mitigations", ("baseline_rounds=20", "scaling_rounds=5", "light_nodes=10"),
     "3d1405cd7faaf33ad06d15a4cd3c7ee5c2146729227bbe0d9b1e0d876b053ce7",
     "169370c7c02bf1846663aa890091852dad8598512d16ba298a18830f8f971f92"),
    ("custom", ("light_node_count=40", "rounds=10", "mode=proxy", "proxy_count=3",
                "matching=collision_aware", "adversary_count=20"),
     "e8fb818ed44290fbae52a80a513052c4bc8b86b460085e8aa1bd09c812ddec46",
     "60aa3a4af201b30f06b362c7033a3ab7deddbb94c6af6d47a69ea1cf3e3784b1"),
    ("custom", ("light_node_count=20", "rounds=5", "request_radius=4",
                "placement=clustered", "adversary_ratio=0.2"),
     "f5d4b0dd2ac83011b20e0ee1d76b91275d852612e93ecdbb669598de2e2f9733",
     "ee41abf6a73f8203348d3b8b205e19b6326966633a3ecd86ff2316a34e0c1e3b"),
]

# `run_all_experiments.py --fast --seed 42`, the files that are not heatmaps
BATTERY = {
    "decentralized_42.csv":
        "e16717388e4a0c1370ee07febaa997827f097301c0b585ae5cd1834d3f992f2c",
    "realworld_42.csv":
        "04c9c14b8407f91db962f8525062ee42f2f7498db9f872a18fe8052234f442e2",
    "variance_42.csv":
        "9395b7650d5e3a4a882261f21a2022bbfd2c759da9ee18baea8e0b9d734fbce8",
    "mixer_42.csv":
        "943000c92d61577b5c71b9d80dfc5e65dcbf770d16760ce4031c825df9d76ae2",
    "mitigations_42.csv":
        "be9c02c4b9cae6897dea4f2b18586adfa78788d6dd8262def1247532fa5c3e97",
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


def _battery_script():
    path = ROOT / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_battery_fast_smoke(tmp_path):
    battery = tmp_path / "battery"
    assert _battery_script().main(
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
        _battery_script().main(["--workers", "0", "--out", str(tmp_path)])
    assert info.value.code == 1
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
