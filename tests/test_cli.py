"""CLI behavior: output formatting, exit codes, config plumbing, validate."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from tipleak.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    UsageError,
    build_parser,
    main,
    parse_config_line,
    resolve_overrides,
)
from tipleak import cli, experiments
from tipleak.experiments import STUDIES, ExperimentResult


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# analytic subcommand
# ---------------------------------------------------------------------------

def test_analytic_deanon_prints_six_decimals(capsys):
    assert run_cli("analytic", "deanon", "--n", "100", "--c", "10", "--m", "3") == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.100000"
    assert run_cli("analytic", "deanon", "--n", "1000000000", "--c", "500000000",
                   "--m", "100000") == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.500000"


def test_analytic_hypergeom_refuses_large_m_with_one_line():
    # exact binomials at this m would take seconds: --m is bounded instead
    code, err = _exit_and_stderr(["analytic", "hypergeom", "--n", "1000000000", "--c",
                                  "500000000", "--m", "100000", "--k", "50000"])
    assert code == EXIT_USAGE
    assert err == "tipleak: error: requests must be <= 10000, got 100000 (--m)\n", err


def test_analytic_hypergeom_refuses_large_n_with_one_line():
    # exact binomials grow with the digits of n: --n is bounded as well
    code, err = _exit_and_stderr(["analytic", "hypergeom", "--n", "1000000000000000001",
                                  "--c", "500000000000000000", "--m", "10000", "--k", "5000"])
    assert code == EXIT_USAGE
    assert err == ("tipleak: error: full_nodes must be <= 1000000000000000000, "
                   "got 1000000000000000001 (--n)\n"), err


def test_analytic_mixer_expected(capsys):
    assert run_cli(
        "analytic", "mixer-expected", "--p", "0.1", "--mode", "normalized"
    ) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1.010101"
    assert run_cli("analytic", "mixer-expected", "--p", "0.1", "--mode", "raw") == EXIT_OK
    assert capsys.readouterr().out.strip() == "1.020304"


def test_analytic_required_nodes(capsys):
    assert run_cli("analytic", "required-nodes", "--c", "10", "--target", "0.01") == EXIT_OK
    assert capsys.readouterr().out.strip() == "1001"
    assert run_cli("analytic", "required-nodes", "--c", "16", "--target", "1/20") == EXIT_OK
    assert capsys.readouterr().out.strip() == "321"


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_analytic_required_nodes_rejects_non_finite_target(capsys, target):
    assert run_cli(
        "analytic", "required-nodes", "--c", "10", "--target", target
    ) == EXIT_USAGE
    assert f"target_rate must be in (0, 1], got {target}" in _usage_error_line(capsys)


def test_analytic_entropy_and_hypergeom(capsys):
    assert run_cli("analytic", "entropy", "--probs", "0.25,0.25,0.25,0.25") == EXIT_OK
    assert capsys.readouterr().out.strip() == "1.000000"
    for probs in ("1,0", "1,0,0", "0,1"):  # a pinned sender prints no minus sign
        assert run_cli("analytic", "entropy", "--probs", probs) == EXIT_OK
        assert capsys.readouterr().out == "0.000000\n"
    assert run_cli(
        "analytic", "hypergeom", "--n", "10", "--c", "4", "--m", "3", "--k", "1"
    ) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.500000"


def test_analytic_takeover(capsys):
    assert run_cli("analytic", "takeover", "--nodes", "8") == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.125000"
    assert run_cli(
        "analytic", "takeover", "--nodes", "6", "--mode", "add"
    ) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.142857"


def test_analytic_invalid_params_usage_exit(capsys):
    assert run_cli("analytic", "deanon", "--n", "10", "--c", "20") == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("analytic", "deanon", "--n", "100", "--c", "10", "--bogus")
    assert info.value.code == EXIT_USAGE


# a valid value of every flag of every analytic operation
ANALYTIC_FLAGS = {
    "deanon": {"--n": "100", "--c": "10", "--m": "3"},
    "hypergeom": {"--n": "10", "--c": "4", "--m": "3", "--k": "1"},
    "entropy": {"--probs": "0.25,0.25,0.25,0.25"},
    "mixer-chain": {"--p": "0.1", "--x": "2"},
    "mixer-expected": {"--p": "0.1", "--mode": "normalized"},
    "required-nodes": {"--c": "10", "--target": "0.01"},
    "takeover": {"--nodes": "8", "--mode": "takeover", "--count": "1"},
}


def _exit_and_stderr(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as info:  # argparse rejections
            code = info.code
    return code, err.getvalue()


def test_analytic_flags_run_or_fail_with_one_line():
    """Every flag of every analytic operation, at every boundary value and
    at a bogus flag, either prints a value or exits 1 with one error line
    that names the flag."""
    for op, flags in ANALYTIC_FLAGS.items():
        base = [arg for flag_value in flags.items() for arg in flag_value]
        cases = [(["--bogus"], "--bogus")] + [
            ([flag, value], flag) for flag in flags
            for value in BOUNDARY_VALUES + ("2", "1e9", "x")
        ]
        for extra, flag in cases:
            argv = ["analytic", op] + base + extra  # the last value wins
            code, err = _exit_and_stderr(argv)
            assert "Traceback" not in err, (argv, err)
            if code == EXIT_OK:
                assert err == "", (argv, err)
            else:
                assert code == EXIT_USAGE, (argv, code)
                assert err.startswith("tipleak") and err.count("\n") == 1, (argv, err)
                assert flag in err, (argv, err)


def test_run_flags_run_or_fail_with_one_line(tmp_path):
    """``run``'s own flags, at every boundary value: a run or one line."""
    for flag in ("--seed", "--workers", "--format"):
        for value in BOUNDARY_VALUES + ("2", "1e9", "x", str(2**70), str(-2**70)):
            argv = ["run", "mixer", "--out", str(tmp_path), "--workers", "1",
                    "--set", "participants=200", "--set", "max_chain=3", flag, value]
            code, err = _exit_and_stderr(argv)
            assert "Traceback" not in err, (argv, err)
            if code == EXIT_OK:
                assert err == "", (argv, err)
            else:
                assert code == EXIT_USAGE, (argv, code)
                assert err.startswith("tipleak") and err.count("\n") == 1, (argv, err)
                assert flag in err, (argv, err)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_line_forms():
    assert parse_config_line("mixer.max_chain = 7", "custom") == (
        "mixer", "max_chain", " 7"
    )
    assert parse_config_line("mode=proxy", "custom") == ("custom", "mode", "proxy")
    assert parse_config_line("  # comment", "custom") is None
    assert parse_config_line("", "custom") is None
    with pytest.raises(UsageError):
        parse_config_line("no equals sign", "custom")
    with pytest.raises(UsageError):
        parse_config_line("nosuchsection.key=1", "custom")


def test_resolve_overrides_types_and_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "custom.rounds=25\n"
        "custom.adversary_ratio=0.2\n"
        "heatmap.placement=clustered\n"
    )
    merged = resolve_overrides("custom", str(cfg), ["matching=collision_aware"])
    assert merged["custom"]["rounds"] == 25
    assert merged["custom"]["adversary_ratio"] == 0.2
    assert merged["custom"]["matching"] == "collision_aware"
    assert merged["heatmap"]["placement"] == "clustered"
    with pytest.raises(UsageError):
        resolve_overrides("custom", None, ["not_a_key=1"])
    with pytest.raises(UsageError):
        resolve_overrides("custom", None, ["rounds=soon"])
    with pytest.raises(UsageError):
        resolve_overrides("custom", str(tmp_path / "missing.cfg"), [])


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

def test_run_unknown_experiment(capsys):
    assert run_cli("run", "warp") == EXIT_USAGE
    assert "unknown experiment" in capsys.readouterr().err


def test_run_mixer_writes_csv(tmp_path, capsys):
    code = run_cli(
        "run", "mixer", "--seed", "5", "--out", str(tmp_path),
        "--set", "participants=2000", "--set", "p_values=0.1",
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "wrote" in out and "mixer_5.csv" in out
    text = (tmp_path / "mixer_5.csv").read_text()
    assert text.startswith("# seed=5\n")
    assert "label,metric,value,dispersion" in text


def test_run_same_seed_byte_identical(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert run_cli(
            "run", "decentralized", "--seed", "7", "--out", str(tmp_path / sub),
            "--set", "light_nodes=10", "--set", "rounds=10", "--workers", "2",
        ) == EXIT_OK
    first = (tmp_path / "a" / "decentralized_7.csv").read_bytes()
    second = (tmp_path / "b" / "decentralized_7.csv").read_bytes()
    assert first == second


def test_run_heatmap_uniform_grid_band(tmp_path):
    assert run_cli(
        "run", "heatmap", "--seed", "3", "--out", str(tmp_path),
        "--set", "samples_per_cell=400", "--format", "structured",
    ) == EXIT_OK
    doc = json.loads((tmp_path / "heatmap_3.json").read_text())
    probs = [
        row["value"] for row in doc["rows"]
        if row["metric"] == "adversary_selection_probability"
    ]
    assert len(probs) == 9
    assert all(0.05 <= p <= 0.15 for p in probs)


def test_run_custom_proxy_mode(tmp_path):
    assert run_cli(
        "run", "custom", "--seed", "11", "--out", str(tmp_path),
        "--set", "mode=proxy", "--set", "proxy_count=1",
        "--set", "full_node_count=10", "--set", "light_node_count=4",
        "--set", "rounds=10",
    ) == EXIT_OK
    doc = (tmp_path / "custom_11.csv").read_text()
    assert "mean_attacked_degree,1," in doc  # proxied requesters keep degree 1


def test_run_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TIPLEAK_OUT", str(tmp_path))
    assert run_cli(
        "run", "mixer", "--seed", "6",
        "--set", "participants=1000", "--set", "p_values=0.2",
    ) == EXIT_OK
    assert (tmp_path / "mixer_6.csv").exists()


def test_run_invalid_override_value(capsys):
    assert run_cli(
        "run", "custom", "--set", "full_node_count=0", "--out", "/tmp"
    ) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def _usage_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("tipleak: error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("setting, message", [
    ("custom.adversary_count=10.5", "adversary_count must be an integer"),
    ("custom.rounds=true", "custom.rounds expects int"),
    ("mixer.p_values=", "mixer.p_values expects comma-separated values"),
    ("mixer.p_values=0.1,x", "mixer.p_values expects float"),
    ("heatmap.radius=-1", "radius must be positive"),
    ("heatmap.fanout=0", "unknown config key heatmap.fanout"),
    ("heatmap.adversary_ratio=1.5", "adversary_ratio must be in [0, 1]"),
    ("heatmap.cluster_count=-3", "cluster_count must be >= 1"),
    ("heatmap.cluster_fraction=2", "cluster_fraction must be in [0, 1]"),
    ("heatmap.cluster_spread=-1", "cluster_spread must be >= 0"),
    ("heatmap.cluster_spread=inf", "cluster_spread must be >= 0 and finite"),
    ("custom.cluster_spread=inf", "cluster_spread must be >= 0 and finite"),
    ("heatmap.require_local_adversary=3",
     "require_local_adversary must be none, true or false, got 3"),
    ("variance.require_local_adversary=hello",
     "require_local_adversary must be none, true or false, got 'hello'"),
    ("mixer.participants=0", "participants must be >= 2"),
    ("mixer.participants=-1", "participants must be >= 2"),
    ("mixer.participants=1", "participants must be >= 2"),
    ("mixer.participants=2147483649", "participants must be <= 2147483648"),
    ("mixer.max_chain=100001", "max_chain must be <= 100000"),
    ("mitigations.scaling_target=nan", "scaling_target must be in (0, 1], got nan"),
    ("mitigations.scaling_target=inf", "scaling_target must be in (0, 1], got inf"),
    ("mitigations.scaling_target=1e-9",
     "scaling_target 1e-09 needs 10000000001 full nodes, more than 2147483648"),
    ("custom.rounds=100000000000 custom.light_node_count=1",
     "rounds x light_node_count must be <= 2147483648"),
    ("custom.bootstrap_tips=10000000000", "bootstrap_tips must be <= 2147483648"),
    ("custom.light_node_count=100000000000", "light_node_count must be <= 2147483648"),
    ("custom.full_node_count=10000000000", "full_node_count must be <= 2147483648"),
    ("heatmap.samples_per_cell=100000000000", "samples_per_cell must be <= 2147483648"),
    ("mitigations.baseline_nodes=0", "error: baseline_nodes must be >= 1"),
    ("mitigations.baseline_adversaries=0", "error: baseline_adversaries must be >= 1"),
    ("mitigations.baseline_adversaries=101",
     "error: baseline_adversaries must be <= baseline_nodes"),
    ("mitigations.light_nodes=0", "error: light_nodes must be >= 1"),
    ("mitigations.proxy_light_nodes=0", "error: proxy_light_nodes must be >= 1"),
    ("mitigations.baseline_rounds=0", "error: baseline_rounds must be >= 1"),
    ("mitigations.scaling_rounds=0", "error: scaling_rounds must be >= 1"),
    ("decentralized.light_nodes=0", "error: light_nodes must be >= 1"),
    ("custom.cluster_count=0", "cluster_count must be >= 1"),
    ("custom.request_radius=nan", "request_radius must be positive or None"),
    ("custom.request_radius=true", "request_radius must be positive or None"),
    ("custom.placement=explicit",
     "placement must be one of ('uniform_grid', 'uniform_random', 'clustered')"),
    ("heatmap.node_count=0", "error: node_count must be >= 1"),
    ("heatmap.layout_index=99999999999999999999",
     "layout_index must be a signed 64-bit integer, got 99999999999999999999"),
    ("variance.node_count=-1", "error: node_count must be >= 1"),
    ("variance.runs=2", "variance study needs runs >= 3"),
    ("variance.runs=2147483649", "runs must be <= 2147483648"),
    ("variance.fanout=0", "unknown config key variance.fanout"),
    ("variance.adversary_ratio=-0.1", "adversary_ratio must be in [0, 1]"),
    ("variance.samples_per_cell=0", "samples_per_cell must be >= 1"),
    ("variance.radius=0", "radius must be positive"),
    ("heatmap.adversary_ratio=0 heatmap.require_local_adversary=true",
     "require_local_adversary needs adversary_ratio * node_count to round to 1 or more"),
    ("variance.adversary_ratio=0",
     "require_local_adversary needs adversary_ratio * node_count to round to 1 or more"),
    ("realworld.data=/nonexistent/regions.json", "cannot read region data"),
    ("realworld.data=nan", "data must be a file path, got nan"),
    ("realworld.data=-1", "data must be a file path, got -1"),
    ("realworld.data=1", "data must be a file path, got 1"),
    ("realworld.samples=100001", "samples must be <= 100000"),
])
def test_run_rejects_bad_value_with_one_line(tmp_path, capsys, setting, message):
    # ``setting`` holds one --set value, or several separated by spaces
    study = setting.split(".", 1)[0]
    sets = [arg for value in setting.split(" ") for arg in ("--set", value)]
    assert run_cli(
        "run", study, "--out", str(tmp_path), "--workers", "1", *sets,
    ) == EXIT_USAGE
    assert message in _usage_error_line(capsys)
    assert not any(tmp_path.iterdir())


BOUNDARY_VALUES = ("0", "-1", "1", "nan", "inf", "-inf", "1e308", "", "none", "true", "abc")
# small enough that every case runs in well under a second
STUDY_SIZES = {
    "heatmap": {"samples_per_cell": 20},
    "variance": {"runs": 3, "node_count": 20, "samples_per_cell": 20},
    "decentralized": {"light_nodes": 5, "rounds": 3},
    "realworld": {"samples": 5, "max_adversaries": 3},
    "mixer": {"participants": 200, "max_chain": 3},
    "mitigations": {"baseline_rounds": 2, "scaling_rounds": 2, "light_nodes": 5},
    "custom": {"light_node_count": 5, "rounds": 3},
}
SIZE_CAPS = {
    "runs": 5, "node_count": 60, "samples_per_cell": 50, "light_nodes": 10,
    "rounds": 5, "samples": 10, "participants": 500, "max_chain": 10,
    "baseline_nodes": 100, "baseline_rounds": 5, "scaling_rounds": 5,
    "proxy_light_nodes": 10, "full_node_count": 50, "light_node_count": 10,
    "bootstrap_tips": 20, "proxy_count": 5, "cluster_count": 5,
}


def test_every_study_returns_the_experiment_result_its_function_built(monkeypatch):
    for name, study in STUDIES.items():
        function, built = getattr(experiments, study.function), []

        @functools.wraps(function)  # keeps the signature the registry reads
        def spy(*args, _function=function, _built=built, **kwargs):
            _built.append(_function(*args, **kwargs))
            return _built[-1]

        monkeypatch.setattr(experiments, study.function, spy)
        result = study.run(STUDY_SIZES[name], seed=5)
        assert len(built) == 1 and isinstance(built[0], ExperimentResult), name
        assert result is built[0], name
        if name == "heatmap":
            assert result.params == {**study.defaults(), **STUDY_SIZES[name],
                                     "rng_scheme": experiments.CELL_RNG_SCHEME}
            assert result.params["require_local_adversary"] is None


def _capped(key: str, value: str) -> str:
    try:
        too_big = float(value) > SIZE_CAPS[key]
    except (KeyError, ValueError):
        return value
    return str(SIZE_CAPS[key]) if too_big else value


def test_spatial_keys_run_or_fail_with_one_line():
    """Every key of every study, at every boundary value, either runs
    silently or exits 1 with one error line that names the key."""
    for study, sizes in STUDY_SIZES.items():
        for key in sorted(STUDIES[study].defaults()):
            for value in BOUNDARY_VALUES:
                sets = [f"{study}.{name}={size}" for name, size in sizes.items()]
                sets.append(f"{study}.{key}={_capped(key, value)}")
                case = (study, key, value)
                out, err = io.StringIO(), io.StringIO()
                with tempfile.TemporaryDirectory() as out_dir, \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["run", study, "--workers", "1", "--out", out_dir]
                                + [arg for setting in sets for arg in ("--set", setting)])
                err = err.getvalue()
                assert "Traceback" not in err, (case, err)
                if code == EXIT_OK:
                    assert err == "", (case, err)
                else:
                    assert code == EXIT_USAGE, (case, code)
                    assert err.startswith("tipleak: error: "), (case, err)
                    assert err.count("\n") == 1 and key in err, (case, err)


ROOT = Path(__file__).resolve().parent.parent


def _fresh_run(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A new interpreter, run with ``args``, that imports this checkout's
    package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def _fresh_python(*args: str) -> str:
    """The standard output of :func:`_fresh_run`, which must exit 0."""
    done = _fresh_run(*args)
    done.check_returncode()
    return done.stdout


def test_import_leaves_scipy_unloaded():
    # scipy.stats costs about a second to import, and no study uses it
    probe = "import sys, tipleak, tipleak.cli; print('scipy' in sys.modules)"
    assert _fresh_python("-c", probe).strip() == "False"


def test_import_leaves_numpy_unloaded():
    # numpy costs most of a fresh import; only run and validate need it
    probe = "import sys, tipleak, tipleak.cli; print('numpy' in sys.modules)"
    assert _fresh_python("-c", probe).strip() == "False"


def test_analytic_leaves_numpy_unloaded():
    probe = ("import sys; from tipleak.cli import main; "
             "main(['analytic', 'deanon', '--n', '100', '--c', '10', '--m', '3']); "
             "print('numpy' in sys.modules)")
    assert _fresh_python("-c", probe).splitlines() == ["0.100000", "False"]


def test_package_names_resolve_on_first_use():
    import tipleak
    from tipleak.network import SimConfig
    assert tipleak.SimConfig is SimConfig
    assert tipleak.__version__ == tipleak.TOOL_VERSION
    assert set(tipleak.__all__) <= set(dir(tipleak))
    with pytest.raises(AttributeError, match="no_such_name"):
        tipleak.no_such_name


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures.process (and multiprocessing) cost about 17 ms of a
    # fresh import; only a pool of two or more workers needs them
    probe = ("import sys, tipleak, tipleak.cli; "
             "print('concurrent.futures.process' in sys.modules)")
    assert _fresh_python("-c", probe).strip() == "False"


def test_every_public_name_imports():
    # ``from tipleak import *`` fails on a name ``__all__`` lists and the
    # package no longer has
    import tipleak
    namespace: dict = {}
    exec("from tipleak import *", namespace)
    assert set(tipleak.__all__) <= set(namespace)
    assert len(set(tipleak.__all__)) == len(tipleak.__all__)


def test_run_variance_leaves_scipy_unloaded(tmp_path):
    # the variance study's Spearman test is computed without scipy
    probe = ("import sys; from tipleak.cli import main; "
             f"code = main(['run', 'variance', '--set', 'variance.runs=3', "
             f"'--out', {str(tmp_path)!r}]); "
             "print(code, 'scipy' in sys.modules)")
    assert _fresh_python("-c", probe).splitlines()[-1] == f"{EXIT_OK} False"
    assert (tmp_path / "variance_42.csv").exists()


@pytest.mark.parametrize("script, args", [
    ("run_all_experiments", ("--fast", "--seed", str(2**63))),
    ("run_all_experiments", ("--workers", "two")),
    ("attack_demo", ("--seed", str(2**63))),
    ("attack_demo", ("--wallets", "0")),
    ("attack_demo", ("--full-nodes", "0")),
    ("attack_demo", ("--adversaries", "30")),
    ("attack_demo", ("--rounds", "x")),
    ("attack_demo", ("--rounds", "3000000000")),
])
def test_scripts_refuse_bad_input_with_one_line(tmp_path, script, args):
    # README: exit codes everywhere are 0 success, 1 usage or invalid
    # parameters, and a usage error names the flag at fault
    done = _fresh_run(str(ROOT / "scripts" / f"{script}.py"), *args, cwd=tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(f"{script}.py: error: "), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert args[-2] in done.stderr, done.stderr
    assert not any(tmp_path.iterdir())  # the battery writes no file


def test_battery_refuses_an_unwritable_out_with_one_line(tmp_path):
    # `tipleak run` prints one line for an --out it cannot write; so does the battery
    (tmp_path / "file").write_text("")
    done = _fresh_run(str(ROOT / "scripts" / "run_all_experiments.py"), "--fast",
                      "--out", str(tmp_path / "file" / "x"))
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("run_all_experiments.py: error: cannot write to --out: ")
    assert done.stderr.count("\n") == 1, done.stderr


def test_run_rejects_nonpositive_workers(tmp_path, capsys):
    assert run_cli(
        "run", "mixer", "--out", str(tmp_path), "--workers", "0",
    ) == EXIT_USAGE
    assert "--workers must be >= 1" in _usage_error_line(capsys)


def test_tuple_keys_parse_as_comma_separated():
    merged = resolve_overrides("mixer", None, ["p_values=0.1, 0.2,", "max_chain=3"])
    assert merged["mixer"] == {"p_values": (0.1, 0.2), "max_chain": 3}
    assert resolve_overrides("mixer", None, ["p_values=1"])["mixer"] == {
        "p_values": (1.0,)
    }


def test_run_help_lists_every_key_with_its_default(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("run", "--help")
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "mixer: p_values=0.05,0.1,0.2 max_chain=5 participants=100000" in out
    assert "data=none" in out and "bootstrap_tips=0" in out


def _help(parser, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as info:
        parser.parse_args(argv + ["--help"])
    assert info.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [
    ["analytic"], ["run"], ["validate"], *(["analytic", op] for op in ANALYTIC_FLAGS),
], ids=" ".join)
def test_one_command_parser_prints_the_full_parsers_help(argv):
    # a call builds only the parser of the command it names
    full, alone = build_parser(), build_parser(argv[0])
    assert _help(alone, argv) == _help(full, argv)
    assert _help(alone, []) == _help(full, [])


def test_analytic_help_shows_each_flags_value_as_typed():
    # a flag's value reads as the flag in capitals, or as its choices; not
    # as the parameter it sets
    choices = {"mixer-expected": "{raw,normalized}", "takeover": "{takeover,add,collude}"}
    for op, flags in ANALYTIC_FLAGS.items():
        text = _help(build_parser(), ["analytic", op])
        for flag in flags:
            value = choices[op] if flag == "--mode" else flag[2:].upper()
            assert f"  {flag} {value}" in text, (op, flag, text)


@pytest.mark.parametrize("argv, line", [
    ([], "tipleak: error: the following arguments are required: command"),
    (["run"], "tipleak run: error: the following arguments are required: experiment"),
    (["bogus"], None),  # argparse's quoting of the choices varies by version
    (["run", "x", "--bad"], "tipleak: error: unrecognized arguments: --bad"),
    (["analytic", "deanon"], "tipleak analytic deanon: error: the following "
                             "arguments are required: --n, --c"),
], ids=["no-arguments", "run", "bogus", "run-bad-flag", "analytic-deanon"])
def test_usage_errors_read_as_from_the_full_parser(argv, line):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == EXIT_USAGE
    assert _exit_and_stderr(argv) == (EXIT_USAGE, err.getvalue())
    if line is not None:
        assert err.getvalue() == f"{line} (see --help)\n"


def _outcome(call, argv) -> tuple[object, str, str]:
    """Exit code (or return value), stdout and stderr of ``call(argv)``:
    :func:`_exit_and_stderr` for any call, with its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as info:
            code = info.code
    return code, out.getvalue(), err.getvalue()


def _fresh_parse(argv):
    return build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["--help"], ["run", "--help"], ["validate", "--help"],
    *(["analytic", op, "--help"] for op in ANALYTIC_FLAGS),
    [], ["run"], ["bogus"], ["run", "x", "--bad"], ["analytic", "deanon"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_reads_as_a_fresh_parser_on_every_call(argv):
    # main keeps one parser per command and process: each call prints and
    # exits as a parser built for it does
    want = _outcome(_fresh_parse, argv)
    assert want[0] in (0, EXIT_USAGE) and want[1] + want[2]
    assert _outcome(main, argv) == want
    assert _outcome(main, argv) == want


def test_main_carries_nothing_over_between_calls(tmp_path, monkeypatch):
    seen = []
    help_text, add_parser, handler = cli._COMMANDS["run"]

    def recorded(args):
        seen.append(args)
        return handler(args)

    monkeypatch.setitem(cli._COMMANDS, "run", (help_text, add_parser, recorded))
    small = ["--seed", "5", "--set", "participants=500", "--set", "p_values=0.1"]
    assert main(["run", "mixer", "--format", "structured", "--out", str(tmp_path / "a"),
                 *small]) == EXIT_OK
    assert main(["run", "mixer", "--out", str(tmp_path / "b"), *small]) == EXIT_OK
    # an unknown study is refused before anything runs
    assert _outcome(main, ["run", "bogus", "--out", str(tmp_path / "c")])[0] == EXIT_USAGE
    assert [(args.format, args.set) for args in seen] == [
        ("structured", small[3::2]), ("csv", small[3::2]), ("csv", None)]
    assert [path.name for path in (tmp_path / "a").iterdir()] == ["mixer_5.json"]
    assert [path.name for path in (tmp_path / "b").iterdir()] == ["mixer_5.csv"]
    assert not (tmp_path / "c").exists()


def test_main_wraps_help_at_each_calls_width(monkeypatch):
    helps = []
    for columns in ("60", "140", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["run", "--help"], ["analytic", "takeover", "--help"]):
            want = _outcome(_fresh_parse, argv)
            assert _outcome(main, argv) == want
            helps.append(want)
    assert helps[:2] == helps[4:] and helps[:2] != helps[2:4]


def test_module_entry_point_prints_the_in_process_run_help(monkeypatch):
    # ``main()`` without arguments reads the command line itself; both
    # processes wrap the help at the width COLUMNS gives
    monkeypatch.setenv("COLUMNS", "100")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(["run", "--help"])
    assert _fresh_python("-m", "tipleak.cli", "run", "--help") == out.getvalue()


def test_mixer_refuses_a_table_above_its_cap_at_once(tmp_path):
    start = time.perf_counter()
    code, err = _exit_and_stderr(["run", "mixer", "--out", str(tmp_path),
                                  "--set", "mixer.max_chain=100001"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (EXIT_USAGE, "tipleak: error: max_chain must be <= 100000\n")
    assert not any(tmp_path.iterdir())


def test_run_unwritable_out_dir(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    assert run_cli(
        "run", "mixer", "--seed", "5", "--out", str(blocked / "sub"),
        "--set", "participants=500", "--set", "p_values=0.1",
    ) == EXIT_USAGE


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------

def test_validate_passes_on_fresh_build(capsys):
    assert run_cli("validate") == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 10


def test_validate_only_filter(capsys):
    assert run_cli("validate", "--only", "analytic") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert run_cli("validate", "--only", "nosuchcheck") == EXIT_USAGE


def test_validate_tampered_data_fails(tmp_path, capsys):
    doc = {
        "snapshot": "2020",
        "regions": {
            "africa": 1, "asia": 6, "europe": 30,
            "north_america": 9, "south_america": 1,
        },
    }
    tampered = tmp_path / "regions.json"
    tampered.write_text(json.dumps(doc))
    code = run_cli(
        "validate", "--only", "realworld",
        "--set", f"realworld.data={tampered}",
    )
    assert code == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL realworld-data" in out


def test_validate_numeric_data_fails_without_touching_descriptors(capsys):
    # data=1 would otherwise be opened, and closed, as file descriptor 1
    code = run_cli("validate", "--only", "realworld", "--set", "realworld.data=1")
    assert code == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert out == "FAIL realworld-data: ConfigError: data must be a file path, got 1\n"


@pytest.mark.parametrize("setting", ["heatmap.radius=2", "realworld.samples=5"])
def test_validate_refuses_a_key_it_does_not_read(capsys, setting):
    assert run_cli("validate", "--only", "realworld", "--set", setting) == EXIT_USAGE
    captured = capsys.readouterr()
    key = setting.split("=")[0]
    assert captured.err == f"tipleak: error: validate reads only realworld.data, got {key}\n"
    assert captured.out == ""  # no check ran


@pytest.mark.parametrize("case", [
    "missing", "empty", "not-json", "json-list", "negative-count", "not-utf8", "directory",
])
def test_validate_bad_data_file_fails_with_one_line(tmp_path, capsys, case):
    path = tmp_path / "regions.json"
    contents = {
        "empty": b"",
        "not-json": b"{not json",
        "json-list": b"[1, 2]",
        "negative-count": b'{"regions": {"eu": -3, "na": 3}}',
        "not-utf8": b"\xff\xfe not utf-8",
    }
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_bytes(contents[case])
    code = run_cli("validate", "--only", "realworld", "--set", f"realworld.data={path}")
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out.startswith("FAIL realworld-data: ConfigError: ")
    assert captured.out.count("\n") == 1, captured.out
    assert "Traceback" not in captured.err, captured.err
