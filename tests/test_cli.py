import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsc_codec
from dsc_codec import load_feature_map, load_scenario
from dsc_codec import cli
from dsc_codec.cli import cli_dispatch
from dsc_codec.pipeline import CSV_HEADER


SMALL_SCENARIO = """\
num_agents = 2
channels = 8
height = 32
width = 32
rho = 0.9
sigma_obs = 0.0
visibility_overlap = 1.0
alpha = 0.8
seed = 7
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SMALL_SCENARIO)
    return path


@pytest.fixture
def fitted_dir(tmp_path, scenario_file):
    out = tmp_path / "codec"
    status = cli_dispatch(
        [
            "fit",
            "--scenario", str(scenario_file),
            "--codebook-size", "16",
            "--embed-dim", "8",
            "--train-scenes", "2",
            "--out", str(out),
        ]
    )
    assert status == 0
    return out


def test_gen_writes_fixtures(tmp_path, scenario_file):
    out = tmp_path / "fixtures"
    assert cli_dispatch(["gen", "--scenario", str(scenario_file), "--t", "1", "--out", str(out)]) == 0
    cfg = load_scenario(out / "scenario.cfg")
    assert cfg.num_agents == 2
    for agent in range(2):
        f = load_feature_map(out / f"agent{agent}_t1.fmap")
        assert f.shape == (8, 32, 32)


def test_gen_seed_flag_overrides_scenario(tmp_path, scenario_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli_dispatch(["gen", "--scenario", str(scenario_file), "--seed", "99", "--out", str(out_a)])
    cli_dispatch(["gen", "--scenario", str(scenario_file), "--out", str(out_b)])
    fa = load_feature_map(out_a / "agent0_t0.fmap")
    fb = load_feature_map(out_b / "agent0_t0.fmap")
    assert not np.array_equal(fa.values, fb.values)


def test_dsc_seed_env_fallback(tmp_path, scenario_file, monkeypatch):
    out_env = tmp_path / "env"
    out_flag = tmp_path / "flag"
    monkeypatch.setenv("DSC_SEED", "123")
    cli_dispatch(["gen", "--scenario", str(scenario_file), "--out", str(out_env)])
    monkeypatch.delenv("DSC_SEED")
    cli_dispatch(["gen", "--scenario", str(scenario_file), "--seed", "123", "--out", str(out_flag)])
    a = (out_env / "agent0_t0.fmap").read_bytes()
    b = (out_flag / "agent0_t0.fmap").read_bytes()
    assert a == b


def test_encode_decode_roundtrip_smoke(tmp_path, scenario_file, fitted_dir):
    fixtures = tmp_path / "fixtures"
    cli_dispatch(["gen", "--scenario", str(scenario_file), "--out", str(fixtures)])
    msg_path = tmp_path / "link.msg"
    assert (
        cli_dispatch(
            [
                "encode",
                "--params", str(fitted_dir / "codec.dccp"),
                "--codebook", str(fitted_dir / "codebook.cdbk"),
                "--input", str(fixtures / "agent1_t0.fmap"),
                "--tau", "0.1",
                "--out", str(msg_path),
            ]
        )
        == 0
    )
    recon_path = tmp_path / "recon.fmap"
    assert (
        cli_dispatch(
            [
                "decode",
                "--params", str(fitted_dir / "codec.dccp"),
                "--codebook", str(fitted_dir / "codebook.cdbk"),
                "--input", str(msg_path),
                "--side-info", str(fixtures / "agent0_t0.fmap"),
                "--out", str(recon_path),
            ]
        )
        == 0
    )
    recon = load_feature_map(recon_path)
    assert recon.shape == (8, 32, 32)

    # Unconditional decode also works and differs from the conditional one.
    recon_u_path = tmp_path / "recon_u.fmap"
    assert (
        cli_dispatch(
            [
                "decode",
                "--params", str(fitted_dir / "codec.dccp"),
                "--codebook", str(fitted_dir / "codebook.cdbk"),
                "--input", str(msg_path),
                "--out", str(recon_u_path),
            ]
        )
        == 0
    )
    assert not np.array_equal(load_feature_map(recon_u_path).values, recon.values)


def test_encode_is_byte_deterministic(tmp_path, scenario_file, fitted_dir):
    fixtures = tmp_path / "fixtures"
    cli_dispatch(["gen", "--scenario", str(scenario_file), "--out", str(fixtures)])
    outs = []
    for name in ("m1.msg", "m2.msg"):
        path = tmp_path / name
        cli_dispatch(
            [
                "encode",
                "--params", str(fitted_dir / "codec.dccp"),
                "--codebook", str(fitted_dir / "codebook.cdbk"),
                "--input", str(fixtures / "agent1_t0.fmap"),
                "--out", str(path),
            ]
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_encode_rejects_negative_budget_before_reading_or_writing(tmp_path, monkeypatch, capsys):
    def no_read(*args, **kwargs):
        raise AssertionError("encode read its inputs before checking --budget")

    monkeypatch.setattr(cli, "load_codec_params", no_read)
    msg_path = tmp_path / "link.msg"
    status = cli_dispatch(
        [
            "encode",
            "--params", str(tmp_path / "codec.dccp"),
            "--codebook", str(tmp_path / "codebook.cdbk"),
            "--input", str(tmp_path / "agent1_t0.fmap"),
            "--budget", "-1",
            "--out", str(msg_path),
        ]
    )
    assert status == 1
    assert capsys.readouterr().err == "error: budget must be >= 0, got -1\n"
    assert not msg_path.exists()


def test_sweep_rd_csv_schema(tmp_path, scenario_file):
    csv_path = tmp_path / "rd.csv"
    status = cli_dispatch(
        [
            "sweep-rd",
            "--scenario", str(scenario_file),
            "--taus", "0,0.5",
            "--codebook-sizes", "8",
            "--embed-dim", "8",
            "--scenes", "1",
            "--train-scenes", "2",
            "--out", str(csv_path),
        ]
    )
    assert status == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_report_summarizes_csv(tmp_path, scenario_file, capsys):
    csv_path = tmp_path / "rd.csv"
    cli_dispatch(
        [
            "sweep-rd",
            "--scenario", str(scenario_file),
            "--taus", "0",
            "--codebook-sizes", "8",
            "--embed-dim", "8",
            "--scenes", "1",
            "--train-scenes", "2",
            "--out", str(csv_path),
        ]
    )
    capsys.readouterr()
    assert cli_dispatch(["report", "--input", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("K,D,conditional")


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_file_reports_diagnostic(tmp_path, capsys):
    status = cli_dispatch(
        [
            "decode",
            "--params", str(tmp_path / "nope.dccp"),
            "--codebook", str(tmp_path / "nope.cdbk"),
            "--input", str(tmp_path / "nope.msg"),
            "--out", str(tmp_path / "out.fmap"),
        ]
    )
    assert status == 1
    assert "error" in capsys.readouterr().err


def test_non_ascii_scenario_file_exits_1(tmp_path, capsys):
    scenario = tmp_path / "latin1.cfg"
    scenario.write_bytes(b"rho = 0.5 \xe9\n")
    status = cli_dispatch(["gen", "--scenario", str(scenario), "--out", str(tmp_path / "x")])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "latin1.cfg:1: non-ASCII byte 0xe9" in err


def test_bad_env_seed_reports_diagnostic(tmp_path, scenario_file, monkeypatch, capsys):
    monkeypatch.setenv("DSC_SEED", "not-an-int")
    status = cli_dispatch(["gen", "--scenario", str(scenario_file), "--out", str(tmp_path / "x")])
    assert status == 1
    assert "DSC_SEED" in capsys.readouterr().err


def test_sweep_robust_rejects_negative_sigma(tmp_path, scenario_file, capsys):
    out = tmp_path / "robust.csv"
    for sigmas in ("--sigmas=0,-1", "--sigmas=0,inf"):
        status = cli_dispatch(
            [
                "sweep-robust", "--scenario", str(scenario_file), sigmas,
                "--delays", "0", "--codebook-size", "8", "--embed-dim", "8",
                "--scenes", "1", "--train-scenes", "2", "--out", str(out),
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "sigma_pose must be finite and >= 0" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "flag, detail",
    [
        ("--sigmas=0,-1", "sigma_pose must be finite and >= 0"),
        ("--tau=1.5", "tau must be in [0,1]"),
        ("--scenes=0", "scenes must be >= 1"),
    ],
)
def test_sweep_robust_rejects_a_bad_grid_before_fitting(
    tmp_path, scenario_file, monkeypatch, capsys, flag, detail
):
    def no_fit(*args, **kwargs):
        raise AssertionError("the codec was fitted before the grid was checked")

    monkeypatch.setattr(cli, "fit_codec", no_fit)
    out = tmp_path / "robust.csv"
    status = cli_dispatch(
        ["sweep-robust", "--scenario", str(scenario_file), flag, "--out", str(out)]
    )
    assert status == 1
    assert detail in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rd_rejects_out_of_range_tau(tmp_path, scenario_file, capsys):
    out = tmp_path / "rd.csv"
    status = cli_dispatch(
        [
            "sweep-rd", "--scenario", str(scenario_file), "--taus=0,1.5",
            "--codebook-sizes", "8", "--embed-dim", "8",
            "--scenes", "1", "--train-scenes", "2", "--out", str(out),
        ]
    )
    assert status == 1
    assert "tau must be in [0,1]" in capsys.readouterr().err
    assert not out.exists()


def _write_report_csv(path, row: bytes) -> None:
    good = b"0.5,8,8,0.9,0,0,100.0,0.25,0.125,1,7,1"
    path.write_bytes(CSV_HEADER.encode("ascii") + b"\n" + good + b"\n" + row + b"\n")


@pytest.mark.parametrize(
    "row, detail",
    [
        (b"0.5,8,8,0.9,0,0,abc,0.25,0.125,1,7,1", "could not convert string to float: 'abc'"),
        (b"0.5,8,8,0.9,0,0,100.0,0.25,0.125,1,7,\xe9", "non-ASCII byte 0xe9"),
    ],
)
def test_report_rejects_malformed_csv_line(tmp_path, capsys, row, detail):
    csv_path = tmp_path / "bad.csv"
    _write_report_csv(csv_path, row)
    assert cli_dispatch(["report", "--input", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}:3: ")
    assert detail in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-robust", "--delays=1.5", "--sigmas", "0"],
        ["sweep-rd", "--taus=a", "--codebook-sizes", "8"],
    ],
)
def test_malformed_list_flag_is_usage_error_before_any_work(
    tmp_path, scenario_file, monkeypatch, capsys, argv
):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started before its flags were parsed")

    monkeypatch.setattr(cli, "fit_codec", no_work)
    monkeypatch.setattr(cli, "rd_sweep", no_work)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(argv + ["--scenario", str(scenario_file), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert "expected comma-separated" in err
    assert not out.exists()


def test_cli_import_loads_numpy_but_no_scipy():
    # The runtime needs numpy only; scipy is the tests' reference.
    src = str(Path(dsc_codec.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = (
        "import sys, dsc_codec.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))\n"
        "print(sys.modules['dsc_codec'].__file__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded, where = proc.stdout.splitlines()
    assert loaded == "['numpy']"
    assert Path(where).resolve() == Path(dsc_codec.__file__).resolve()


def _readme_walkthrough() -> list[list[str]]:
    """The commands of the sh block under "CLI walkthrough" in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch):
    commands = _readme_walkthrough()
    assert {"gen", "fit", "encode", "decode"} <= {argv[1] for argv in commands}
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DSC_SEED", raising=False)
    for argv in commands:
        assert argv[0] == "dsc-codec"
        assert cli_dispatch(argv[1:]) == 0, shlex.join(argv)
