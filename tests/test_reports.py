import json
import subprocess
import sys

import pytest

from qfock import reports
from qfock.reports import SweepConfig, parse_spectrum, run_suite


def small_config(**kw):
    defaults = dict(q_values=(0.5,), spectra=("t2",), degree=3, seed=7,
                    samples={"wick_vacuum": 5, "covariance": 3,
                             "kadison_schwarz": 4, "functoriality": 1,
                             "dilate": 3, "balanced": 1, "state_preservation": 2})
    defaults.update(kw)
    return SweepConfig(**defaults)


def test_parse_spectrum_grammar():
    spec = parse_spectrum("b2x2+t1")
    assert spec.blocks == [(2.0, 2)] and spec.trivial == 1
    assert parse_spectrum("t3").dim == 3
    with pytest.raises(ValueError):
        parse_spectrum("z4")
    with pytest.raises(ValueError):
        parse_spectrum("b2+")


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        SweepConfig(q_values=(1.5,))
    with pytest.raises(ValueError):
        SweepConfig(degree=9)
    path = tmp_path / "cfg.json"
    path.write_text('{"q_values": [0.5], "spectra": ["t2"], "degree": 3}')
    cfg = SweepConfig.from_file(str(path))
    assert cfg.q_values == (0.5,) and cfg.degree == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"q_values": [0.5],}')
    with pytest.raises(ValueError) as err:
        SweepConfig.from_file(str(bad))
    assert ":" in str(err.value)  # line/column reported
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"qq": 1}')
    with pytest.raises(ValueError):
        SweepConfig.from_file(str(unknown))
    for field, value in (("degree", "x"), ("degree", True), ("spectra", "b2"),
                         ("q_values", ["a"]), ("seed", 1.5),
                         ("samples", {"dilate": "x"}), ("tolerances", [1e-9]),
                         ("samples", {"kadison_shwarz": 5}), ("tolerances", {"strnog": 1e-6})):
        with pytest.raises(ValueError, match=repr(field)):
            SweepConfig(**{field: value})
    with pytest.raises(ValueError, match="kadison_shwarz"):  # a typo used to run the default
        SweepConfig(samples={"kadison_shwarz": 5})
    with pytest.raises(ValueError, match="sample counts"):
        SweepConfig(samples={"covariance": 0})  # would pass its checks vacuously
    not_object = tmp_path / "list.json"
    not_object.write_text('[1, 2]')
    with pytest.raises(ValueError, match="JSON object"):
        SweepConfig.from_file(str(not_object))


@pytest.mark.parametrize("suite", reports.SUITES)
def test_run_suite_deterministic(suite):
    cfg = small_config()
    a = run_suite(cfg, suite)
    b = run_suite(cfg, suite)
    assert [(r.check, r.residual, r.passed) for r in a] \
        == [(r.check, r.residual, r.passed) for r in b]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(small_config(), "nope")


def test_render_round_trip(tmp_path):
    reps = run_suite(small_config(), "symmetrizer")
    path = tmp_path / "out.json"
    reports.emit(reps, "json", str(path))
    back = reports.load_reports(str(path))
    assert len(back) == len(reps)
    for orig, loaded in zip(reps, back):
        assert loaded.check == orig.check
        assert loaded.passed == orig.passed
        # 15 significant digits round-trip to within one ulp at that precision
        assert abs(loaded.residual - orig.residual) <= 1e-14 * max(abs(orig.residual), 1.0)
    assert all(r.wall_time == 0.0 for r in back)  # timing excluded by default


def test_render_excludes_timing_by_default():
    reps = run_suite(small_config(), "symmetrizer")
    text = reports.render(reps, "json")
    assert "wall_time" not in text
    assert "wall_time" in reports.render(reps, "json", include_timing=True)


def test_csv_format(tmp_path):
    reps = run_suite(small_config(), "symmetrizer")
    path = tmp_path / "out.csv"
    reports.emit(reps, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "check,params,residual,bound,passed"
    assert len(lines) == len(reps) + 1


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "qfock.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_cli_byte_determinism(tmp_path):
    args = ["--suite", "symmetrizer", "--q", "0.5", "--dim-spec", "t2",
            "--degree", "3", "--quiet"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]).returncode == 0
    assert run_cli(args + ["--out", str(b)]).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_exit_codes(tmp_path):
    ok = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                  "--degree", "3", "--quiet", "--out", str(tmp_path / "ok.json")])
    assert ok.returncode == 0
    # the haagerup suite contains the known-red strong-convergence check
    red = run_cli(["--suite", "haagerup", "--q", "0.0", "--dim-spec", "t1",
                   "--degree", "3", "--quiet", "--out", str(tmp_path / "red.json")])
    assert red.returncode == 1
    bad = run_cli(["--q", "2.0", "--out", str(tmp_path / "x.json")])
    assert bad.returncode == 2
    # config and IO errors exit 2 with one line on stderr, before any check runs
    for name, config in (("degree", {"degree": "x"}), ("spectra", {"spectra": "b2"}),
                         ("samples", {"samples": {"kadison_shwarz": 5}})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        bad = run_cli(["--config", str(path), "--out", str(tmp_path / "x.json")])
        assert bad.returncode == 2
        assert bad.stderr.count("\n") == 1 and repr(name) in bad.stderr
    missing = tmp_path / "missing" / "x.json"
    bad = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                   "--degree", "3", "--out", str(missing)])
    assert bad.returncode == 2
    assert bad.stderr.count("\n") == 1 and "does not exist" in bad.stderr
    assert bad.stdout == "" and not missing.parent.exists()


def test_cli_env_out_dir(tmp_path):
    import os
    env = dict(os.environ, QFOCK_OUT_DIR=str(tmp_path))
    res = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                   "--degree", "3", "--quiet"], env=env)
    assert res.returncode == 0
    assert (tmp_path / "reports.json").exists()
    env = dict(os.environ, QFOCK_OUT_DIR=str(tmp_path / "missing"))
    res = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                   "--degree", "3", "--quiet"], env=env)
    assert res.returncode == 2 and "does not exist" in res.stderr
    assert not (tmp_path / "missing").exists()


def test_cli_summary_lines(tmp_path):
    res = run_cli(["--suite", "symmetrizer", "--q", "0.3", "--dim-spec", "t1",
                   "--degree", "3", "--out", str(tmp_path / "s.json")])
    assert "PASS symmetrizer/positivity" in res.stdout
    assert "checks passed" in res.stdout


def test_config_file_through_cli(tmp_path):
    cfg = {"q_values": [0.5], "spectra": ["t2"], "degree": 3, "seed": 11}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["--config", str(path), "--suite", "wick", "--quiet",
                   "--out", str(tmp_path / "w.json")])
    assert res.returncode == 0
    payload = json.loads((tmp_path / "w.json").read_text())
    assert all(rec["params"]["q"] == 0.5 for rec in payload["reports"])
