import gc
import json
import subprocess
import sys
import weakref

import numpy as np
import pytest

from qfock import fock, quantize, reports, wick
from qfock import spaces as sp
from qfock.fock import FockContext
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
    for spectrum in ("t0", "b1e400"):  # parse, but realize no space
        with pytest.raises(ValueError, match=repr(spectrum)):
            SweepConfig(spectra=(spectrum,))
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


@pytest.mark.parametrize("suite", ["quantization", "all"])
def test_contexts_die_with_their_grid_point(monkeypatch, suite):
    # one spectrum and distinct q values, so a context's q names its grid point
    built = []  # (q, weak reference) of every context the run builds
    stale = []  # q values of earlier points' contexts alive at a new build
    peak = 0

    class Recorded(FockContext):
        def __init__(self, space, q, degree):
            nonlocal peak
            gc.collect()
            live = [q_built for q_built, ref in built if ref() is not None]
            stale.extend(q_built for q_built in live if q_built != q)
            peak = max(peak, len(live) + 1)
            super().__init__(space, q, degree)
            built.append((self.q, weakref.ref(self)))

    monkeypatch.setattr(reports, "FockContext", Recorded)
    run_suite(small_config(q_values=(0.5, -0.5, 0.3)), suite)
    assert len(built) >= 6 and not stale
    assert peak <= 3  # one point's set: main, combined and subspace contexts


def test_all_suites_equal_single_suite_runs():
    cfg = small_config(q_values=(0.5, -0.5))

    def records(reps):
        return [(r.check, r.params, r.residual, r.bound, r.passed) for r in reps]

    singles = {suite: records(run_suite(cfg, suite)) for suite in reports.SUITES}
    for selection in ("all", ("quantization", "symmetrizer"), ("toeplitz",)):
        names = reports.SUITES if selection == "all" else selection
        assert records(run_suite(cfg, selection)) == [rec for s in names for rec in singles[s]]


def test_unknown_suite_rejected():
    for selection in ("nope", ("wick", "nope"), ("wick", "wick"), (), ("all",)):
        with pytest.raises(ValueError):
            run_suite(small_config(), selection)


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
    for spectrum in ("t0", "b1e400"):
        bad = run_cli(["--dim-spec", spectrum, "--out", str(tmp_path / "x.json")])
        assert bad.returncode == 2
        assert bad.stderr.count("\n") == 1 and repr(spectrum) in bad.stderr
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


def test_public_names_resolve():
    import qfock
    for name in qfock.__all__:
        getattr(qfock, name)


def test_benchmark_layer_names_resolve():
    # a per-layer metric is <module>.<name>.<field>, named as the benchmark's
    # trace names spans: a public function, a class (its constructor), a
    # public method, or Class.method where two share a name; `matmul` is `@`.
    # Two-part names (reports.<suite>_s, trace.*) are the harness's own.
    import inspect
    from pathlib import Path

    import qfock
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

    def resolves(module, name):
        if "." in name:
            cls_name, attr = name.split(".")
            return inspect.isclass(getattr(module, cls_name, None)) \
                and inspect.isfunction(getattr(getattr(module, cls_name), attr, None))
        if name.startswith("_"):
            return False
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            return True
        attr = "__matmul__" if name == "matmul" else name
        return any(inspect.isfunction(vars(cls).get(attr))
                   for cls in vars(module).values()
                   if inspect.isclass(cls) and cls.__module__ == module.__name__)

    layers = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
              if m["name"].count(".") == 2}
    assert layers
    unresolved = sorted(layer for layer in layers
                        if not resolves(getattr(qfock, layer.split(".")[0]),
                                        layer.split(".", 1)[1]))
    assert unresolved == []


def test_no_cache_pins_a_context(monkeypatch):
    # the module-level caches (c_constant by q, R* partition orders) hold
    # numbers and tuples only: every context dies once its users let go
    refs = []

    class Recorded(FockContext):
        def __init__(self, space, q, degree):
            super().__init__(space, q, degree)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(reports, "FockContext", Recorded)
    run_suite(SweepConfig(q_values=(0.5,), spectra=("t1",), degree=4), "all")
    gc.collect()
    assert len(refs) >= 2 and all(ref() is None for ref in refs)

    space = sp.build_space(parse_spectrum("b2+t1"))
    ctx = FockContext(space, 0.5, 3)
    comb_ctx = FockContext(sp.direct_sum(space, space), 0.5, 3)
    refs = [weakref.ref(ctx), weakref.ref(comb_ctx)]
    gen = np.random.default_rng(916)
    assert not ctx.partner_map(2).flags.writeable and not ctx._reverse_map(2).flags.writeable
    fock.c_constant(ctx.q)
    word = wick.wick_word(ctx, gen.standard_normal(9) + 1j * gen.standard_normal(9), 2)
    channel = quantize.QuantizationChannel(sp.random_jti_contraction(gen, space, space),
                                           ctx, ctx, comb_ctx)
    channel.covariance_residual(word, channel.apply_word(word))
    channel.unitality_residual()
    del ctx, comb_ctx, word, channel
    gc.collect()
    assert all(ref() is None for ref in refs)
