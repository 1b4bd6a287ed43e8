"""Command-line behavior: files, formats, exit codes, and replay."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import rgg_spectra
from oracles import lemma4_matrix_terms
from rgg_spectra import cli, harness
from rgg_spectra.cli import build_parser, main
from rgg_spectra.dgg import dgg_eigenvalues_dft
from rgg_spectra.geometry import INFINITY, sample_uniform
from rgg_spectra.graph import build_adjacency
from rgg_spectra.matching import bottleneck_matching

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _run(argv):
    return main([str(a) for a in argv])


def test_generate_writes_ring_edges(tmp_path):
    out = tmp_path / "gen"
    assert _run(["generate", "--N", 4, "--d", 1, "--p", "inf", "--r", 0.25, "--out", out]) == 0
    edges = (out / "edges.txt").read_text()
    assert edges == "0 1\n0 3\n1 2\n2 3\n"
    points = (out / "points.csv").read_text().splitlines()
    assert points[0] == "x1"
    assert len(points) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["args"]["p"] == "inf"
    assert "versions" in manifest and "created_utc" in manifest


def test_generate_grid_at_a_tie_radius_writes_the_regular_lattice(tmp_path):
    # r = 6/24 is a tie under l2: the grid's edges come from the lattice's
    # offset band, as in `spectrum --dgg` and `bounds`, not from the double
    # grid coordinates, whose rounding drops some edges at the tie.
    out = tmp_path / "gen"
    assert _run(["generate", "--N", 24, "--d", 2, "--p", 2, "--r", 0.25, "--out", out]) == 0
    pairs = np.loadtxt(out / "edges.txt", dtype=int)
    degrees = np.bincount(pairs.ravel(), minlength=24 * 24)
    assert degrees.min() == degrees.max() == 112


def test_generate_refuses_a_dense_adjacency_before_sampling(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the points were sampled before the byte budget was checked")

    monkeypatch.setattr(cli, "sample_uniform", refuse)
    assert _run(["generate", "--n", 40000, "--d", 1, "--r", 0.01, "--out", tmp_path]) == 1
    assert "MAX_PAIRWISE_BYTES" in capsys.readouterr().err


def test_generate_missing_radius_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        _run(["generate", "--N", 4, "--d", 1, "--out", tmp_path])
    assert excinfo.value.code == 2


def test_generate_rejects_both_sizes(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        _run(["generate", "--N", 4, "--n", 9, "--d", 1, "--r", 0.2, "--out", tmp_path])
    assert excinfo.value.code == 2


def test_generate_same_flags_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run(["generate", "--n", 30, "--d", 2, "--p", 2, "--r", 0.3, "--seed", 5, "--out", out]) == 0
    assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()
    assert (a / "edges.txt").read_bytes() == (b / "edges.txt").read_bytes()


def test_spectrum_closed_form_ring(tmp_path):
    out = tmp_path / "sp"
    assert _run(["spectrum", "--dgg", "4,1", "--r", 0.25, "--out", out]) == 0
    rows = (out / "eigenvalues.csv").read_text().splitlines()
    assert rows[0] == "eigenvalue"
    values = np.array([float(v) for v in rows[1:]])
    assert np.allclose(values, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_spectrum_dgg_writes_the_dft_spectrum(tmp_path):
    """The .17g cells read back as the very doubles dgg_eigenvalues_dft returns;
    tests/test_dgg.py checks those against the closed form and an eigensolve.
    At 4,1,0.5 the cube wraps (2k+1 > N), the closed form does not apply, and
    the lattice is K4."""
    for N, d, r, p in ((6, 2, 0.2, "inf"), (24, 2, 0.25, "2"), (4, 1, 0.5, "inf")):
        out = tmp_path / f"{N}-{d}-{p}"
        assert _run(["spectrum", "--dgg", f"{N},{d}", "--r", r, "--p", p, "--out", out]) == 0
        written = np.loadtxt(out / "eigenvalues.csv", skiprows=1)
        expected = dgg_eigenvalues_dft(N, d, INFINITY if p == "inf" else float(p), r)
        assert written.tobytes() == expected.tobytes()
    assert np.allclose(written, [-1.0, -1.0, -1.0, 3.0], atol=1e-12)


def test_spectrum_from_points_file(tmp_path):
    gen = tmp_path / "gen"
    assert _run(["generate", "--n", 12, "--d", 2, "--p", 2, "--r", 0.3, "--seed", 1, "--out", gen]) == 0
    out = tmp_path / "sp"
    assert _run(["spectrum", "--input", gen / "points.csv", "--p", 2, "--r", 0.3, "--plot", "--out", out]) == 0
    rows = (out / "eigenvalues.csv").read_text().splitlines()
    assert len(rows) == 13
    assert (out / "cdf.svg").read_text().startswith("<svg ")


def test_spectrum_from_points_refuses_the_lattice_methods(tmp_path, capsys):
    """No --method is left to choose a route: the spectrum parser refuses it."""
    gen = tmp_path / "gen"
    assert _run(["generate", "--n", 12, "--d", 1, "--r", 0.3, "--out", gen]) == 0
    for method in ("dft", "closed", "eig"):
        with pytest.raises(SystemExit) as excinfo:
            _run(["spectrum", "--input", gen / "points.csv", "--method", method, "--r", 0.3, "--out", tmp_path / method])
        assert excinfo.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: rgg-spectra spectrum ")
        assert lines[-1] == f"rgg-spectra spectrum: error: unrecognized arguments: --method {method}"
        assert not (tmp_path / method).exists()


def _refuse_graph_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("the graph was built before its order was checked")

    for module, name in ((harness, "sample_uniform"), (harness, "build_adjacency"), (cli, "build_adjacency"), (cli, "lattice_graph")):
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--fig1", "--n", 6000],
        ["spectrum", "--input", "points.csv", "--r", 0.01],
    ],
    ids=["fig1", "input"],
)
def test_orders_past_the_eigensolver_ceiling_fail_before_the_graph_is_built(tmp_path, capsys, monkeypatch, argv):
    _refuse_graph_building(monkeypatch)
    (tmp_path / "points.csv").write_text("x1\n" + "".join(f"{i / 4097!r}\n" for i in range(4097)))
    argv = [tmp_path / arg if arg == "points.csv" else arg for arg in argv]
    assert _run(argv + ["--out", tmp_path / "out"]) == 1
    assert "exceeds the dense-eigensolver ceiling 4096" in capsys.readouterr().err


def test_lattice_spectra_past_the_eigensolver_ceiling_need_no_graph(tmp_path, monkeypatch):
    _refuse_graph_building(monkeypatch)
    for p in ("2", "inf"):
        out = tmp_path / p
        assert _run(["spectrum", "--dgg", "80,2", "--r", 0.05, "--p", p, "--out", out]) == 0
        assert len((out / "eigenvalues.csv").read_text().splitlines()) == 1 + 80 * 80


def test_spectrum_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1\n0.5\noops\n")
    rc = _run(["spectrum", "--input", bad, "--r", 0.2, "--out", tmp_path])
    assert rc == 2
    assert f"{bad}:3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message, code",
    [
        ("x1,x2\n0.1,0.2\n0.3,0.4,0.5\n", "{path}:3: expected 2 columns, got 3", 2),
        ("x1,x2\n\n", "parse error at {path}: no data rows", 2),
        ("x1\n0.1\nnan\n0.3\n", "coordinates must lie in [0, 1)", 1),
    ],
    ids=["wrong-width", "header-only", "nan-coordinate"],
)
def test_spectrum_points_file_errors(tmp_path, capsys, text, message, code):
    path = tmp_path / "points.csv"
    path.write_text(text)
    rc = _run(["spectrum", "--input", path, "--r", 0.2, "--out", tmp_path / "out"])
    assert rc == code
    assert message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("eigenvalue\n0.5\n\noops\n", "parse error at {path}:4"),
        ("eigenvalue,extra\n0.5,1.0\n-0.5,2.0\n", "one eigenvalue column each, got 2 and 1"),
    ],
    ids=["non-numeric", "two-columns"],
)
def test_compare_eigenvalue_file_errors(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    good = tmp_path / "good.csv"
    good.write_text("eigenvalue\n-1.0\n1.0\n")
    rc = _run(["compare", "--esd", path, good, "--out", tmp_path / "out"])
    assert rc == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "out" / "compare.json").exists()


def test_replay_reads_its_inputs_from_any_directory(tmp_path, monkeypatch):
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    assert _run(["generate", "--n", 12, "--d", 2, "--p", 2, "--r", 0.3, "--out", "gen"]) == 0
    assert _run(["spectrum", "--input", "gen/points.csv", "--p", 2, "--r", 0.3, "--plot", "--out", "sp"]) == 0
    argv = ["compare", "--esd", "sp/eigenvalues.csv", "sp/eigenvalues.csv", "--oracle", 0.01]
    assert _run(argv + ["--plot", "--out", "cmp"]) == 0
    monkeypatch.chdir(tmp_path / "elsewhere")
    for name, files in (("sp", ["eigenvalues.csv", "cdf.svg"]), ("cmp", ["compare.json", "cdf.svg"])):
        assert _run(["replay", "--manifest", tmp_path / name / "manifest.json", "--out", "replayed-" + name]) == 0
        for file in files:
            assert (tmp_path / name / file).read_bytes() == (Path("replayed-" + name) / file).read_bytes()


def test_bounds_and_spectrum_report_the_ceiling_alike(tmp_path, capsys):
    (tmp_path / "points.csv").write_text("x1\n" + "".join(f"{i / 6400!r}\n" for i in range(6400)))
    for argv, order in (
        (["bounds", "--N", 65, "--d", 2, "--r", 0.1, "--t", 1, "--trials", 1], 4225),
        (["spectrum", "--input", tmp_path / "points.csv", "--r", 0.01], 6400),
    ):
        assert _run(argv + ["--out", tmp_path / "out"]) == 1
        assert f"error: order {order} exceeds the dense-eigensolver ceiling 4096" in capsys.readouterr().err


def test_compare_identical_files(tmp_path, capsys):
    sp = tmp_path / "sp"
    assert _run(["spectrum", "--dgg", "8,1", "--r", 0.25, "--out", sp]) == 0
    out = tmp_path / "cmp"
    rc = _run(["compare", "--esd", sp / "eigenvalues.csv", sp / "eigenvalues.csv", "--oracle", "--out", out])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "levy = 0" in captured
    payload = json.loads((out / "compare.json").read_text())
    assert payload["levy"] == 0.0
    assert payload["trace_bound"] is None
    assert abs(payload["oracle"] - payload["levy"]) <= 2e-3


def _eigenvalue_files(tmp_path) -> tuple[Path, Path]:
    for name, r in (("a", 0.25), ("b", 0.4)):
        assert _run(["spectrum", "--dgg", "8,1", "--r", r, "--out", tmp_path / name]) == 0
    return tmp_path / "a" / "eigenvalues.csv", tmp_path / "b" / "eigenvalues.csv"


def test_compare_plots_in_file_mode(tmp_path):
    esd_a, esd_b = _eigenvalue_files(tmp_path)
    out = tmp_path / "cmp"
    assert _run(["compare", "--esd", esd_a, esd_b, "--plot", "--out", out]) == 0
    svg = (out / "cdf.svg").read_text()
    assert svg.startswith("<svg ") and svg.count("<path ") == 2
    replayed = tmp_path / "replayed"
    assert _run(["replay", "--manifest", out / "manifest.json", "--out", replayed]) == 0
    assert (replayed / "cdf.svg").read_bytes() == (out / "cdf.svg").read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--esd", "a.csv", "b.csv", "--n", 256], "read only with --fig1"),
        (["compare", "--esd", "a.csv", "b.csv", "--d", 1], "read only with --fig1"),
        (["compare", "--esd", "a.csv", "b.csv", "--seed", 1], "read only with --fig1"),
        (["compare", "--fig1", "--esd", "a.csv", "b.csv"], "argument --esd: not allowed with argument --fig1"),
        (["generate", "--N", 5, "--d", 2, "--r", 0.21, "--seed", 5], "--seed is read only with --n"),
        (["spectrum", "--dgg", "8,1,0.25", "--r", 0.4], "argument --dgg: --dgg needs 'N,d', got '8,1,0.25'"),
        (["spectrum", "--dgg", "6,1", "--r", 0.2, "--method", "closed", "--p", 2], "unrecognized arguments: --method closed"),
        (["bounds", "--N", 8, "--d", 1, "--r", 0.3, "--t", 1, "--trials", 1, "--bogus"], "unrecognized arguments: --bogus"),
        (["compare", "--esd-a", "a.csv", "--esd-b", "b.csv"], "one of the arguments --fig1 --esd is required"),
        (["compare", "--esd", "a.csv", "b.csv", "--esd-b", "b.csv"], "unrecognized arguments: --esd-b b.csv"),
        (["compare", "--fig1", "--oracle", "--oracle-step", 0.01], "unrecognized arguments: --oracle-step 0.01"),
        (["compare", "--fig1", "--oracle", 0], "argument --oracle: the oracle step must be finite and at least 1e-4, got 0"),
        (["compare", "--fig1", "--oracle", -1], "argument --oracle: the oracle step must be finite and at least 1e-4, got -1"),
        (["compare", "--fig1", "--oracle", "nan"], "argument --oracle: the oracle step must be finite and at least 1e-4, got nan"),
        (["compare", "--fig1", "--oracle", "9.9e-5"], "argument --oracle: the oracle step must be finite and at least 1e-4, got 9.9e-5"),
        (["compare", "--fig1", "--oracle", "inf"], "argument --oracle: the oracle step must be finite and at least 1e-4, got inf"),
        (["compare", "--fig1", "--oracle", "tiny"], "argument --oracle: invalid oracle step 'tiny'"),
    ],
    ids=[
        "files-n", "files-d", "files-seed", "fig1-esd", "grid-seed", "dgg-three-parts", "closed-p2", "unknown-option",
        "esd-a", "esd-b", "oracle-step", "step-zero", "step-negative", "step-nan", "step-below-floor", "step-inf",
        "step-not-a-number",
    ],
)
def test_options_a_mode_never_reads_are_refused(tmp_path, capsys, argv, message):
    """Refused through the subcommand's parser: its usage line and prog.  So
    are the unknown flags --esd-a, --esd-b and --oracle-step, a three-part
    --dgg, and an oracle step that is not finite or is below 1e-4."""
    with pytest.raises(SystemExit) as excinfo:
        _run(argv + ["--out", tmp_path / "out"])
    assert excinfo.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: rgg-spectra {argv[0]} ")
    assert lines[-1].startswith(f"rgg-spectra {argv[0]}: error: ") and message in lines[-1]
    assert not (tmp_path / "out").exists()


def test_compare_manifests_record_only_the_options_their_mode_reads(tmp_path):
    esd_a, esd_b = _eigenvalue_files(tmp_path)
    assert _run(["compare", "--esd", esd_a, esd_b, "--out", tmp_path / "files"]) == 0
    args = json.loads((tmp_path / "files" / "manifest.json").read_text())["args"]
    assert not {"n", "d", "seed"} & set(args)
    assert args["esd"] == [str(esd_a), str(esd_b)] and args["oracle"] is None
    for extra, step in ((["--oracle"], 1e-3), (["--oracle", 0.01], 0.01), (["--oracle", 1e-4], 1e-4)):
        assert _run(["compare", "--esd", esd_a, esd_b, *extra, "--out", tmp_path / "oracle"]) == 0
        assert json.loads((tmp_path / "oracle" / "manifest.json").read_text())["args"]["oracle"] == step
    assert _run(["compare", "--fig1", "--n", 256, "--out", tmp_path / "fig1"]) == 0
    args = json.loads((tmp_path / "fig1" / "manifest.json").read_text())["args"]
    assert (args["n"], args["d"], args["seed"]) == (256, 1, 1)


def test_replay_refuses_a_file_mode_manifest_that_records_fig1_options(tmp_path, capsys):
    """A manifest is parsed as the command line it records, so a key that its
    mode refuses on the command line is refused in a manifest too."""
    esd_a, esd_b = _eigenvalue_files(tmp_path)
    out = tmp_path / "cmp"
    assert _run(["compare", "--esd", esd_a, esd_b, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["args"].update({"n": 2000, "d": 1, "seed": 1})
    (out / "old.json").write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as excinfo:
        _run(["replay", "--manifest", out / "old.json", "--out", tmp_path / "replayed"])
    assert excinfo.value.code == 2
    assert "--n, --d and --seed are read only with --fig1" in capsys.readouterr().err
    assert not (tmp_path / "replayed").exists()


def test_compare_requires_partner_file(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        _run(["compare", "--esd", "whatever.csv", "--out", tmp_path])
    assert excinfo.value.code == 2


def test_compare_fig1_small(tmp_path):
    out = tmp_path / "fig"
    assert _run(["compare", "--fig1", "--n", 256, "--d", 1, "--seed", 3, "--plot", "--out", out]) == 0
    table = (out / "cdf_table.csv").read_text().splitlines()
    assert table[0] == "x,cdf_rgg,cdf_dgg"
    x, cdf_rgg, cdf_dgg = np.array([row.split(",") for row in table[1:]], dtype=float).T
    assert len(x) > 10 and np.all(np.diff(x) > 0)
    for cdf in (cdf_rgg, cdf_dgg):
        assert np.all(np.diff(cdf) >= 0) and 0 <= cdf[0] and cdf[-1] == 1.0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["n"] == 256
    assert 0 <= payload["levy"] <= 1.5
    assert 0 < payload["twin_frac"] <= payload["atom_minus1_frac"] < 1
    assert (out / "cdf.svg").exists()
    scalars = {field.name for field in dataclasses.fields(harness.Figure1Result)} - {"esd_rgg", "esd_dgg"}
    assert set(payload) == scalars | {"levy_cubed", "trace_bound"}
    assert _run(["compare", "--fig1", "--n", 256, "--oracle", "--out", tmp_path / "oracle"]) == 0
    assert set(json.loads((tmp_path / "oracle" / "compare.json").read_text())) == scalars | {"levy_cubed", "trace_bound", "oracle"}


def test_bounds_command_and_replay(tmp_path):
    config_keys = {field.name for field in dataclasses.fields(harness.ExperimentConfig)} - {"trials"} | {"a_n"}
    for name, cfg in (
        ("d1", harness.ExperimentConfig(N=16, d=1, p=INFINITY, r=0.499, t=1000, trials=3, seed=0)),
        ("d2-l2", harness.ExperimentConfig(N=24, d=2, p=2, r=0.25, t=0.001, trials=3, seed=7)),
    ):
        out = tmp_path / name
        argv = [f"--{key}={value}" for key, value in dataclasses.asdict(cfg).items()]
        assert _run(["bounds", *argv, "--out", out]) == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert set(payload["theorem1"]) >= {"term1", "term2", "term3", "total", "epsilon", "c", "vacuous"}
        assert set(payload["lemma4"]) >= {"t_degree", "t_L", "t_aprime"}
        assert payload["p_hat"] <= 1.0
        assert set(payload["config"]) == config_keys and payload["trials"] == 3
        trials_rows = (out / "trials.csv").read_text().splitlines()
        assert trials_rows[0] == "trial,levy_cubed,trace_bound,m_n,xi_n"  # the order perfbench reads
        assert trials_rows[0].split(",")[1:] == [field.name for field in dataclasses.fields(harness.TrialResult)]
        assert len(trials_rows) == 4
        # The Lemma-4 terms are trial 0's: rebuild its two graphs and matching
        # here and evaluate the matrix form.
        assert payload["trace"] == float(trials_rows[1].split(",")[2])
        sample = sample_uniform(cfg.n, cfg.d, harness.trial_seed(cfg.seed, 0))
        grid, A_D = harness.lattice_graph(cfg.N, cfg.d, cfg.p, cfg.r)
        assignment = bottleneck_matching(sample, grid, cfg.metric).assignment
        terms, _ = lemma4_matrix_terms(build_adjacency(sample, cfg.r, cfg.metric), A_D, assignment, cfg.r, cfg.metric)
        assert payload["trace"] == terms.t0
        assert payload["lemma4"] == {"t_degree": terms.t_degree, "t_L": terms.t_L, "t_aprime": terms.t_aprime}
        replayed = tmp_path / (name + "-replayed")
        assert _run(["replay", "--manifest", out / "manifest.json", "--out", replayed]) == 0
        assert (out / "bounds.json").read_bytes() == (replayed / "bounds.json").read_bytes()
        assert (out / "trials.csv").read_bytes() == (replayed / "trials.csv").read_bytes()


def test_bounds_out_of_regime_is_an_error(tmp_path, capsys, monkeypatch):
    ran = []
    run_trial = harness.run_trial
    monkeypatch.setattr(harness, "run_trial", lambda cfg, i: ran.append(i) or run_trial(cfg, i))
    # At N = 8, seed 0, trials 0 and 1 have m_n 0.120 and 0.130 and trial 2
    # has 0.253, so r = 0.3 first leaves the regime r > 2 m_n at trial 2 and
    # r = 0.2 at trial 0; no later trial runs.
    for r, trials, calls in ((0.3, 3, 3), (0.3, 6, 3), (0.2, 3, 1)):
        ran.clear()
        rc = _run(["bounds", "--N", 8, "--d", 1, "--r", r, "--t", 10, "--trials", trials, "--seed", 0, "--out", tmp_path])
        assert rc == 1
        assert "need r > 2*M_n" in capsys.readouterr().err
        assert ran == list(range(calls))


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--t", 0], "need t > 0"),
        (["--t", -1], "need t > 0"),
        (["--t", 1000, "--a", 0.5], "need a >= 1"),
        (["--t", 1000, "--N", 65, "--d", 2], "ceiling"),
    ],
    ids=["t-zero", "t-negative", "a-below-one", "order-past-ceiling"],
)
def test_bounds_rejects_bad_parameters_before_any_trial(tmp_path, capsys, monkeypatch, extra, message):
    def refuse(*args):
        raise AssertionError("a trial ran before the parameters were checked")

    monkeypatch.setattr(harness, "run_trial", refuse)
    args = ["bounds", "--N", 16, "--d", 1, "--r", 0.499, "--trials", 3, "--out", tmp_path / "out"] + extra
    assert _run(args) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bounds_huge_threshold(tmp_path, capsys):
    out = tmp_path / "big"
    assert _run(["bounds", "--N", 16, "--d", 1, "--r", 0.499, "--t", 1e9, "--trials", 3, "--seed", 0, "--out", out]) == 0
    assert "p_hat = 0" in capsys.readouterr().out
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["theorem1"]["term3"] < 1e-12


def _strict_json(path: Path):
    """A JSON file parsed as RFC 8259 JSON, which has no Infinity, -Infinity or NaN."""

    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_every_json_file_is_strict_json(tmp_path):
    # term2 overflows exp here, so bounds.json holds three infinite floats.
    out = tmp_path / "bounds"
    assert _run(["bounds", "--N", 512, "--d", 1, "--r", 0.3, "--a", 100, "--t", 1, "--trials", 1, "--out", out]) == 0
    theorem1 = _strict_json(out / "bounds.json")["theorem1"]
    assert theorem1["term2"] == theorem1["term2_volume"] == theorem1["total"] == "inf"
    assert theorem1["term2_saturated"] is True
    _strict_json(out / "manifest.json")
    # An infinite radius is recorded as "inf" and replays to the same files.
    gen = tmp_path / "gen"
    assert _run(["generate", "--n", 5, "--d", 1, "--r", "inf", "--out", gen]) == 0
    assert _strict_json(gen / "manifest.json")["args"]["r"] == "inf"
    replayed = tmp_path / "gen-replayed"
    assert _run(["replay", "--manifest", gen / "manifest.json", "--out", replayed]) == 0
    for name in ("points.csv", "edges.txt"):
        assert (gen / name).read_bytes() == (replayed / name).read_bytes()


def test_bounds_degenerate_chernoff(tmp_path):
    out = tmp_path / "a1"
    assert _run(["bounds", "--N", 16, "--d", 1, "--r", 0.499, "--t", 1000, "--a", 1, "--trials", 3, "--seed", 0, "--out", out]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["theorem1"]["term2"] == pytest.approx(16.0, rel=1e-12)


def test_invalid_metric_exponent_is_usage_error(tmp_path):
    for p in ("0.5", "abc"):
        with pytest.raises(SystemExit) as excinfo:
            _run(["generate", "--n", 10, "--d", 1, "--p", p, "--r", 0.2, "--out", tmp_path])
        assert excinfo.value.code == 2


_BOUNDS_ARGS = {"N": 8, "d": 1, "p": "inf", "r": 0.45, "t": 10, "a": 2.0, "trials": 3, "seed": 0}
_GENERATE_ARGS = {"n": 10, "N": None, "d": 1, "p": "inf", "r": 0.2, "seed": 0}
_COMPARE_ARGS = {"fig1": False, "esd": ["/a.csv", "/b.csv"], "oracle": None, "plot": False}


@pytest.mark.parametrize(
    "recorded, error",
    [
        ({"command": "replay", "args": {"manifest": "m.json"}}, "error: manifest 'command' names no data command: 'replay'"),
        ({"command": "plot", "args": {"manifest": "m.json"}}, "error: manifest 'command' names no data command: 'plot'"),
        ({"args": {}}, "error: manifest 'command' names no data command: None"),
        ({"command": "bounds", "args": {"N": 8}}, "the following arguments are required: --d, --r, --t, --trials"),
        ({"command": "bounds", "args": 5}, "error: manifest 'args' is not a JSON object: 5"),
        ({"command": "bounds", "args": {**_BOUNDS_ARGS, "r": "x"}}, "argument --r: invalid float value: 'x'"),
        ({"command": "bounds", "args": {**_BOUNDS_ARGS, "N": 8.5}}, "argument --N: invalid int value: '8.5'"),
        (5, "error: manifest is not a JSON object"),
        ({"command": "generate", "args": {**_GENERATE_ARGS, "bogus": 1}}, "error: manifest 'args' names no generate option: 'bogus'"),
        ({"command": "generate", "args": {"n": 10, "d": 1, "r": 0.2, "se": 3}}, "error: manifest 'args' names no generate option: 'se'"),
        ({"command": "generate", "args": {**_GENERATE_ARGS, "help": True}}, "error: manifest 'args' names no generate option: 'help'"),
        (
            {"command": "spectrum", "args": {"dgg": [8, 1], "input": None, "method": "closed", "p": "inf", "plot": False, "r": 0.25}},
            "error: manifest 'args' names no spectrum option: 'method'",
        ),
        (
            {"command": "spectrum", "args": {"dgg": [8, 1, 0.25], "input": None, "p": "inf", "plot": False, "r": None}},
            "argument --dgg: --dgg needs 'N,d', got '8,1,0.25'",
        ),
        ({"command": "compare", "args": {**_COMPARE_ARGS, "esd": None, "esd_a": "a.csv"}}, "error: manifest 'args' names no compare option: 'esd_a'"),
        ({"command": "compare", "args": {**_COMPARE_ARGS, "esd_b": "b.csv"}}, "error: manifest 'args' names no compare option: 'esd_b'"),
        ({"command": "compare", "args": {**_COMPARE_ARGS, "oracle": True, "oracle_step": 0.01}}, "error: manifest 'args' names no compare option: 'oracle_step'"),
        ({"command": "compare", "args": {**_COMPARE_ARGS, "esd": "/a.csv"}}, "argument --esd: expected 2 arguments"),
        ({"command": "compare", "args": {**_COMPARE_ARGS, "oracle": 1e-6}}, "argument --oracle: the oracle step must be finite and at least 1e-4, got 1e-06"),
    ],
    ids=[
        "replay", "plot", "no-command", "bounds-without-d", "args-not-object", "r-not-float", "N-not-int", "bare-number", "unknown-key",
        "option-prefix", "help", "spectrum-method", "dgg-three-parts", "esd-a", "esd-b", "oracle-step", "esd-not-a-pair", "oracle-below-floor",
    ],
)
def test_replay_refuses_a_manifest_naming_no_data_command(tmp_path, capsys, monkeypatch, recorded, error):
    """A malformed manifest exits 2 with a message naming the bad field or
    option, either from replay's own checks or from the parser's."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(recorded))
    for name in ("run_trials", "dgg_eigenvalues_dft", "figure1_experiment", "_read_csv"):  # a replay must stop before any work
        monkeypatch.setattr(cli, name, None)
    try:
        code = _run(["replay", "--manifest", manifest, "--out", tmp_path / "out"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_every_data_option_is_named_after_its_dest():
    """replay rebuilds a command line from the manifest's keys, which are the
    options' dests, so each long flag must be "--" plus its dest with
    underscores as hyphens."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    assert set(cli._commands()) < set(subparsers.choices)
    for command in cli._commands():
        options = [action for action in subparsers.choices[command]._actions if not isinstance(action, argparse._HelpAction)]
        assert options
        for action in options:
            assert action.option_strings == ["--" + action.dest.replace("_", "-")], (command, action.dest)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["spectrum", "--dgg", "8,1", "--r", 0.3, "--method", "closed", "--p", 2], "parser exits 2"),
        (["generate", "--n", 40000, "--d", 1, "--r", 0.01], 1),
        (["compare", "--esd", "bad.csv", "bad.csv"], 2),
        (["bounds", "--N", 8, "--d", 1, "--r", 0.2, "--t", 10, "--trials", 3], 1),
    ],
    ids=["closed-p2", "generate-past-byte-budget", "compare-parse-error", "bounds-out-of-regime"],
)
def test_a_failed_command_leaves_a_new_out_absent(tmp_path, argv, code):
    (tmp_path / "bad.csv").write_text("eigenvalue\n0.5\noops\n")
    argv = [tmp_path / arg if arg == "bad.csv" else arg for arg in argv] + ["--out", tmp_path / "new" / "out"]
    if code == "parser exits 2":
        with pytest.raises(SystemExit) as excinfo:
            _run(argv)
        assert excinfo.value.code == 2
    else:
        assert _run(argv) == code
    assert not (tmp_path / "new").exists()


def test_a_failed_compare_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    old, new = tmp_path / "fig1", tmp_path / "new"
    argv = ["compare", "--fig1", "--n", 256, "--plot", "--oracle"]
    assert _run(argv + ["--seed", 1, "--out", old]) == 0
    before = {path.name: path.read_bytes() for path in old.iterdir()}

    def fail(*args):
        raise ValueError("the oracle failed")

    monkeypatch.setattr(cli, "levy_distance_oracle", fail)
    for out in (old, new):
        assert _run(argv + ["--seed", 2, "--out", out]) == 1
        assert "error: the oracle failed" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in old.iterdir()} == before
    assert not new.exists()


def test_a_failed_replay_writes_nothing(tmp_path, capsys):
    esd_a, esd_b = _eigenvalue_files(tmp_path)
    out = tmp_path / "cmp"
    assert _run(["compare", "--esd", esd_a, esd_b, "--plot", "--out", out]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    esd_a.write_text("eigenvalue\noops\n")
    for replayed in (out, tmp_path / "replayed"):
        assert _run(["replay", "--manifest", out / "manifest.json", "--out", replayed]) == 2
        assert f"parse error at {esd_a}:2" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert not (tmp_path / "replayed").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", 40, "--d", 2, "--r", 0.3],
        ["generate", "--N", 5, "--d", 2, "--r", 0.3],
        ["compare", "--fig1", "--n", 256],
        ["bounds", "--N", 16, "--d", 1, "--r", 0.499, "--t", 1000, "--trials", 3],
    ],
    ids=["generate-sample", "generate-grid", "fig1", "bounds"],
)
def test_an_out_that_mkdir_refuses_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    for module, name in ((cli, "sample_uniform"), (cli, "lattice_graph"), (cli, "figure1_experiment"), (harness, "run_trial")):
        monkeypatch.setattr(module, name, refuse)
    file = tmp_path / "file"
    file.write_text("kept\n")
    for out, message in ((file, f"File exists: '{file}'"), (file / "sub", f"Not a directory: '{file / 'sub'}'")):
        assert _run(argv + ["--out", out]) == 1
        assert message in capsys.readouterr().err
    assert file.read_text() == "kept\n"


def test_readme_cli_block_parses():
    """Every documented command line passes the parser and the mode rules of
    cli._parse, without running."""
    block = README.read_text().split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("rgg-spectra ")]
    assert {shlex.split(line)[1] for line in lines} == {"generate", "spectrum", "compare", "bounds", "replay"}
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli._parse(parser, argv)[0] == argv[0]


def test_readme_calls_bind_to_signatures():
    """Every un-nested `name(args)` in the README that names a public function
    passes an argument count its signature accepts."""
    checked = 0
    for name, args in re.findall(r"`(\w+)\(([^()`]*)\)`", README.read_text()):
        if name not in rgg_spectra.__all__:
            continue
        parts = [part.strip() for part in args.split(",") if part.strip()]
        try:
            inspect.signature(getattr(rgg_spectra, name)).bind(*parts)
        except TypeError as exc:
            pytest.fail(f"README `{name}({args})` does not fit the signature: {exc}")
        checked += 1
    assert checked >= 10


def test_readme_names_resolve():
    """Every backticked bare identifier in the README that starts with a
    capital letter is an attribute of some rgg_spectra module."""
    modules = [rgg_spectra] + [
        importlib.import_module(f"rgg_spectra.{info.name}")
        for info in pkgutil.iter_modules(rgg_spectra.__path__)
        if info.name != "__main__"
    ]
    names = set(re.findall(r"`([A-Z]\w*)`", README.read_text()))
    missing = sorted(name for name in names if not any(hasattr(module, name) for module in modules))
    assert not missing, f"README names {missing}, which no rgg_spectra module defines"
    assert len(names) >= 10


def test_unused_imports_are_perfbench_wrapping_points(monkeypatch):
    """Every `# noqa: F401` import in rgg_spectra names an attribute that
    perfbench/tracer.TARGETS wraps on the importing module, so an import left
    behind when TARGETS shrinks fails here."""
    monkeypatch.syspath_prepend(str(ROOT))
    tracer = importlib.import_module("perfbench.tracer")
    wrapped = {(module, attr) for module, attr, *_ in tracer.TARGETS}
    unused = set()
    for path in sorted((ROOT / "src" / "rgg_spectra").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
                unused |= {(path.stem, alias.asname or alias.name) for alias in node.names}
    assert unused, "no wrapping-point imports found"
    assert not unused - wrapped, f"imports kept only for perfbench that it does not wrap: {sorted(unused - wrapped)}"


def _opens_for_writing(call: ast.Call) -> bool:
    """A call to mkdir, makedirs, write_text, write_bytes, or an open() whose
    mode is not a read-only constant."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "open":
        return name in {"mkdir", "makedirs", "write_text", "write_bytes"}
    index = 0 if isinstance(func, ast.Attribute) else 1
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), call.args[index] if len(call.args) > index else None)
    return mode is not None and not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))


def test_only_the_runner_writes_files():
    """No function in cli.py but the runner `_run` creates a directory or
    opens a file for writing, so no command writes into --out as it goes."""
    tree = ast.parse((ROOT / "src" / "rgg_spectra" / "cli.py").read_text())
    writers = {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _opens_for_writing(node)
    }
    assert writers == {"_run"}


def _names_used(path: Path) -> set[str]:
    """Names a module loads or looks up as attributes, each top-level
    definition's own name excepted inside that definition."""
    names = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(own)
    return names


def test_public_names_have_a_caller_outside_the_tests():
    """Every rgg_spectra.__all__ name is used by another definition in the
    package (outside __init__) or by perfbench's own code, so a route that
    only the tests reach fails here.  The analytic helpers that users call
    directly are the exceptions."""
    package = [path for path in (ROOT / "src" / "rgg_spectra").glob("*.py") if path.name != "__init__.py"]
    bench = [path for path in (ROOT / "perfbench").rglob("*.py") if "tests" not in path.relative_to(ROOT / "perfbench").parts]
    used = set().union(*map(_names_used, package + bench))
    direct = {"torus_distance", "dgg_degree", "bottleneck_rate_envelope"}
    unused = sorted(set(rgg_spectra.__all__) - used - direct)
    assert not unused, f"public names that only the tests reach: {unused}"


def test_only_the_harness_derives_trial_seeds():
    """No module but harness.py calls trial_seed, so no report re-derives a
    trial's sample; it reads the trial's own result instead."""
    callers = set()
    for path in sorted((ROOT / "src" / "rgg_spectra").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "trial_seed":
                    callers.add(path.name)
    assert callers == {"harness.py"}
