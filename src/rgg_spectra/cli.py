"""Command-line front end: generate, spectrum, compare, bounds, replay.

Every command writes its outputs plus a manifest.json (config echo, seed,
versions, timestamp) into --out; `replay --manifest <file> --out <dir>`
reruns the recorded command and reproduces every data file byte-for-byte.
Data goes to files and standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bounds import check_matching_regime, check_tail_parameters, lemma1_degree_bound, lemma4_decomposition, lemma6_variance_bound, theorem1_rhs
from .dgg import dgg_eigenvalues_closed_form, dgg_eigenvalues_dft, dgg_spec
from .geometry import INFINITY, MetricSpec, PointSet, ball_volume_theta, sample_uniform
from .geometry import grid_points  # noqa: F401  perfbench wraps it here until ROADMAP item 5
from .graph import build_adjacency, edge_list_text
from .harness import (
    ExperimentConfig,
    figure1_experiment,
    lattice_graph,
    probability_from_results,
    run_trials,
    trial_seed,
)
from .levy import levy_distance, levy_distance_oracle
from .matching import bottleneck_matching  # noqa: F401  perfbench wraps it here until ROADMAP item 5
from .spectra import Esd, _check_order, esd_from_eigenvalues, sym_eigenvalues

CLOSED_FORM_REQUIRES_LINF = "CLOSED_FORM_REQUIRES_LINF"


class CliError(Exception):
    """Validation failure after argument parsing: message to stderr, exit 2."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(cell) for cell in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return INFINITY
    try:
        p = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid metric exponent {text!r}") from exc
    if not p >= 1:
        raise argparse.ArgumentTypeError(f"metric exponent must be >= 1 or 'inf', got {text}")
    return p


def _p_for_manifest(p: float):
    return "inf" if p == INFINITY else p


def _p_from_manifest(value) -> float:
    return INFINITY if value == "inf" else float(value)


def _out_dir(opts: dict) -> Path:
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, opts: dict) -> None:
    """manifest.json: every option but --out (p as "inf" or a number), plus versions."""
    args = {key: _p_for_manifest(value) if key == "p" else value for key, value in opts.items() if key != "out"}
    payload = {
        "command": command,
        "args": args,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "rgg_spectra": __version__,
        },
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    _write_json(out / "manifest.json", payload)


def _read_points_csv(path: str) -> PointSet:
    rows = []
    with open(path) as handle:
        header = handle.readline()
        d = len(header.strip().split(","))
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            try:
                row = [float(cell) for cell in cells]
            except ValueError as exc:
                raise CliError(f"parse error at {path}:{lineno}: {exc}") from exc
            if len(row) != d:
                raise CliError(f"parse error at {path}:{lineno}: expected {d} columns, got {len(row)}")
            rows.append(row)
    if not rows:
        raise CliError(f"parse error at {path}: no data rows")
    return PointSet(d=d, coords=np.array(rows), kind="sample")


def _read_eigenvalues_csv(path: str) -> np.ndarray:
    values = []
    with open(path) as handle:
        handle.readline()  # header
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                values.append(float(line.strip()))
            except ValueError as exc:
                raise CliError(f"parse error at {path}:{lineno}: {exc}") from exc
    if not values:
        raise CliError(f"parse error at {path}: no data rows")
    return np.array(values)


def _step_cdf(esd: Esd, color: str) -> tuple[np.ndarray, np.ndarray, str]:
    """One curve for _svg_step_plot: the distinct eigenvalues and the CDF at each."""
    atoms = np.unique(esd.eigenvalues)
    return atoms, np.searchsorted(esd.eigenvalues, atoms, side="right") / esd.n, color


def _svg_step_plot(curves: list[tuple[np.ndarray, np.ndarray, str]], title: str) -> str:
    """Minimal hand-written step plot: axes plus one polyline per CDF."""
    width, height = 640, 400
    left, right, top, bottom = 60, 620, 30, 360
    xs = np.concatenate([c[0] for c in curves])
    x_min, x_max = float(xs.min()), float(xs.max())
    pad = 0.05 * (x_max - x_min or 1.0)
    x_min, x_max = x_min - pad, x_max + pad

    def px(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * (right - left)

    def py(y: float) -> float:
        return bottom - y * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{left}" y="18" font-size="13">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{left - 38}" y="{py(frac) + 4:.2f}" font-size="11">{frac:.1f}</text>'
        )
    for x_tick in (x_min + pad, x_max - pad):
        parts.append(
            f'<text x="{px(x_tick):.2f}" y="{bottom + 16}" font-size="11" text-anchor="middle">{x_tick:.3g}</text>'
        )
    for atoms, cdf, color in curves:
        coords = [f"M {px(float(atoms[0])):.2f} {py(0.0):.2f}"]
        level = 0.0
        for x, y in zip(atoms, cdf):
            coords.append(f"L {px(float(x)):.2f} {py(level):.2f}")
            coords.append(f"L {px(float(x)):.2f} {py(float(y)):.2f}")
            level = float(y)
        coords.append(f"L {px(x_max):.2f} {py(level):.2f}")
        parts.append(f'<path d="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_generate(opts: dict) -> int:
    out = _out_dir(opts)
    metric = MetricSpec(d=opts["d"], p=opts["p"])
    if opts.get("N") is not None:
        points, A = lattice_graph(opts["N"], opts["d"], opts["p"], opts["r"])
    else:
        points = sample_uniform(opts["n"], opts["d"], opts["seed"])
        A = build_adjacency(points, opts["r"], metric)
    header = [f"x{i + 1}" for i in range(points.d)]
    _write_csv(out / "points.csv", header, [points.coords[:, i] for i in range(points.d)])
    _write_text(out / "edges.txt", edge_list_text(A))
    _write_manifest(out, "generate", opts)
    return 0


def cmd_spectrum(opts: dict) -> int:
    out = _out_dir(opts)
    method = opts["method"]
    if opts.get("dgg") is not None:
        N, d, r = opts["dgg"]
        if method == "closed":
            if opts["p"] != INFINITY:
                raise CliError(f"{CLOSED_FORM_REQUIRES_LINF}: the closed-form lattice spectrum needs p = inf")
            values = dgg_eigenvalues_closed_form(dgg_spec(N, d, r))
        elif method == "dft":
            values = dgg_eigenvalues_dft(N, d, opts["p"], r)
        else:
            _check_order(N**d)
            values = sym_eigenvalues(lattice_graph(N, d, opts["p"], r)[1])
    else:
        if method != "eig":
            raise CliError(f"--method {method} needs a --dgg lattice")
        if opts.get("r") is None:
            raise CliError("--input mode needs --r")
        points = _read_points_csv(opts["input"])
        _check_order(points.n)
        metric = MetricSpec(d=points.d, p=opts["p"])
        values = sym_eigenvalues(build_adjacency(points, opts["r"], metric))
    _write_csv(out / "eigenvalues.csv", ["eigenvalue"], [values])
    if opts["plot"]:
        curve = _step_cdf(esd_from_eigenvalues(values), "#1f77b4")
        _write_text(out / "cdf.svg", _svg_step_plot([curve], "spectral CDF"))
    _write_manifest(out, "spectrum", opts)
    return 0


def cmd_compare(opts: dict) -> int:
    out = _out_dir(opts)
    payload: dict = {}
    if opts.get("fig1"):
        result = figure1_experiment(n=opts["n"], d=opts["d"], seed=opts["seed"])
        _write_csv(out / "cdf_table.csv", ["x", "cdf_rgg", "cdf_dgg"], [result.x, result.cdf_rgg, result.cdf_dgg])
        esd_a, esd_b = result.esd_rgg, result.esd_dgg
        payload.update(
            {
                "n": result.n,
                "d": result.d,
                "r": result.r,
                "a_n_implied": result.a_n_implied,
                "k": result.k,
                "twin_frac": result.twin_frac,
                "atom_minus1_frac": result.atom_minus1_frac,
                "levy": result.levy,
                "levy_cubed": result.levy**3,
                "trace_bound": None,
            }
        )
        if opts["plot"]:
            curves = [_step_cdf(esd_a, "#1f77b4"), _step_cdf(esd_b, "#d62728")]
            _write_text(out / "cdf.svg", _svg_step_plot(curves, f"empirical vs analytic CDF, n={result.n}"))
    else:
        esd_a = esd_from_eigenvalues(_read_eigenvalues_csv(opts["esd_a"]))
        esd_b = esd_from_eigenvalues(_read_eigenvalues_csv(opts["esd_b"]))
        result_levy = levy_distance(esd_a, esd_b)
        payload.update(
            {
                "levy": result_levy.distance,
                "levy_cubed": result_levy.distance**3,
                "trace_bound": None,
            }
        )
    if opts["oracle"]:
        payload["oracle"] = levy_distance_oracle(esd_a, esd_b, opts["oracle_step"])
    _write_json(out / "compare.json", payload)
    print(f"levy = {_fmt(payload['levy'])}")
    print(f"levy_cubed = {_fmt(payload['levy_cubed'])}")
    print("trace_bound = none")
    _write_manifest(out, "compare", opts)
    return 0


def cmd_bounds(opts: dict) -> int:
    cfg = ExperimentConfig(
        N=opts["N"],
        d=opts["d"],
        p=opts["p"],
        r=opts["r"],
        t=opts["t"],
        a=opts["a"],
        trials=opts["trials"],
        seed=opts["seed"],
    )
    check_tail_parameters(cfg.t, cfg.a)
    out = _out_dir(opts)
    r = cfg.r
    results = run_trials(cfg, cfg.trials, check=lambda result: check_matching_regime(r, result.m_n))
    p_hat, stderr = probability_from_results(results, cfg.t, cfg.trials)
    m_n_max = max(result.m_n for result in results)
    n = cfg.n
    a_n = ball_volume_theta(cfg.d) * n * r**cfg.d

    theorem1 = theorem1_rhs(cfg.t, n, cfg.d, cfg.p, r, a_n, m_n_max, cfg.a)

    A_X = build_adjacency(sample_uniform(n, cfg.d, trial_seed(cfg.seed, 0)), r, cfg.metric)
    A_D = lattice_graph(cfg.N, cfg.d, cfg.p, r)[1]
    lemma4 = lemma4_decomposition(A_X, A_D, results[0].assignment, r, cfg.metric)

    payload = {
        "lemma1": lemma1_degree_bound(cfg.d, cfg.p, a_n),
        "trace": lemma4.t0,
        "lemma4": {"t_degree": lemma4.t_degree, "t_L": lemma4.t_L, "t_aprime": lemma4.t_aprime},
        "lemma6": lemma6_variance_bound(cfg.d, a_n),
        "theorem1": dataclasses.asdict(theorem1),
        "p_hat": p_hat,
        "stderr": stderr,
        "m_n_max": m_n_max,
        "ratio_2M_over_r": 2.0 * m_n_max / r,
        "trials": cfg.trials,
        "config": {
            "N": cfg.N,
            "d": cfg.d,
            "p": _p_for_manifest(cfg.p),
            "r": r,
            "t": cfg.t,
            "a": cfg.a,
            "seed": cfg.seed,
            "a_n": a_n,
        },
    }
    _write_json(out / "bounds.json", payload)
    _write_csv(
        out / "trials.csv",
        ["trial", "levy_cubed", "trace_bound", "m_n", "xi_n"],
        [
            np.arange(cfg.trials, dtype=float),
            np.array([result.levy_cubed for result in results]),
            np.array([result.trace_bound for result in results]),
            np.array([result.m_n for result in results]),
            np.array([float(result.xi_n) for result in results]),
        ],
    )
    print(f"p_hat = {_fmt(p_hat)}")
    print(f"stderr = {_fmt(stderr)}")
    print(f"total = {_fmt(min(theorem1.total, 1.0))}")
    _write_manifest(out, "bounds", opts)
    return 0


def cmd_replay(opts: dict) -> int:
    with open(opts["manifest"]) as handle:
        manifest = json.load(handle)
    command = manifest["command"]
    args = dict(manifest["args"])
    if "p" in args and args["p"] is not None:
        args["p"] = _p_from_manifest(args["p"])
    args["out"] = opts["out"]
    commands = _commands()
    if command not in commands or command == "replay":
        raise CliError(f"manifest names unknown command {command!r}")
    return commands[command](args)


def _commands() -> dict:
    """Every subcommand by name.  Built on each call, so that a wrapper set on
    one of this module's cmd_* attributes (perfbench traces cmd_bounds) runs."""
    return {
        "generate": cmd_generate,
        "spectrum": cmd_spectrum,
        "compare": cmd_compare,
        "bounds": cmd_bounds,
        "replay": cmd_replay,
    }


def _parse_dgg(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--dgg needs 'N,d,r', got {text!r}")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--dgg needs 'N,d,r', got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgg-spectra",
        description="Geometric-graph spectra on the torus: generation, analytic "
        "lattice spectra, Levy-distance comparison, and tail-bound evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample or grid points plus their adjacency edge list")
    size = gen.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="random sample size")
    size.add_argument("--N", type=int, help="grid side count (N^d points)")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--p", type=_parse_p, default=INFINITY)
    gen.add_argument("--r", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".")

    spec = sub.add_parser("spectrum", help="eigenvalues of a point-set graph or the analytic lattice")
    source = spec.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="points.csv to build a graph from")
    source.add_argument("--dgg", type=_parse_dgg, metavar="N,d,r")
    spec.add_argument("--method", choices=("eig", "closed", "dft"), required=True)
    spec.add_argument("--p", type=_parse_p, default=INFINITY)
    spec.add_argument("--r", type=float)
    spec.add_argument("--plot", action="store_true")
    spec.add_argument("--out", default=".")

    comp = sub.add_parser("compare", help="Levy distance between two spectra")
    mode = comp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fig1", action="store_true", help="connectivity-regime CDF comparison")
    mode.add_argument("--esd-a", dest="esd_a", help="first eigenvalue CSV")
    comp.add_argument("--esd-b", dest="esd_b", help="second eigenvalue CSV")
    comp.add_argument("--n", type=int, default=2000)
    comp.add_argument("--d", type=int, default=1)
    comp.add_argument("--seed", type=int, default=1)
    comp.add_argument("--oracle", action="store_true")
    comp.add_argument("--oracle-step", dest="oracle_step", type=float, default=1e-3)
    comp.add_argument("--plot", action="store_true")
    comp.add_argument("--out", default=".")

    bnd = sub.add_parser("bounds", help="tail-bound report plus Monte Carlo estimate")
    bnd.add_argument("--N", type=int, required=True)
    bnd.add_argument("--d", type=int, required=True)
    bnd.add_argument("--p", type=_parse_p, default=INFINITY)
    bnd.add_argument("--r", type=float, required=True)
    bnd.add_argument("--t", type=float, required=True)
    bnd.add_argument("--a", type=float, default=2.0)
    bnd.add_argument("--trials", type=int, required=True)
    bnd.add_argument("--seed", type=int, default=0)
    bnd.add_argument("--out", default=".")

    rep = sub.add_parser("replay", help="rerun a recorded command from its manifest")
    rep.add_argument("--manifest", required=True)
    rep.add_argument("--out", default=".")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    opts = vars(namespace)
    command = opts.pop("command")
    if command == "compare" and not opts.get("fig1") and opts.get("esd_b") is None:
        parser.error("--esd-a needs --esd-b")
    try:
        return _commands()[command](opts)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
