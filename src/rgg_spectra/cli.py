"""Command-line front end: generate, spectrum, compare, bounds, replay.

Each data command returns its files; one runner writes them plus a
manifest.json (config echo, seed, versions, timestamp) into --out once the
command has succeeded.  `replay --manifest <file> --out <dir>` runs the
recorded command line through the same parser and mode checks as a typed
one, and reproduces every data file byte-for-byte.
Data goes to files and standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import check_matching_regime, check_tail_parameters, lemma1_degree_bound, lemma4_decomposition, lemma6_variance_bound, theorem1_rhs
from .dgg import dgg_band, dgg_eigenvalues_dft
from .geometry import INFINITY, MetricSpec, PointSet, average_degree, sample_uniform
from .geometry import grid_points  # noqa: F401  perfbench wraps it here until ROADMAP item 4
from .graph import _refuse_dense, build_adjacency, edge_list_text
from .harness import (
    ExperimentConfig,
    TrialResult,
    figure1_experiment,
    lattice_graph,
    probability_from_results,
    run_trials,
)
from .levy import levy_distance, levy_distance_oracle
from .matching import bottleneck_matching  # noqa: F401  perfbench wraps it here until ROADMAP item 4
from .spectra import Esd, _check_order, esd_eval, sym_eigenvalues

# Figure1Result's ESDs: cdf_table.csv and cdf.svg carry them, and
# compare.json every other field.
_FIG1_ARRAYS = ("esd_rgg", "esd_dgg")


class CliError(Exception):
    """A refused input file or manifest: message to stderr, exit 2."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _strict(value):
    """value with each non-finite float spelt "inf", "-inf" or "nan": RFC 8259 has no Infinity or NaN."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    return str(value) if isinstance(value, float) and not np.isfinite(value) else value


def _json_text(payload: dict) -> str:
    return json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid metric exponent {text!r}") from exc
    if not p >= 1:
        raise argparse.ArgumentTypeError(f"metric exponent must be >= 1 or 'inf', got {text}")
    return p


def _manifest_text(command: str, opts: dict) -> str:
    """manifest.json: every option but --out (an infinite p or r as "inf",
    input files as the absolute paths the parser made them, so that a replay
    from any directory reads them), plus versions.  scipy is imported here
    for its version only, so that importing the CLI does not load it."""
    import scipy

    args = {key: value for key, value in opts.items() if key != "out"}
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
    return _json_text(payload)


def _read_csv(path: str) -> np.ndarray:
    """The data rows of a CSV file after its header line, as a (rows, columns)
    array; the header sets the number of columns and blank lines are skipped."""
    rows = []
    with open(path) as handle:
        width = len(handle.readline().strip().split(","))
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                row = [float(cell) for cell in line.strip().split(",")]
            except ValueError as exc:
                raise CliError(f"parse error at {path}:{lineno}: {exc}") from exc
            if len(row) != width:
                raise CliError(f"parse error at {path}:{lineno}: expected {width} columns, got {len(row)}")
            rows.append(row)
    if not rows:
        raise CliError(f"parse error at {path}: no data rows")
    return np.array(rows)


def _svg_step_plot(esds: list[Esd], title: str) -> str:
    """Minimal hand-written step plot: axes plus one polyline per step CDF,
    blue for the first ESD and red for the second."""
    width, height = 640, 400
    left, right, top, bottom = 60, 620, 30, 360
    x_min = min(float(esd.eigenvalues[0]) for esd in esds)
    x_max = max(float(esd.eigenvalues[-1]) for esd in esds)
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
    for esd, color in zip(esds, ("#1f77b4", "#d62728")):
        atoms = np.unique(esd.eigenvalues)
        cdf = esd_eval(esd, atoms)
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


def cmd_generate(opts: dict) -> dict[str, str]:
    metric = MetricSpec(d=opts["d"], p=opts["p"])
    if opts.get("N") is not None:
        points, A = lattice_graph(opts["N"], opts["d"], opts["p"], opts["r"])
    else:
        _refuse_dense(opts["n"])  # the n x n adjacency's budget, checked before sampling
        points = sample_uniform(opts["n"], opts["d"], opts["seed"])
        A = build_adjacency(points, opts["r"], metric)
    header = [f"x{i + 1}" for i in range(points.d)]
    return {
        "points.csv": _csv_text(header, points.coords.T),
        "edges.txt": edge_list_text(A),
    }


def cmd_spectrum(opts: dict) -> dict[str, str]:
    if opts.get("dgg") is not None:
        N, d = opts["dgg"]
        values = dgg_eigenvalues_dft(N, d, opts["p"], opts["r"])
    else:
        coords = _read_csv(opts["input"])
        points = PointSet(coords=coords, kind="sample")
        _check_order(points.n)
        metric = MetricSpec(d=points.d, p=opts["p"])
        values = sym_eigenvalues(build_adjacency(points, opts["r"], metric))
    files = {"eigenvalues.csv": _csv_text(["eigenvalue"], [values])}
    if opts["plot"]:
        files["cdf.svg"] = _svg_step_plot([Esd(values)], "spectral CDF")
    return files


def cmd_compare(opts: dict) -> dict[str, str]:
    files = {}
    if opts.get("fig1"):
        result = figure1_experiment(n=opts["n"], d=opts["d"], seed=opts["seed"])
        esd_a, esd_b = result.esd_rgg, result.esd_dgg
        x = np.unique(np.concatenate([esd_a.eigenvalues, esd_b.eigenvalues]))
        files["cdf_table.csv"] = _csv_text(["x", "cdf_rgg", "cdf_dgg"], [x, esd_eval(esd_a, x), esd_eval(esd_b, x)])
        title = f"empirical vs analytic CDF, n={result.n}"
        payload = {field.name: getattr(result, field.name) for field in dataclasses.fields(result) if field.name not in _FIG1_ARRAYS}
    else:
        table_a, table_b = map(_read_csv, opts["esd"])
        if table_a.shape[1] != 1 or table_b.shape[1] != 1:
            raise CliError(f"--esd needs one eigenvalue column each, got {table_a.shape[1]} and {table_b.shape[1]}")
        esd_a, esd_b = Esd(table_a), Esd(table_b)
        title = "CDFs of the two --esd files"
        payload = {"levy": levy_distance(esd_a, esd_b)}
    if opts["plot"]:
        files["cdf.svg"] = _svg_step_plot([esd_a, esd_b], title)
    payload["levy_cubed"] = payload["levy"] ** 3
    if opts["oracle"] is not None:
        payload["oracle"] = levy_distance_oracle(esd_a, esd_b, opts["oracle"])
    files["compare.json"] = _json_text(payload)
    print(f"levy = {_fmt(payload['levy'])}")
    print(f"levy_cubed = {_fmt(payload['levy_cubed'])}")
    return files


def cmd_bounds(opts: dict) -> dict[str, str]:
    cfg = ExperimentConfig(**{field.name: opts[field.name] for field in dataclasses.fields(ExperimentConfig)})
    check_tail_parameters(cfg.t, cfg.a)
    r = cfg.r
    results = run_trials(cfg, check=lambda result: check_matching_regime(r, result.m_n))
    p_hat, stderr = probability_from_results(results, cfg.t)
    m_n_max = max(result.m_n for result in results)
    n = cfg.n
    a_n = average_degree(n, cfg.d, r)

    theorem1 = theorem1_rhs(cfg.t, n, cfg.d, cfg.p, r, a_n, m_n_max, cfg.a)

    lattice_degree = int(dgg_band(cfg.N, cfg.d, cfg.p, r).sum())
    lemma4 = lemma4_decomposition(results[0].trace_bound, results[0].xi_n, lattice_degree, n, r, cfg.metric)

    config = {**dataclasses.asdict(cfg), "a_n": a_n}
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
        "trials": config.pop("trials"),
        "config": config,
    }
    rows = [[i, *dataclasses.astuple(result)] for i, result in enumerate(results)]
    print(f"p_hat = {_fmt(p_hat)}")
    print(f"stderr = {_fmt(stderr)}")
    print(f"total = {_fmt(min(theorem1.total, 1.0))}")
    return {
        "bounds.json": _json_text(payload),
        "trials.csv": _csv_text(["trial", *(field.name for field in dataclasses.fields(TrialResult))], np.array(rows, dtype=float).T),
    }


def _commands() -> dict:
    """Every data command by name.  Built on each call, so that a wrapper set
    on one of this module's cmd_* attributes (perfbench traces cmd_bounds) runs."""
    return {
        "generate": cmd_generate,
        "spectrum": cmd_spectrum,
        "compare": cmd_compare,
        "bounds": cmd_bounds,
    }


def _replay_argv(parser: argparse.ArgumentParser, opts: dict) -> list[str]:
    """The command line --manifest records, with this call's --out: --key=value
    per option (so that a value such as -1e-05 is not read as an option), a
    bare flag if true, none if null or false, the --dgg pair comma-joined and
    the --esd pair as --esd A B (absolute paths, never read as options).
    A key must be the exact dest of one of its command's options, so that
    argparse's prefix matching never reads "se" as --seed nor "help" as --help."""
    with open(opts["manifest"]) as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise CliError("manifest is not a JSON object")
    command, args = manifest.get("command"), manifest.get("args")
    if not isinstance(command, str) or command not in _commands():
        raise CliError(f"manifest 'command' names no data command: {command!r}")
    if not isinstance(args, dict):
        raise CliError(f"manifest 'args' is not a JSON object: {args!r}")
    dests = {action.dest for action in _subparser(parser, command)._actions} - {"help"}
    unknown = sorted(set(args) - dests)
    if unknown:
        raise CliError(f"manifest 'args' names no {command} option: {', '.join(map(repr, unknown))}")
    argv = [command]
    for key, value in args.items():
        flag = "--" + key.replace("_", "-")
        if key == "dgg" and isinstance(value, list):
            value = ",".join(map(str, value))
        if key == "esd" and isinstance(value, list):
            argv += [flag, *map(str, value)]
        elif value is not None and value is not False:
            argv.append(flag + ("" if value is True else f"={value}"))
    return argv + [f"--out={opts['out']}"]


def _run(command: str, opts: dict) -> int:
    """Run one data command, then write its files and manifest.json into
    --out: a failed command leaves --out as it was, and an --out that mkdir
    would refuse fails before any work."""
    out = Path(opts["out"])
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out))
    files = _commands()[command](opts)
    files["manifest.json"] = _manifest_text(command, opts)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        with open(out / name, "w", newline="\n") as handle:
            handle.write(text)
    return 0


def _parse_dgg(text: str) -> tuple[int, int]:
    try:
        N, d = text.split(",")
        return int(N), int(d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--dgg needs 'N,d', got {text!r}") from exc


def _parse_oracle_step(text: str) -> float:
    """A finite --oracle step of at least 1e-4: the oracle scans eps = step,
    2 * step, ... up to the Levy distance, which is at most 1, so the floor
    caps the scan at 10^4 rounds (about 17 s at n = 2000)."""
    try:
        step = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid oracle step {text!r}") from exc
    if not 1e-4 <= step < np.inf:
        raise argparse.ArgumentTypeError(f"the oracle step must be finite and at least 1e-4, got {text}")
    return step


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgg-spectra",
        description="Geometric-graph spectra on the torus: generation, analytic "
        "lattice spectra, Levy-distance comparison, and tail-bound evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".")

    gen = sub.add_parser("generate", parents=[out], help="sample or grid points plus their adjacency edge list")
    size = gen.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="random sample size")
    size.add_argument("--N", type=int, help="grid side count (N^d points)")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--p", type=_parse_p, default=INFINITY)
    gen.add_argument("--r", type=float, required=True)
    gen.add_argument("--seed", type=int, help="--n sample seed (default 0)")

    spec = sub.add_parser("spectrum", parents=[out], help="eigenvalues of a point-set graph or the analytic lattice")
    source = spec.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=os.path.abspath, help="points.csv to build a graph from")
    source.add_argument("--dgg", type=_parse_dgg, metavar="N,d", help="the N^d grid lattice")
    spec.add_argument("--p", type=_parse_p, default=INFINITY)
    spec.add_argument("--r", type=float, required=True)
    spec.add_argument("--plot", action="store_true")

    comp = sub.add_parser("compare", parents=[out], help="Levy distance between two spectra")
    mode = comp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fig1", action="store_true", help="connectivity-regime CDF comparison")
    mode.add_argument("--esd", nargs=2, type=os.path.abspath, metavar=("A", "B"), help="two eigenvalue CSVs")
    comp.add_argument("--n", type=int, help="--fig1 sample size (default 2000)")
    comp.add_argument("--d", type=int, help="--fig1 dimension (default 1)")
    comp.add_argument("--seed", type=int, help="--fig1 seed (default 1)")
    comp.add_argument("--oracle", nargs="?", const=1e-3, type=_parse_oracle_step, metavar="STEP", help="grid-scan oracle with this step (default 1e-3)")
    comp.add_argument("--plot", action="store_true")

    bnd = sub.add_parser("bounds", parents=[out], help="tail-bound report plus Monte Carlo estimate")
    bnd.add_argument("--N", type=int, required=True)
    bnd.add_argument("--d", type=int, required=True)
    bnd.add_argument("--p", type=_parse_p, default=INFINITY)
    bnd.add_argument("--r", type=float, required=True)
    bnd.add_argument("--t", type=float, required=True)
    bnd.add_argument("--a", type=float, default=2.0)
    bnd.add_argument("--trials", type=int, required=True)
    bnd.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("replay", parents=[out], help="rerun a recorded command from its manifest")
    rep.add_argument("--manifest", required=True)
    return parser


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, whose errors print its own usage line."""
    return next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction)).choices[command]


def _parse(parser: argparse.ArgumentParser, argv: list[str] | None) -> tuple[str, dict]:
    """The command and options of a command line, converted by the parser; an
    option its mode never reads is refused (exit 2), not ignored and recorded,
    and an unknown one by its subcommand's parser."""
    namespace, unknown = parser.parse_known_args(argv)
    opts = vars(namespace)
    command = opts.pop("command")
    error = _subparser(parser, command).error
    if unknown:
        error(f"unrecognized arguments: {' '.join(unknown)}")
    if command == "generate":
        if opts["N"] is not None and opts["seed"] is not None:
            error("--seed is read only with --n")
        if opts["N"] is None and opts["seed"] is None:
            opts["seed"] = 0
    if command == "compare":
        fig1_defaults = {"n": 2000, "d": 1, "seed": 1}
        if opts["fig1"]:
            opts.update({key: value for key, value in fig1_defaults.items() if opts[key] is None})
        elif any(opts.pop(key) is not None for key in fig1_defaults):  # file mode records none of them
            error("--n, --d and --seed are read only with --fig1")
    return command, opts


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    command, opts = _parse(parser, argv)
    try:
        if command == "replay":
            command, opts = _parse(parser, _replay_argv(parser, opts))
        return _run(command, opts)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
