"""The benchmark workloads: inputs derived from the workload seed, one timed
operation through rgg_spectra's user-facing entry points, and output checks.

Each workload is a closed loop with one caller.  ``run`` is the only code
inside the timed region; ``check`` runs after it, untimed and untraced, and
returns a list of problems (empty when the output is correct).  No check
depends on which of several optimal matchings the program picks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# The seed whose first operation is the set-up warm-up and carries the
# recorded reference values.
DEFAULT_SEED = 0

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def op_seed(workload_seed: int, index: int) -> int:
    """Seed handed to the program for operation `index` of a run."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class OpInput:
    workload_seed: int
    index: int
    seed: int


def make_input(workload_seed: int, index: int) -> OpInput:
    return OpInput(workload_seed, index, op_seed(workload_seed, index))


# Eigenvalue moments must meet the adjacency's trace identities to within
# this share of the degree sum: sum(lambda) = tr A = 0 and
# sum(lambda^2) = tr A^2 = sum of degrees.  A double-precision solver stays
# near 1e-15; rounding the eigenvalues to single precision gives about 1e-8.
MOMENT_TOLERANCE = 1e-12


def moment_problems(label: str, eigenvalues: np.ndarray, n: int, degree_sum: float) -> list[str]:
    problems = []
    if len(eigenvalues) != n:
        problems.append(f"{label} spectrum has {len(eigenvalues)} eigenvalues, expected {n}")
    total, squares = float(eigenvalues.sum()), float(eigenvalues @ eigenvalues)
    if abs(total) > MOMENT_TOLERANCE * degree_sum:
        problems.append(f"{label} eigenvalue sum {total!r} is not 0")
    if abs(squares - degree_sum) > MOMENT_TOLERANCE * degree_sum:
        problems.append(f"{label} eigenvalue square sum {squares!r} is not the degree sum {degree_sum}")
    return problems


@dataclass
class Fig1Compare:
    """Figure-1 spectral comparison: dense eigensolve at n = 2000, no matching.

    The control for matching changes, and where eigensolver or adjacency
    changes show.
    """

    n: int = 2000
    reference: dict | None = field(default=None, repr=False)
    name = "fig1-compare"
    d = 1
    trials_per_op = 1

    def run(self, pkg, inp: OpInput):
        return pkg.harness.figure1_experiment(n=self.n, d=self.d, seed=inp.seed)

    def check(self, pkg, inp: OpInput, out, counts) -> list[str]:
        problems = []
        if not 0.0 <= out.levy <= 1.0:
            problems.append(f"Levy distance {out.levy} outside [0, 1]")
        lattice_degree = (2 * out.k + 1) ** out.d - 1
        problems += moment_problems("lattice", out.esd_dgg.eigenvalues, out.n, out.n * lattice_degree)
        # The random graph's spectrum against the degrees of its adjacency,
        # rebuilt here from the operation's seed.
        sample = pkg.geometry.sample_uniform(out.n, out.d, inp.seed)
        adjacency = pkg.graph.build_adjacency(sample, out.r, pkg.geometry.MetricSpec(d=out.d, p=math.inf))
        problems += moment_problems("random-graph", out.esd_rgg.eigenvalues, out.n, int(adjacency.degrees().sum()))
        if self.reference is not None and (inp.workload_seed, inp.index) == (DEFAULT_SEED, 0):
            problems += compare_reference(self.reference, {"levy": out.levy})
        return problems


def wrapped_distances_linf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs l_infinity distances on the unit torus, computed here
    independently of the program's geometry module."""
    delta = np.abs(a[:, None, :] - b[None, :, :])
    return np.minimum(delta, 1.0 - delta).max(axis=-1)


def bottleneck_problems(m_n: float, assignment: np.ndarray, distances: np.ndarray) -> list[str]:
    """Certify m_n as the optimal bottleneck value: `assignment` is a
    perfect matching whose largest distance is m_n, and the pairs strictly
    closer than m_n admit no perfect matching (scipy's Hopcroft-Karp, called
    here directly).  Holds for every optimal assignment."""
    n = distances.shape[0]
    if not np.array_equal(np.sort(assignment), np.arange(n)):
        return ["assignment is not a permutation"]
    problems = []
    worst = distances[np.arange(n), assignment].max()
    if abs(worst - m_n) > 1e-12:
        problems.append(f"assignment's largest distance {worst!r} differs from m_n {m_n!r}")
    below = maximum_bipartite_matching(csr_matrix(distances < m_n - 1e-12), perm_type="column")
    if np.all(below >= 0):
        problems.append(f"a perfect matching exists below m_n {m_n!r}: m_n is not the optimum")
    return problems


@dataclass
class McLatticeD1:
    """Monte Carlo tail estimate in d = 1: a block of trials per operation,
    each dominated by the bottleneck matching's bipartite-matching probes."""

    N: int = 128
    trials: int = 32
    reference: dict | None = field(default=None, repr=False)
    name = "mc-lattice-d1"
    r = 0.1
    t = 0.005

    @property
    def trials_per_op(self) -> int:
        return self.trials

    def config(self, pkg, inp: OpInput):
        return pkg.harness.ExperimentConfig(
            N=self.N, d=1, p=math.inf, r=self.r, t=self.t, trials=self.trials, seed=inp.seed
        )

    def run(self, pkg, inp: OpInput):
        return pkg.harness.estimate_probability(self.config(pkg, inp), self.trials)

    def checked_trial(self, pkg, inp: OpInput):
        """Recompute one trial of the block (varying with the operation index),
        an assignment witnessing its m_n, and the sample-to-grid distances."""
        cfg = self.config(pkg, inp)
        index = inp.index % self.trials
        trial = pkg.harness.run_trial(cfg, index)
        sample = pkg.geometry.sample_uniform(cfg.n, 1, pkg.harness.trial_seed(cfg.seed, index))
        grid = pkg.geometry.grid_points(self.N, 1)
        assignment = np.asarray(pkg.matching.bottleneck_matching(sample, grid, cfg.metric).assignment)
        return trial, assignment, wrapped_distances_linf(sample.coords, grid.coords)

    def check(self, pkg, inp: OpInput, out, counts) -> list[str]:
        problems = []
        p_hat, stderr = out
        exceed = p_hat * self.trials
        if not (0.0 <= p_hat <= 1.0 and abs(exceed - round(exceed)) < 1e-9):
            problems.append(f"p_hat {p_hat} is not a count over {self.trials} trials")
        if abs(stderr - math.sqrt(p_hat * (1.0 - p_hat) / self.trials)) > 1e-12:
            problems.append(f"stderr {stderr} does not match p_hat {p_hat}")

        trial, assignment, distances = self.checked_trial(pkg, inp)
        problems += bottleneck_problems(trial.m_n, assignment, distances)
        # L^3 <= (1/n) tr(A - B)^2; the slack covers the Levy bisection tolerance.
        if not trial.levy_cubed <= trial.trace_bound + 1e-8:
            problems.append(f"levy_cubed {trial.levy_cubed} exceeds trace_bound {trial.trace_bound}")
        if (p_hat == 0.0 and trial.levy_cubed > self.t) or (p_hat == 1.0 and trial.levy_cubed <= self.t):
            problems.append(f"p_hat {p_hat} disagrees with trial levy_cubed {trial.levy_cubed}")

        if self.reference is not None and (inp.workload_seed, inp.index) == (DEFAULT_SEED, 0):
            problems += compare_reference(self.reference, reference_values(p_hat, trial))
        return problems


# Tolerances for the recorded reference values.  The Levy distance is found
# by bisection to 1e-9, so it (and its cube) may move by a few 1e-9 when
# eigenvalues change in their last digits; m_n, xi_n and p_hat are exact at
# these sizes.
REFERENCE_TOLERANCE = {"levy": 1e-8, "levy_cubed": 1e-8, "m_n": 1e-12, "xi_n": 0, "p_hat": 0}


def reference_values(p_hat: float, trial) -> dict:
    return {"levy_cubed": trial.levy_cubed, "m_n": trial.m_n, "xi_n": trial.xi_n, "p_hat": p_hat}


def compare_reference(reference: dict, values: dict) -> list[str]:
    return [
        f"{key} = {value!r} differs from the reference {reference[key]!r} by more than {REFERENCE_TOLERANCE[key]}"
        for key, value in values.items()
        if not abs(value - reference[key]) <= REFERENCE_TOLERANCE[key]
    ]


# bounds.json keys documented as the stable schema in the repository README.
BOUNDS_SCHEMA = {
    "lemma1": None,
    "trace": None,
    "lemma4": ("t_degree", "t_L", "t_aprime"),
    "lemma6": None,
    "theorem1": ("term1", "term2", "term3", "total", "epsilon", "c", "vacuous"),
    "p_hat": None,
    "stderr": None,
    "m_n_max": None,
    "trials": None,
    "config": None,
}
TRIALS_COLUMNS = ("trial", "levy_cubed", "trace_bound", "m_n", "xi_n")


@dataclass
class BoundsCli:
    """`rgg-spectra bounds` in d = 2 under l2: explicit lattice eigensolve,
    cell-list adjacency, short matching probes, bound evaluators, file output."""

    out_dir: Path
    trials: int = 4
    name = "bounds-cli-d2-l2"
    trials_per_op = 1
    N = 24
    r = 0.25
    t = 0.001

    def argv(self, inp: OpInput) -> list[str]:
        return [
            "bounds", "--N", str(self.N), "--d", "2", "--p", "2", "--r", str(self.r), "--t", str(self.t),
            "--trials", str(self.trials), "--seed", str(inp.seed), "--out", str(self.out_dir),
        ]  # fmt: skip

    def run(self, pkg, inp: OpInput):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = pkg.cli.main(self.argv(inp))
        return code, stdout.getvalue()

    def check(self, pkg, inp: OpInput, out, counts) -> list[str]:
        code, stdout = out
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            bounds = json.loads((self.out_dir / "bounds.json").read_text())
            rows = (self.out_dir / "trials.csv").read_text().splitlines()
            header, table = rows[0].split(","), np.array([row.split(",") for row in rows[1:]], dtype=float)
        except (OSError, ValueError, IndexError) as exc:
            return problems + [f"unreadable output: {exc}"]
        finally:
            # Remove this operation's files so the next check sees only its own.
            for path in self.out_dir.iterdir():
                counts["cli.bytes_written"] += path.stat().st_size
                path.unlink()
        for key, inner in BOUNDS_SCHEMA.items():
            if key not in bounds:
                problems.append(f"bounds.json lacks {key!r}")
            elif inner is not None and any(sub not in bounds[key] for sub in inner):
                problems.append(f"bounds.json {key!r} lacks one of {inner}")
        if problems:
            return problems
        if table.shape != (self.trials, len(TRIALS_COLUMNS)) or header != list(TRIALS_COLUMNS):
            return [f"trials.csv has header {header} and shape {table.shape}, expected {self.trials} rows of {TRIALS_COLUMNS}"]
        trial = dict(zip(TRIALS_COLUMNS, table.T))
        # Both files are written with 17 significant digits, so the
        # aggregates in bounds.json must match trials.csv exactly.
        p_hat = np.count_nonzero(trial["levy_cubed"] > self.t) / self.trials
        if bounds["p_hat"] != p_hat:
            problems.append(f"bounds.json p_hat {bounds['p_hat']} is not the share {p_hat} of trials with levy_cubed > t")
        if bounds["m_n_max"] != trial["m_n"].max():
            problems.append(f"bounds.json m_n_max {bounds['m_n_max']} is not the largest trial m_n {trial['m_n'].max()}")
        # L^3 <= (1/n) tr(A - B)^2 in every trial; slack for the Levy bisection.
        if np.any(trial["levy_cubed"] > trial["trace_bound"] + 1e-8):
            problems.append("a trial's levy_cubed exceeds its trace_bound")
        if f"p_hat = {format(p_hat, '.17g')}" not in stdout.splitlines():
            problems.append(f"standard output lacks the line p_hat = {p_hat}")
        return problems


def load_reference(name: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[name]


def build(name: str, out_dir: Path):
    """The workload called `name`, at the sizes the benchmark measures."""
    if name == "fig1-compare":
        return Fig1Compare(reference=load_reference(name))
    if name == "mc-lattice-d1":
        return McLatticeD1(reference=load_reference(name))
    if name == "bounds-cli-d2-l2":
        return BoundsCli(out_dir=out_dir)
    raise ValueError(f"unknown workload {name!r}")
