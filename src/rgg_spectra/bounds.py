"""Numeric evaluators for the degree bound, the cubed-Levy decomposition
(from a trial's counts; tests/oracles.py has its matrix form), the
edge-count variance bound, and the three-term tail bound.

Every evaluator computes exactly the printed expression; nothing is clamped
or substituted.  Degenerate parameter regions are surfaced as flags
(`vacuous`) or errors, never silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import INFINITY, MetricSpec, average_degree, ball_volume_theta

# Unused here; perfbench wraps them here until ROADMAP item 3.
from .graph import build_adjacency  # noqa: F401
from .levy import levy_distance  # noqa: F401
from .spectra import sym_eigenvalues  # noqa: F401


def d_power(d: int, exponent_over_p: float, p: float) -> float:
    """d^(exponent/p), with the p = INFINITY limit value 1."""
    if p == INFINITY:
        return 1.0
    return float(d) ** (exponent_over_p / p)


def lemma1_degree_bound(d: int, p: float, a_n: float) -> float:
    """Upper bound d^{1/p} 2^d a_n (1 + 1/(2 a_n^{1/d}))^d on the lattice degree."""
    if not a_n > 0:
        raise ValueError(f"need a_n > 0, got {a_n}")
    return d_power(d, 1.0, p) * 2**d * a_n * (1.0 + 1.0 / (2.0 * a_n ** (1.0 / d))) ** d


def lemma6_variance_bound(d: int, a_n: float) -> float:
    """Printed edge-count variance bound theta^(d) + 2 theta^(d) a_n."""
    if not a_n > 0:
        raise ValueError(f"need a_n > 0, got {a_n}")
    theta = ball_volume_theta(d)
    return theta + 2.0 * theta * a_n


@dataclass(frozen=True)
class Lemma4Terms:
    """Instance values of the cubed-Levy decomposition chain.

    t0 is (1/n) tr(A_X - A_D)^2 under the alignment, for 0/1 matrices equal
    to (2 xi_n + n a' - 2 common)/n with common the ordered pairs adjacent in
    both; t_degree + t_L + t_aprime is the triangle-inequality aggregate with
    that count standing in for the binomial variables.  The chain
    L^3 <= t0 <= eq1_total holds on every instance, with L the Levy distance
    between the two spectra.
    """

    t0: float
    t_degree: float
    t_L: float
    t_aprime: float

    @property
    def eq1_total(self) -> float:
        return self.t_degree + self.t_L + self.t_aprime


def lemma4_decomposition(trace: float, edges: int, lattice_degree: int, n: int, r: float, m: MetricSpec) -> Lemma4Terms:
    """The decomposition chain from an aligned pair's counts (trace bound,
    sample edges, lattice degree a', order n) at radius r under m: common is
    recovered exactly from n trace = 2 edges + n a' - 2 common, and counts
    that no pair of 0/1 matrices has are refused."""
    differing = round(trace * n)
    twice_common = 2 * edges + n * lattice_degree - differing
    common = twice_common // 2
    if n < 1 or differing / n != trace or twice_common % 2 or not 0 <= common <= min(2 * edges, n * lattice_degree):
        raise ValueError(f"inconsistent counts: trace={trace}, edges={edges}, lattice_degree={lattice_degree}, n={n}")

    a_n = average_degree(n, m.d, r)
    coeff = d_power(m.d, 1.0, m.p) * 2 ** (m.d + 1)
    t_degree = coeff * abs(2 * edges / n - a_n)
    t_L = coeff * abs(a_n - 2.0 * common / n)

    return Lemma4Terms(t0=trace, t_degree=t_degree, t_L=t_L, t_aprime=float(lattice_degree))


@dataclass(frozen=True)
class Theorem1Report:
    """The three-term tail bound at one parameter point, log-space safe.

    term2 is reported as exp(term2_log) with saturation to +inf flagged;
    term2_volume is the alternative reading of the binomial parameter with
    the d-th power (reported alongside, never substituted into total).
    """

    term1: float
    term2: float
    term3: float
    total: float
    epsilon: float
    c: float
    vacuous: bool
    term2_log: float
    term2_saturated: bool
    term2_volume: float
    t: float
    a: float


def check_tail_parameters(t: float, a: float) -> None:
    """Reject a tail threshold t <= 0 or a Chernoff parameter a < 1."""
    if not t > 0:
        raise ValueError(f"need t > 0, got {t}")
    if not a >= 1:
        raise ValueError(f"need a >= 1, got {a}")


def check_matching_regime(r: float, M_n: float) -> None:
    """Reject a bottleneck distance M_n with r <= 2 M_n, outside Theorem 1."""
    if not r > 2.0 * M_n:
        raise ValueError(f"need r > 2*M_n, got r={r}, M_n={M_n}")


def theorem1_rhs(
    t: float, n: int, d: int, p: float, r: float, a_n: float, M_n: float, a: float
) -> Theorem1Report:
    """Evaluate the three-term tail bound exactly as printed.

    epsilon <= 0 sets the vacuous flag (bound exceeds 1, still reported);
    r <= 2 M_n is a hard error since the bound's derivation needs r > 2 M_n.
    """
    check_tail_parameters(t, a)
    check_matching_regime(r, M_n)
    if not a_n > 0:
        raise ValueError(f"need a_n > 0, got {a_n}")

    theta = ball_volume_theta(d)
    c = (1.0 + 1.0 / (2.0 * a_n ** (1.0 / d))) ** d
    shrink = 1.0 - 2.0 * M_n / r
    epsilon = t / (d_power(d, 1.0, p) * 2 ** (d + 2) * a_n) + (2.0 - c) / 4.0 - 2.0 * M_n / r
    vacuous = epsilon <= 0.0

    term1 = 2.0 * n * math.exp(-a_n * epsilon * epsilon * shrink / 3.0)

    exponent = t / (d_power(d, 1.0, p) * 2 ** (d + 3)) + a_n * (2.0 - c) / 4.0

    def generating_term(success_prob_base: float) -> tuple[float, float, bool]:
        log_value = math.log(n) + n * math.log1p(success_prob_base * (a - 1.0)) - exponent * math.log(a)
        try:
            value = math.exp(log_value)
            saturated = False
        except OverflowError:
            value = math.inf
            saturated = True
        return value, log_value, saturated

    term2, term2_log, term2_saturated = generating_term(theta * (r - 2.0 * M_n))
    term2_volume, _, _ = generating_term(theta * (r - 2.0 * M_n) ** d)

    term3 = d_power(d, 2.0, p) * 2 ** (2 * d + 6) * lemma6_variance_bound(d, a_n) / (n * n * t * t)

    return Theorem1Report(
        term1=term1,
        term2=term2,
        term3=term3,
        total=term1 + term2 + term3,
        epsilon=epsilon,
        c=c,
        vacuous=vacuous,
        term2_log=term2_log,
        term2_saturated=term2_saturated,
        term2_volume=term2_volume,
        t=t,
        a=a,
    )

