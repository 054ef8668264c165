"""Routing of signal-photon runs to output ports, three ways.

Active heralded routing drives the switches from the heralding signals
themselves: photon j is steered toward port j, survives the converter
optics with probability t (lumped, once per traversal), and given
survival exits its designated port with probability eta_j, else a
uniformly random other port.  Success for the conversion tally means
photon j is *detected at port j*: coincidence gating is time aligned, so
a photon on the wrong port falls outside its bin and never fakes a
success.  The expected success rate is therefore t^n * prod(eta_i).

Active clocked routing ignores the photons and cycles with a divided
clock: photon j is scheduled for port (j + offset) mod n with the run's
phase offset uniform in 0..n-1, and reaches the scheduled port with the
composite probability eta_sw.  Conversion succeeds only when the phase
happens to be aligned and no photon strays.

Passive routing sends each photon out a uniformly random port (ideal
lossless splitter), succeeding when every photon happens to pick its own
designated port: (1/n)^n.

Many runs are routed at the level of counts, exactly in law (the
conditional-distribution method; Devroye, *Non-Uniform Random Variate
Generation*, 1986).  The photons of a run are independent given its clock
phase, so over T runs photon i's landings are Multinomial(T, pi_i) over
n + 2 categories: detected on port 0..n-1, lost in the optics, arrived
undetected.  Given those rows, the runs where photon i was detected on
port i are a uniform subset of size M_ii, so the success count is the
hypergeometric chain K_1 = M_11, K_{i+1} = Hypergeom(K_i, T - K_i, M_{i+1,i+1}).
The cost does not grow with T.

The laws pi_i are small, so each router builds them as rows of plain
floats and makes one array of them; a clocked phase rotates the aligned
rows.  Only the arrival probability of a row is a numpy row sum, whose
pairwise order the laws keep bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ConverterParams, RoutingStrategy
from .source import RngStream

# numpy's hypergeometric takes ngood, nbad < 1e9: longer batches are
# routed in iid pieces of at most this many runs
_PIECE = 10**9 - 1


@dataclass(frozen=True)
class RoutingBatch:
    """Outcome of many independent n-photon runs, as counts.

    ``success_count`` counts the runs in which every photon j was
    detected at port j; ``port_counts[i, j]`` counts photon i detected
    at port j.
    """

    n_modes: int
    success_count: int
    port_counts: np.ndarray  # (n, n) int64


def _count_runs(groups: "Sequence[int]", laws: "Sequence[np.ndarray]",
                rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Landing counts and success count of groups of iid runs.

    ``groups[g]`` runs have per-photon law ``laws[g]``, an (n, n + 2)
    array over the categories detected on port 0..n-1, lost in the
    optics, arrived undetected.  Returns the summed (n, n + 2) table of
    counts and the number of runs where every photon i was detected on
    port i.
    """
    n = laws[0].shape[0]
    counts = np.zeros((n, n + 2), dtype=np.int64)
    successes = 0
    for runs, probs in zip(groups, laws):
        while runs > 0:
            m = min(runs, _PIECE)
            rows = rng.multinomial(m, probs)
            k = int(rows[0, 0])
            for i in range(1, n):
                k = int(rng.hypergeometric(k, m - k, rows[i, i]))
            counts += rows
            successes += k
            runs -= m
    return counts, successes


def _batch(n: int, counts: np.ndarray, successes: int) -> RoutingBatch:
    return RoutingBatch(n_modes=n, success_count=successes, port_counts=counts[:, :n])


def _landing_law(on_port: "list[list[float]]", eta_d: float) -> "list[list[float]]":
    """Rows of the (n, n + 2) per-photon law from where photons land.

    ``on_port[i][j]`` is the probability photon i reaches port j; the rest
    of its row is lost in the optics.  Each arrival is then detected with
    probability ``eta_d``.  Rows are plain floats: one ``np.array`` call
    makes a law, or a stack of laws, of them.
    """
    # numpy's pairwise row sum: a left-to-right float sum rounds differently from n = 8 on
    arrived = np.add.reduce(on_port, axis=1).tolist()
    missed = 1.0 - eta_d
    return [[p * eta_d for p in row] + [max(1.0 - a, 0.0), a * missed]  # rounding may leave -1e-16
            for row, a in zip(on_port, arrived)]


def _aimed(n: int, hits: "Sequence[float]", scale: float = 1.0) -> "list[list[float]]":
    """Rows of photons aimed at port i, each on it with ``scale * hits[i]``.

    A strayed photon takes a uniform other port; with a single port there
    is none, so it leaves the designated mode and counts as lost.
    """
    rows = []
    for i, hit in enumerate(hits):
        row = [scale * ((1.0 - hit) / max(n - 1, 1))] * n
        row[i] = scale * hit
        rows.append(row)
    return rows


def route_heralded_batch(
    runs: int,
    params: ConverterParams,
    rng: np.random.Generator,
    signal_det_efficiency: float = 1.0,
) -> RoutingBatch:
    """Route ``runs`` independent heralded n-photon runs."""
    if params.strategy is not RoutingStrategy.ACTIVE_HERALDED:
        raise ValueError(f"heralded routing called with strategy {params.strategy.value!r}")
    n = params.n_modes
    on_port = _aimed(n, params.port_efficiencies, params.transmittance)
    laws = [np.array(_landing_law(on_port, signal_det_efficiency))]
    return _batch(n, *_count_runs([runs], laws, rng))


def route_clocked_batch(
    runs: int,
    params: ConverterParams,
    rng: np.random.Generator,
    signal_det_efficiency: float = 1.0,
) -> RoutingBatch:
    """Route ``runs`` clocked n-photon runs.

    Each run's clock phase is uniform (the divided clock free-runs
    relative to photon arrivals): the runs split into phase groups by a
    Multinomial(runs, 1/n, ...) draw, and each group is routed with
    photon j aimed at port (j + phase) mod n.  Every photon shares one
    switching efficiency, so photon j's row at a phase is photon
    (j + phase) mod n's aligned row: a phase's law rotates the aligned rows.
    """
    if params.strategy is not RoutingStrategy.ACTIVE_CLOCKED:
        raise ValueError(f"clocked routing called with strategy {params.strategy.value!r}")
    n = params.n_modes
    rows = _landing_law(_aimed(n, [params.switching_efficiency] * n), signal_det_efficiency)
    laws = np.array([rows[phase:] + rows[:phase] for phase in range(n)])
    return _batch(n, *_count_runs(rng.multinomial(runs, [1.0 / n] * n), laws, rng))


def route_passive_batch(
    runs: int,
    params: ConverterParams,
    rng: np.random.Generator,
    signal_det_efficiency: float = 1.0,
) -> RoutingBatch:
    """Route ``runs`` runs through an ideal lossless 1-to-n splitter."""
    if params.strategy is not RoutingStrategy.PASSIVE_BEAMSPLITTER:
        raise ValueError(f"passive routing called with strategy {params.strategy.value!r}")
    n = params.n_modes
    laws = [np.array(_landing_law([[1.0 / n] * n] * n, signal_det_efficiency))]
    return _batch(n, *_count_runs([runs], laws, rng))


def route_runs(
    runs: int,
    params: ConverterParams,
    rng: np.random.Generator,
    signal_det_efficiency: float = 1.0,
) -> RoutingBatch:
    """Route ``runs`` runs with the router ``params.strategy`` picks."""
    # the routers are looked up by module name at each call, so a wrapper
    # set on this module (the benchmark's spans) sees every routed run
    if params.strategy is RoutingStrategy.ACTIVE_HERALDED:
        return route_heralded_batch(runs, params, rng, signal_det_efficiency=signal_det_efficiency)
    if params.strategy is RoutingStrategy.ACTIVE_CLOCKED:
        return route_clocked_batch(runs, params, rng, signal_det_efficiency=signal_det_efficiency)
    return route_passive_batch(runs, params, rng, signal_det_efficiency=signal_det_efficiency)


def monte_carlo_efficiency(
    strategy: "RoutingStrategy | str",
    n_modes: int,
    eta_sw: float,
    trials: int,
    rng: "RngStream | np.random.Generator",
) -> tuple[float, float]:
    """Empirical conversion efficiency over ``trials`` independent runs.

    Returns (success frequency, binomial standard error).  ``eta_sw`` is
    realized as the converter transmittance with ideal ports, as a sweep
    point realizes it; passive ignores it, but it must still lie in 0..1.
    An ``RngStream`` is turned into its generator once.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    params = ConverterParams(n_modes=n_modes, strategy=strategy, transmittance=eta_sw)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    freq = route_runs(trials, params, gen).success_count / trials
    std_error = float(np.sqrt(freq * (1.0 - freq) / trials))
    return freq, std_error
