"""Closed-form conversion efficiencies for the three routing strategies.

``s_heralded``: active routers driven by heralding signals.
``s_unheralded_clocked``: active routers free-running on a divided clock.
``s_passive``: balanced beamsplitters (lossless ideal).

All three give the probability S(n) that a stream of n photons ends up
with photon i on output i.  The clocked converter only succeeds outright
when the divided clock happens to be aligned with the first photon of the
run; with a misaligned clock every photon must reach its designated port
through a routing error, with misroutes spread uniformly over the other
n - 1 ports.  Averaging over the n equally likely clock phases gives

    S(n) = (1/n) * [eta_sw**n + (n-1) * ((1 - eta_sw) / (n-1))**n]

which the Monte-Carlo converter reproduces trial by trial.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_eta(eta_sw: float) -> None:
    if not 0.0 <= eta_sw <= 1.0:
        raise ValueError(f"eta_sw out of range: {eta_sw!r}")


def s_heralded(n: int, eta_sw: float) -> float:
    """Conversion efficiency with heralding-driven routers: eta_sw**n."""
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    _check_eta(eta_sw)
    return eta_sw**n


def s_unheralded_clocked(n: int, eta_sw: float) -> float:
    """Conversion efficiency with clock-driven routers (no heralding).

    Defined for n >= 2; a single output mode has no clock phase to miss,
    use :func:`s_heralded` for n = 1.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 for clocked conversion (got {n}); use s_heralded for n = 1")
    _check_eta(eta_sw)
    return (eta_sw**n + (n - 1) * ((1.0 - eta_sw) / (n - 1)) ** n) / n


def s_passive(n: int) -> float:
    """Best-case conversion efficiency of a balanced-beamsplitter fan-out.

    Each photon independently picks one of n ports, so only one of the
    n**n equally likely assignments is correct.  Attainable only with
    negligible splitter loss; there is deliberately no lossy variant.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    return 1.0 / n**n


@dataclass(frozen=True)
class EfficiencyCurve:
    """S(n) tabulated against n for one strategy at fixed eta_sw."""

    strategy: str
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.points]
        if ns != sorted(set(ns)):
            raise ValueError("curve points must have strictly increasing n")
        for n, s in self.points:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"S({n}) = {s!r} outside [0, 1]")

    def value_at(self, n: int) -> float:
        for m, s in self.points:
            if m == n:
                return s
        raise KeyError(f"no point at n = {n}")


def efficiency_curves(n_max: int, eta_sw: float) -> tuple[EfficiencyCurve, EfficiencyCurve, EfficiencyCurve]:
    """Tabulate all three strategies for n = 1..n_max (clocked from n = 2).

    Returns (heralded, clocked, passive) curves, ready for CSV emission or
    plotting.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2 (got {n_max})")
    _check_eta(eta_sw)
    heralded = EfficiencyCurve(
        "heralded", tuple((n, s_heralded(n, eta_sw)) for n in range(1, n_max + 1))
    )
    clocked = EfficiencyCurve(
        "clocked", tuple((n, s_unheralded_clocked(n, eta_sw)) for n in range(2, n_max + 1))
    )
    passive = EfficiencyCurve(
        "passive", tuple((n, s_passive(n)) for n in range(1, n_max + 1))
    )
    return heralded, clocked, passive
