"""Closed-form conversion efficiencies for the three routing strategies.

``s_heralded``: active routers driven by heralding signals.
``s_unheralded_clocked``: active routers free-running on a divided clock.
``s_passive``: balanced beamsplitters (lossless ideal).
``s_closed_form``: whichever of the three a strategy names.

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

from .model import RoutingStrategy


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


def s_closed_form(strategy: "RoutingStrategy | str", n: int, eta_sw: float) -> float:
    """S(n) of the named strategy; passive ignores ``eta_sw``."""
    strategy = RoutingStrategy.parse(strategy)
    if strategy is RoutingStrategy.ACTIVE_HERALDED:
        return s_heralded(n, eta_sw)
    if strategy is RoutingStrategy.ACTIVE_CLOCKED:
        return s_unheralded_clocked(n, eta_sw)
    return s_passive(n)
