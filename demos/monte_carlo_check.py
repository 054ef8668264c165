"""Check the routing simulator against the closed forms.

Each strategy's conversion probability has an exact expression, so the
Monte-Carlo router can be validated cell by cell: simulate a million
independent n-photon runs, compare the success frequency with the
formula, and report the deviation in standard errors.
"""

import numpy as np

from photondemux import monte_carlo_efficiency, s_closed_form

TRIALS = 1_000_000


def main() -> None:
    rng = np.random.default_rng(1)
    print(f"{TRIALS} runs per cell")
    print(f"{'strategy':>9} {'n':>2} {'eta_sw':>6} {'simulated':>12} {'closed form':>12} {'z':>6}")
    for strategy in ("heralded", "clocked", "passive"):
        etas = (1.0,) if strategy == "passive" else (0.5, 0.72, 1.0)
        for n in (2, 3, 4):
            for eta in etas:
                freq, se = monte_carlo_efficiency(strategy, n, eta, TRIALS, rng)
                expected = s_closed_form(strategy, n, eta)
                z = 0.0 if se == 0 else (freq - expected) / se
                print(f"{strategy:>9} {n:>2} {eta:>6.2f} {freq:>12.6f} {expected:>12.6f} {z:>+6.2f}")
    print("\nevery |z| should sit well below 4; the heralded eta_sw=1 cells")
    print("have zero variance because nothing can go wrong there.")


if __name__ == "__main__":
    main()
