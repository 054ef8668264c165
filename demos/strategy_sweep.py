"""Sweep switching efficiency for every strategy and write a CSV.

Runs the full slot-level pipeline (not the closed forms) at each grid
point of a strategy x eta_sw grid, so the output reflects everything the
simulator models: heralding statistics, detector deadtime, routing, and
counting.  The closed forms are printed alongside as a cross-check.
"""

from pathlib import Path

from photondemux import run_sweep, s_closed_form, scenario_from_mapping

OUT = Path("strategy_sweep.csv")  # in the current directory

SCENARIO = {
    "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6, "herald_deadtime_slots": 4},
    "converter": {"n_modes": 2, "strategy": "heralded"},
    "run": {"seed": 12, "slots_per_trial": 4_000_000, "trials": 2},
    "sweep": {
        "strategy": ["heralded", "clocked", "passive"],
        "eta_sw": [0.5, 0.6, 0.72, 0.85, 1.0],
    },
}


def main() -> None:
    rows = run_sweep(scenario_from_mapping(SCENARIO), out_path=OUT)
    print(f"{'strategy':>9} {'eta_sw':>6} {'simulated':>10} {'closed':>8}")
    for row in rows:
        expected = s_closed_form(row["strategy"], row["n"], row["eta_sw"])
        print(f"{row['strategy']:>9} {row['eta_sw']:>6.2f} "
              f"{row['s_estimate']:>10.4f} {expected:>8.4f}")
    print(f"\nwrote {OUT.name}; the passive rows repeat one value because that")
    print("strategy has no switches for eta_sw to describe.")


if __name__ == "__main__":
    main()
