"""Reproduce a two-mode serial-to-parallel measurement end to end.

An 82 MHz pulsed source emits photon pairs; the idler arm heralds each
signal photon on one of two alternating detectors (40 ns deadtime keeps
a single detector from seeing two pulses in a row).  Two consecutive
heralds arm the router, the two signal photons are steered to separate
output ports through optics with transmittance 0.731 and routing
efficiencies 0.998, and a twofold coincidence is counted when both
output detectors fire in their aligned bins.

The run measures the per-herald delivered-photon probability in-stream
(calibration mode), then inverts the counting estimator

    S(2) = (C(2) / C_h(2)) / p^2

to recover the conversion efficiency.  Slot count is kept modest here so
the demo finishes in about a second; widen --slots for tighter errors.
"""

import argparse

from photondemux import run_calibrate, scenario_from_mapping

SCENARIO = {
    "source": {
        "pair_prob": 0.0043882,  # tuned for a ~785 cps two-herald rate
        "rep_rate_hz": 82e6,
        "herald_deadtime_s": 40e-9,  # 4 pulse slots
        "signal_det_efficiency": 0.079,
    },
    "converter": {
        "n_modes": 2,
        "strategy": "heralded",
        "transmittance": 0.731,
        "port_efficiencies": [0.998, 0.998],
    },
    "run": {"seed": 42, "slots_per_trial": 250_000_000, "trials": 4},
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", type=int, default=SCENARIO["run"]["slots_per_trial"],
                        help="slots per trial (default 2.5e8, about 3 s of beam time)")
    args = parser.parse_args()

    run = {**SCENARIO["run"], "slots_per_trial": args.slots}
    report = run_calibrate(scenario_from_mapping({**SCENARIO, "run": run}))
    seconds = report["slots_simulated"] / SCENARIO["source"]["rep_rate_hz"]
    est = report["s_estimate"]
    print(f"simulated {report['slots_simulated']:.2e} pulse slots ({seconds:.1f} s of beam time)")
    print(f"heralds seen:            {report['herald_count']}")
    print(f"two-herald trigger rate: C_h(2) = {report['c_h_rate']:.1f} cps")
    print(f"twofold coincidence rate: C(2)  = {report['c_n_rate']:.3f} cps")
    print(f"measured p = P_h(1)*eta_D =      {report['p_h1_eta_d']:.5f}")
    print(f"conversion efficiency:   S(2) = {est['value']:.3f} +/- {est['std_error']:.3f}")
    expected = 0.731**2 * 0.998**2
    print(f"\nt^2 * eta_1 * eta_2 =            {expected:.3f}")
    print("the estimate should agree with that product within its error bar;")
    print("detector inefficiency cancels because p is measured on the same stream.")


if __name__ == "__main__":
    main()
