"""Estimate per-port routing efficiencies from landing statistics.

Every routed photon either exits its designated port or, with
probability 1 - eta_i, strays to another one.  Tallying where each
photon of a run was detected gives a landing table whose diagonal
fraction estimates eta_i directly; optical loss and detector
inefficiency cancel because they hit every landing alike.

The demo runs the pipeline twice: once with active routers set to
eta = [0.99, 0.98], once with a passive splitter, whose "routing
efficiency" is just the 50/50 coin flip.
"""

from photondemux import estimate_routing_efficiencies, execute_scenario, scenario_from_mapping


def landing_table(ports, run):
    doc = {
        "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6, "herald_deadtime_slots": 4,
                   "signal_det_efficiency": 0.6},
        "converter": {"n_modes": 2, "strategy": "heralded", "transmittance": 0.731,
                      "port_efficiencies": list(ports)},
        "run": run,
    }
    if ports == (0.5, 0.5):  # model chance routing with the splitter itself
        doc["converter"] = {"n_modes": 2, "strategy": "passive"}
    return execute_scenario(scenario_from_mapping(doc))["port_counts"]


def report(label, counts, targets):
    print(f"\n{label}")
    print("landing counts (row: photon, column: port):")
    for row in counts:
        print(f"  {row[0]:>7} {row[1]:>7}")
    for i, ((value, err), target) in enumerate(zip(estimate_routing_efficiencies(counts), targets)):
        print(f"eta_{i} = {value:.4f} +/- {err:.4f}   (set to {target})")


def main() -> None:
    run = {"seed": 6, "slots_per_trial": 4_000_000, "trials": 1}
    report("active routers:", landing_table((0.99, 0.98), run), (0.99, 0.98))
    report("passive splitter:", landing_table((0.5, 0.5), run), (0.5, 0.5))
    print("\nboth recoveries work off detected photons only, so the 0.731")
    print("transmittance and the 0.6 detector efficiency drop out.")


if __name__ == "__main__":
    main()
