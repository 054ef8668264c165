"""Tabulate the closed-form conversion efficiencies.

Three ways to turn a serial train of n heralded photons into n parallel
spatial modes:

- heralded routing: every router is driven by the heralding signal, so
  the only loss is the switching efficiency once per photon, S = eta^n
- clocked routing: a free-running divided clock cycles the routers, so
  conversion also needs the lucky phase alignment
- passive splitting: a 1-to-n splitter and pure chance, S = (1/n)^n

The script prints the ideal-hardware table, then the same comparison at
a realistic switching efficiency, and writes a plot-ready CSV.
"""

from pathlib import Path

from photondemux import run_analytic, s_heralded, s_unheralded_clocked, write_rows

OUT = Path("closed_form_curves.csv")  # in the current directory


def show(rows, eta):
    print(f"\nconversion efficiency S(n) at eta_sw = {eta}")
    print(f"{'n':>3} {'heralded':>10} {'clocked':>10} {'passive':>10}")
    for row in rows:
        clocked = "-" if row["clocked"] is None else f"{row['clocked']:.6f}"
        print(f"{row['n']:>3} {row['heralded']:>10.6f} {clocked:>10} {row['passive']:>10.6f}")


def main() -> None:
    show(run_analytic(6, 1.0), 1.0)
    print("\nwith ideal switches the heralded strategy never loses a photon,")
    print("the clocked one still pays the 1/n phase lottery, and the passive")
    print("splitter pays it once per photon.")

    rows = run_analytic(6, 0.72)
    write_rows(rows, OUT)
    show(rows, 0.72)

    # the two active strategies trade places at eta_sw = 1/n
    n = 2
    for eta in (0.4, 0.5, 0.6):
        h, c = s_heralded(n, eta), s_unheralded_clocked(n, eta)
        relation = "<" if h < c else ("=" if h == c else ">")
        print(f"\n  n=2, eta_sw={eta}: heralded {h:.4f} {relation} clocked {c:.4f}")
    print(f"\nwrote {OUT.name} (columns n, heralded, clocked, passive)")


if __name__ == "__main__":
    main()
