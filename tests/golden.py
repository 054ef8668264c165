"""Golden digests: the bytes of the CLI outputs and of source streams, by numpy version.

    python tests/golden.py           # compare the corpus with tests/golden.json
    python tests/golden.py --write   # record the corpus for this numpy version

The corpus is the sha256 of each output that a verb writes (``simulate``,
``calibrate`` and ``sweep`` on the ``perfbench/scenarios`` files at seed 7
and reduced sizes, at 1 and 2 workers, and ``analytic``), of the 21 cells
of the ``mc_table`` workload, and one digest per region of the source's
counted-cluster law over a grid of ``generate_herald_stream`` calls.  So a
change that moves bytes shows, in the file's diff, which outputs and which
law regions moved.  ``tests/test_golden.py`` recomputes the corpus.

numpy does not promise the same ``Generator`` streams across versions
(NEP 19), so the file keys the corpus by ``numpy.__version__``, and
``--write`` replaces only the running version's entry.  A version with
no entry is skipped by the test, with a reason that names the version.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
import sys

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # the test run puts src on the path itself
    sys.path.insert(0, str(ROOT / "src"))

from photondemux import source  # noqa: E402
from photondemux.config import load_scenario, override_controls  # noqa: E402
from photondemux.converter import monte_carlo_efficiency  # noqa: E402
from photondemux.model import RoutingStrategy, SourceParams  # noqa: E402
from photondemux.pipeline import run_analytic, run_calibrate, run_simulation, run_sweep, write_report, write_rows  # noqa: E402

FILE = Path(__file__).resolve().parent / "golden.json"
SCENARIOS = ROOT / "perfbench" / "scenarios"
SEED = 7
# per scenario file: (slots per trial, trials), cut so the corpus runs in about a second
SIZES = {"dense": (200_000, 1), "fixture": (2_000_000, 8), "mc_table": (20_000, 2), "sweep": (200_000, 1)}
# per region of the counted-cluster law: (pair_prob, deadtime) points, each K as _largest_counted sets it
REGIONS = {
    "w1_deadtime0": [(0.05, 0), (0.3, 0), (1.0, 0)],  # K = 6, 13, 16
    "w1_deadtime1": [(0.05, 1), (0.3, 1), (0.6, 1)],
    "k2": [(0.02, 37), (1e-7, 4)],  # a window of 23..512 slots, or q <= 1e-6
    "k3": [(0.05, 22), (0.3, 10)],  # K = 4 would take more than 512 gap vectors
    "k5": [(0.0043882, 4), (0.3, 4)],  # the fixture and dense points
    "k1": [(0.002, 600), (0.3, 600)],  # past 512 slots: every cluster placed
}
BATCH_REGIONS = {"batch3_w1": ["w1_deadtime0", "w1_deadtime1"], "batch3_w2plus": ["k2", "k3", "k5"]}
DETECTORS = [(1.0, 0.5), (0.7, 0.3)]  # (herald_det_efficiency, herald_splitter_ratio)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digests() -> dict[str, str]:
    """The verbs' outputs, as written, at 1 and 2 workers, and the mc_table cells."""
    out = {}
    for name, (slots, trials) in SIZES.items():
        scenario = override_controls(load_scenario(SCENARIOS / f"{name}.json"), seed=SEED,
                                     slots_per_trial=slots, trials=trials)
        for workers in (1, 2):
            at = override_controls(scenario, workers=workers)
            verbs = [("simulate", run_simulation), ("calibrate", run_calibrate)]
            if at.sweep.points() != [(None, None, None)]:
                verbs.append(("sweep", run_sweep))
            for verb, entry in verbs:
                text = io.StringIO()
                result = entry(at)
                (write_rows if isinstance(result, list) else write_report)(result, text)
                out[f"{verb} {name} workers={workers}"] = _sha(text.getvalue())
    for eta_sw in (1.0, 0.72):
        text = io.StringIO()
        write_rows(run_analytic(8, eta_sw), text)
        out[f"analytic eta_sw={eta_sw}"] = _sha(text.getvalue())
    grid = load_scenario(SCENARIOS / "mc_table.json")
    cells = [(s, n, eta) for s in grid.sweep.strategies for n in grid.sweep.n_modes
             for eta in (grid.sweep.eta_sw if s is not RoutingStrategy.PASSIVE_BEAMSPLITTER else (1.0,))]
    rows = [monte_carlo_efficiency(s, n, eta, grid.controls.trials, source.RngStream(SEED, (i,)).generator())
            for i, (s, n, eta) in enumerate(cells)]
    out["mc_table cells"] = _sha(json.dumps(rows))
    return out


def _stream_digest(points: list[tuple[float, int]], slot_counts: tuple[int, ...]) -> str:
    """One digest over the streams of ``points`` at every detector setting, range and seed.

    ``counted_blocks`` enters without its trailing zeros: their number is
    the width of the law's table, not a drawn value.
    """
    sha = hashlib.sha256()
    for (pair_prob, deadtime), (eff, ratio) in ((point, det) for point in points for det in DETECTORS):
        params = SourceParams(pair_prob=pair_prob, rep_rate_hz=82e6, herald_deadtime_slots=deadtime,
                              herald_det_efficiency=eff, herald_splitter_ratio=ratio)
        for n_slots in slot_counts:
            for seed in range(3):
                stream = source.generate_herald_stream(params, n_slots, source.RngStream(SEED, (seed,)).generator())
                for array in (stream.pair_slots.astype("<i8"), stream.to_detector_a, stream.fired,
                              np.trim_zeros(stream.counted_blocks, "b").astype("<i8")):
                    sha.update(array.tobytes())
                sha.update(f"{stream.pair_count} {stream.herald_count};".encode())
    return sha.hexdigest()


def stream_digests() -> dict[str, str]:
    """One digest per law region, and per group of regions in rounds of 3 super-units."""
    out = {f"streams {region}": _stream_digest(points, (10, 2000, 200_000)) for region, points in REGIONS.items()}
    batch_units = source._BATCH_UNITS
    source._BATCH_UNITS = 3
    try:
        for name, regions in BATCH_REGIONS.items():
            out[f"streams {name}"] = _stream_digest([p for r in regions for p in REGIONS[r]], (10, 2000))
    finally:
        source._BATCH_UNITS = batch_units
    return out


def corpus() -> dict[str, str]:
    return {**report_digests(), **stream_digests()}


def load() -> dict[str, dict[str, str]]:
    """The file: numpy version -> output -> sha256."""
    return json.loads(FILE.read_text())


def main(argv: "list[str] | None" = None) -> int:
    write = (argv if argv is not None else sys.argv[1:]) == ["--write"]
    version = np.__version__
    table = load() if FILE.exists() else {}
    now = corpus()
    before = table.get(version, {})
    changed = sorted(key for key in now.keys() | before.keys() if now.get(key) != before.get(key))
    for key in changed:
        print(f"{'changed' if key in before and key in now else 'new' if key in now else 'gone'}: {key}")
    if write:
        table[version] = now
        FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(now)} digests for numpy {version} to {FILE.name}")
        return 0
    print(f"{len(now) - len(changed)} of {len(now)} digests match numpy {version}'s entry")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
