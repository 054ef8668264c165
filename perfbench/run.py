"""Benchmark command for photondemux.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One workload runs per process, so that peak RSS is the workload's own;
``--workload all`` runs each workload in a child process.  Every
repetition of a workload runs the same inputs, made from ``--seed``, and
repetitions continue until ``--seconds`` have passed.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics.  After the timed repetitions and the memory reading, one
untimed traced repetition counts the slots and routed runs behind the
throughputs.

``--trace 1`` alternates untraced and traced repetitions (and, on
``fixture``, repetitions at ``workers=2``), prints the per-layer metrics
and a per-layer table, and writes every span as JSON lines to
``perfbench/out/<workload>-seed<seed>.spans.jsonl``.

Every repetition's outputs are checked (see ``workloads.py``) and must
be byte-identical across repetitions, traced or not.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import srcpath

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
NAMES = ("fixture", "dense", "mc_table", "sweep")
SETUP_SAMPLES = 7
MIN_REPS = 3  # per mode, even when --seconds is shorter than that many repetitions
FANOUT_WORKLOAD = "fixture"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "slots_per_s": "1/s",
    "routed_runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "source.calls": "count",
    "source.self_s": "s",
    "source.pairs": "count",
    "source.heralds": "count",
    "source.herald_yield": "ratio",
    "source.close_gaps": "count",
    "source.ns_per_pair": "ns",
    "source.bytes_out": "B_computed",
    "controller.calls": "count",
    "controller.self_s": "s",
    "controller.heralds_in": "count",
    "controller.triggers": "count",
    "controller.trigger_yield": "ratio",
    "controller.ns_per_herald": "ns",
    "converter.calls": "count",
    "converter.self_s": "s",
    "converter.runs_routed": "count",
    "converter.success_ratio": "ratio",
    "converter.ns_per_run": "ns",
    "measurement.calls": "count",
    "measurement.self_s": "s",
    "measurement.zero_se_estimates": "count",
    "config.self_s": "s",
    "pipeline.self_s": "s",
    "pipeline.ops": "count",
    "pipeline.fanout_speedup_w2": "ratio",
    "trace.self_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

BYTES_PER_PAIR = 8 + 3  # int64 slot plus three bool flags, as HeraldStream stores them


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "seed": seed}


def probe_setup(name: str, seed: int) -> float:
    """Seconds of one set-up, timed in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, wall: float) -> dict:
    """Per-layer metrics of one traced repetition (0 where a layer did not run)."""
    src, ctl, conv = summary["source"], summary["controller"], summary["converter"]
    pairs, heralds_in, runs = src["counts"]["pairs"], ctl["counts"]["heralds_in"], conv["counts"]["runs"]
    return {
        "source.calls": src["calls"],
        "source.self_s": src["self_s"],
        "source.pairs": pairs,
        "source.heralds": src["counts"]["heralds"],
        "source.herald_yield": _ratio(src["counts"]["heralds"], pairs),
        "source.close_gaps": src["counts"]["close_gaps"],
        "source.ns_per_pair": _ratio(src["self_s"] * 1e9, pairs),
        "source.bytes_out": BYTES_PER_PAIR * pairs,
        "controller.calls": ctl["calls"],
        "controller.self_s": ctl["self_s"],
        "controller.heralds_in": heralds_in,
        "controller.triggers": ctl["counts"]["triggers"],
        "controller.trigger_yield": _ratio(ctl["counts"]["heralds_claimed"], heralds_in),
        "controller.ns_per_herald": _ratio(ctl["self_s"] * 1e9, heralds_in),
        "converter.calls": conv["calls"],
        "converter.self_s": conv["self_s"],
        "converter.runs_routed": runs,
        "converter.success_ratio": _ratio(conv["counts"]["successes"], runs),
        "converter.ns_per_run": _ratio(conv["self_s"] * 1e9, runs),
        "measurement.calls": summary["measurement"]["calls"],
        "measurement.self_s": summary["measurement"]["self_s"],
        "measurement.zero_se_estimates": summary["measurement"]["counts"]["zero_se"],
        "config.self_s": summary["config"]["self_s"],
        "pipeline.self_s": summary["pipeline"]["self_s"],
        "pipeline.ops": summary["pipeline"]["counts"]["ops"],
        "trace.self_s": summary["trace"]["self_s"],
        "trace.accounted_frac": _ratio(sum(layer["self_s"] for layer in summary.values()), wall),
    }


def print_layer_table(summaries: list[dict], walls: list[float]) -> None:
    wall = statistics.median(walls)
    print(f"per-layer self time, median of {len(summaries)} traced repetitions"
          f" (traced wall {wall:.4f} s)")
    print(f"  {'layer':<12}{'calls':>8}{'self_s':>12}{'share':>8}")
    for layer in summaries[0]:
        calls = statistics.median(s[layer]["calls"] for s in summaries)
        self_s = statistics.median(s[layer]["self_s"] for s in summaries)
        print(f"  {layer:<12}{calls:>8g}{self_s:>12.6f}{self_s / wall:>8.1%}")


def measure(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, int]:
    """Run one workload in this process; return its result and exit status."""
    import spans
    import workloads

    env = environment(seed)
    work = workloads.make(name, seed)
    setup_s = [probe_setup(name, seed) for _ in range(SETUP_SAMPLES)]
    runners = {"plain": work, "traced": work}
    if traced and name == FANOUT_WORKLOAD:
        runners["w2"] = work.with_workers(2)
    tracer = spans.Tracer()
    walls: dict[str, list[float]] = {mode: [] for mode in runners}
    summaries: list[dict] = []
    reference: "list[str] | None" = None
    attempted = failed = 0
    failures: list[str] = []

    def repetition(mode: str) -> None:
        nonlocal reference, attempted, failed
        runner = runners[mode]
        n_out, weight = runner.outputs_per_rep, runner.ops_per_output
        attempted += n_out * weight
        broken_before = len(tracer.failures)
        try:
            if mode == "traced":
                tracer.rep += 1
                with tracer.installed():
                    t0 = time.perf_counter()
                    outputs = runner.run()
                    wall = time.perf_counter() - t0
                summaries.append(tracer.rep_summary(tracer.rep))
            else:
                t0 = time.perf_counter()
                outputs = runner.run()
                wall = time.perf_counter() - t0
        except Exception as err:  # an operation that raises has failed
            failed += n_out * weight
            failures.append(f"{mode} repetition raised {err!r}")
            return
        walls[mode].append(wall)
        encoded = runner.encode(outputs)
        if reference is None:
            reference = encoded
        ok = runner.check(outputs)
        failures.extend(tracer.failures[broken_before:])
        if len(encoded) != n_out or len(tracer.failures) > broken_before:
            ok = [False] * n_out
        for i, (good, out, ref) in enumerate(zip(ok, encoded, reference)):
            if not (good and out == ref):
                failed += weight
                failures.append(f"{mode} repetition, output {i}: "
                                + ("differs from the first repetition" if good else "failed its check"))

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_REPS or time.perf_counter() < deadline:
        for mode in (runners if traced else ["plain"]):
            repetition(mode)
        rounds += 1
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not traced:
        # after the timed repetitions and the memory reading: counts the
        # slots and routed runs behind the throughputs, and checks that
        # tracing leaves the output bytes unchanged
        repetition("traced")

    metrics: dict = {}
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    if traced and summaries and walls["plain"]:
        wall_plain = statistics.median(walls["plain"])
        metrics = median_by_name([layer_metrics(s, w) for s, w in zip(summaries, walls["traced"])])
        metrics["pipeline.fanout_speedup_w2"] = (
            _ratio(wall_plain, statistics.median(walls["w2"])) if walls.get("w2") else 0.0)
        metrics["trace.overhead_frac"] = statistics.median(walls["traced"]) / wall_plain - 1.0
        print_layer_table(summaries, walls["traced"])
        OUT.mkdir(exist_ok=True)
        out_path = OUT / f"{name}-seed{seed}.spans.jsonl"
        tracer.write_jsonl(out_path, {"environment": env, "workload": name})
        print(f"spans written to {out_path.relative_to(HERE.parent)}")
    elif not traced and summaries and walls["plain"]:
        wall_plain = statistics.median(walls["plain"])
        counts = summaries[-1]
        slots = counts["source"]["counts"]["slots"] or counts["converter"]["counts"]["photon_slots"]
        runs = counts["converter"]["counts"]["runs"]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_plain,
            "slots_per_s": slots / wall_plain,
            "routed_runs_per_s": runs / wall_plain,
            "peak_rss_mb": rss_kib * 1024 / 1e6,
        }
        samples = {"setup_s": len(setup_s), "peak_rss_mb": 1}
        print(f"workload {name}, seed {seed}: medians of {len(walls['plain'])} repetitions"
              f" ({slots} slots, {runs} routed runs each)")
        for key, value in metrics.items():
            print(f"  {key:<20}{value:>16.6g} {units[key]:<4} (n={samples.get(key, len(walls['plain']))})")
    print(f"  {'failed_frac':<20}{failed / attempted:>16.6g} ratio ({failed} of {attempted} operations)")
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({"environment": env, "workload": name, "trace": int(traced)}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, 0 if failed == 0 else 1


def median_by_name(rows: list[dict]) -> dict:
    """Median of each metric over repetitions."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_all(seed: int, seconds: float, traced: bool) -> tuple[dict, int]:
    """Run every workload in its own child process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, timeout=seconds * 4 + 300)
        print(child.stdout, end="")
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined, status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for this long (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    srcpath.use_checkout_sources()
    if args.workload == "all":
        result, status = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result, status = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
