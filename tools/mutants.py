"""Mutation check of the source laws' tests: each mutant must make its tests fail.

    python tools/mutants.py           # every mutant
    python tools/mutants.py --list    # their names
    python tools/mutants.py NAME ...  # some of them

A mutant is a small wrong edit of one file, (file, old text, new text),
and the tests that must fail under it.  The script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, runs every
named test there once unmutated (they must pass), then applies one mutant
at a time and runs only its tests with pytest.  A mutant whose tests all
pass survives.  The exit status is 1 when a mutant survives, when its old
text is not found exactly once (the code moved: update the mutant), or
when the unmutated tests fail; else 0.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
import os
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parent.parent
SOURCE = "src/photondemux/source.py"
SIZE = "tests/test_source.py::TestSizeLaw"
GAP = "tests/test_source.py::TestGapClassLaw"
END = "tests/test_source.py::TestRangeEndInCountedCluster::test_same_law_given_the_end_cuts_a_counted_cluster"
WALK = "tests/test_source.py::TestWalkSplits::test_pair_count_is_binomial"
BOUNDARY = "tests/test_source.py::TestTrialBoundary::test_pair_count_is_binomial"
PIECES = "tests/test_source.py::TestEdgeCases::test_astronomical_stretch_is_drawn_in_pieces"
WIDE = "tests/test_source.py::TestEdgeCases::test_wide_window_places_every_cluster"
DOUBLING = "tests/test_source.py::TestHeraldFractionOracle::test_saturated_source_matches_markov_chain"
CONVERTER = "src/photondemux/converter.py"
LAWS = "tests/test_converter.py::TestLawsAgainstReference::test_laws_are_bit_equal"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the window-1 counted clusters
    Mutant("deadtime-1 run recursion taken as deadtime 0", SOURCE,
           "        elif params.herald_deadtime_slots:  # the next herald takes the other detector",
           "        elif False:",
           (f"{SIZE}::test_matches_enumeration",)),
    Mutant("a placed cluster cut only to two pairs is counted", SOURCE,
           "    if lead and 0 < crossing < counted.largest:  # cut to 2..K pairs",
           "    if lead and 0 < crossing < 2:",
           ("tests/test_source.py::TestTrialBoundary::"
            "test_every_placed_cluster_has_three_pairs[three_unit_rounds-0.2-0-500]",)),
    Mutant("a counted window-1 cluster crossing the end keeps one pair too many", SOURCE,
           "        close = min(self.pairs(comp), slots - 1)",
           "        close = min(self.pairs(comp), slots)",
           (f"{SIZE}::test_cut_keeps_the_pairs_in_range", f"{END}[0.3-0-30]")),
    Mutant("the K threshold one size short", SOURCE,
           "    while (largest < 16 and q ** (largest - 1) > 1e-6",
           "    while (largest < 16 and q ** largest > 1e-6",
           (f"{SIZE}::test_largest_counted",)),
    Mutant("the rest of a round-cut cluster keeps K - 1 pairs too many", SOURCE,
           "            count[0] -= largest",
           "            count[0] -= 1",
           ("tests/test_source.py::TestAgainstDenseOracle::test_three_unit_rounds_at_window_one",)),
    Mutant("P(two pairs) 5% too high at a window of one slot", SOURCE,
           "    sizes = np.array([q ** s for s in range(largest - 1)])",
           "    sizes = np.array([q ** s * (1.05 if s == 0 else 1.0) for s in range(largest - 1)])",
           (f"{SIZE}::test_sizes_follow_the_geometric_cluster_law",)),
    Mutant("the size split without hypergeometric draws", SOURCE,
           "                in_left = _hypergeometric(count, clusters - count, left, rng)",
           "                in_left = min(count, left)",
           (f"{SIZE}::test_split_has_the_law_of_a_fresh_draw",)),
    # the gap classes of a wider window
    Mutant("a wrong class probability: the close-gap law not normalized", SOURCE,
           "    gap_probs /= gap_probs.sum()\n",
           "",
           (f"{GAP}::test_classes_follow_iid_close_gaps",)),
    Mutant("the prefix class of a cut cluster one pair too long", SOURCE,
           "        return self.one(gaps[:kept]) if kept else np.zeros_like(comp)",
           "        return self.one(gaps[:kept + 1]) if kept else np.zeros_like(comp)",
           (f"{GAP}::test_cut_keeps_the_prefix_in_range", f"{END}[0.3-4-30]")),
    Mutant("a gap DP that forgets a detector's age after one gap (g1 + g2 <= d)", SOURCE,
           "        np.minimum(age_a, window, out=age_a)\n        np.minimum(age_b, window, out=age_b)",
           "        age_a[:] = window\n        age_b[:] = window",
           (f"{GAP}::test_matches_enumeration",)),
    Mutant("the class split without draws", SOURCE,
           "        left_comp = rng.multivariate_hypergeometric(comp, left)",
           "        left_comp = np.minimum(comp, np.maximum(left - (np.cumsum(comp) - comp), 0))",
           (f"{GAP}::test_split_has_the_law_of_a_fresh_draw",)),
    Mutant("the same-detector blinding dropped from the gap DP", SOURCE,
           "        prob = np.concatenate((prob * (on_a * live_a), prob * (on_b * live_b),\n"
           "                               prob * (1.0 - eff + on_a * ~live_a + on_b * ~live_b)))",
           "        prob = np.concatenate((prob * on_a, prob * on_b, prob * (1.0 - eff)))",
           (f"{GAP}::test_two_pair_rows_are_two_pair_law",)),
    Mutant("every close gap counted as adjacent in the gap DP", SOURCE,
           "        joins = (opened[:, None] & (steps == 1)).ravel()",
           "        joins = np.repeat(opened, window)",
           (f"{GAP}::test_two_pair_rows_are_two_pair_law",)),
    # the K rule past the class budget: K = 1, every cluster placed
    Mutant("K counted from 2 again", SOURCE,
           "    largest = 1\n    while (largest < 16",
           "    largest = 2\n    while (largest < 16",
           (f"{GAP}::test_largest_counted_takes_the_window[0.9-513-1]", f"{WIDE}[0.3-3000-30000]")),
    Mutant("K = 1 already at 512 slots", SOURCE,
           "           and sum(window ** close for close in range(1, largest + 1)) <= _CLASS_BUDGET):",
           "           and sum(window ** close for close in range(1, largest + 1)) < _CLASS_BUDGET):",
           (f"{GAP}::test_largest_counted_takes_the_window[0.9-512-2]",)),
    Mutant("the K = 1 law given the two-pair classes", SOURCE,
           "    return _gap_class_law(params, q, largest)\n",
           "    return _gap_class_law(params, q, max(largest, 2))\n",
           (f"{GAP}::test_counted_law_by_window", f"{WIDE}[0.3-3000-30000]")),
    # the walk and the range end
    Mutant("a fixed split share in place of the beta draw", SOURCE,
           "    return int(rng.binomial(total, rng.beta(left, right)))",
           "    return int(rng.binomial(total, left / (left + right)))",
           (f"{BOUNDARY}[one_round-0.001-4-300]", f"{PIECES}[1e-10-10000000000]")),
    Mutant("the long-gap split's beta-binomial shapes swapped", SOURCE,
           "_split(k - base, at_mid[1] - at_a[1], at_b[1] - at_mid[1], rng)",
           "_split(k - base, at_b[1] - at_mid[1], at_mid[1] - at_a[1], rng)",
           (WALK,)),
    Mutant("the excess split's shapes swapped", SOURCE,
           "            left_excess = _split(excess, left_k, k - left_k, rng)",
           "            left_excess = _split(excess, k - left_k, left_k, rng)",
           (WALK,)),
    Mutant("the crossing stretch's pairs in range dropped", SOURCE,
           "        return n_counted, tally, placed, pairs + _bisect_stretch(k, excess, room, window, rng), None",
           "        return n_counted, tally, placed, pairs, None",
           (BOUNDARY,)),
    Mutant("the pieces before the crossing piece dropped", SOURCE,
           "            return done + _bisect_stretch(piece, piece_excess, room, window, rng), None",
           "            return _bisect_stretch(piece, piece_excess, room, window, rng), None",
           (f"{BOUNDARY}[two_gap_pieces-0.05-4-40]", "tests/test_source.py::TestEdgeCases::test_smallest_rate_over_the_longest_range[0]")),
    Mutant("a pieced stretch's excess dropped", SOURCE,
           "        excess += piece_excess\n",
           "",
           (f"{BOUNDARY}[two_gap_pieces-0.2-1-60]",
            "tests/test_source.py::TestTrialBoundary::test_members_match_dense_oracle_in_law[two_gap_pieces-0.05-4-300]")),
    Mutant("a compressed stretch of w slots instead of w + 1", SOURCE,
           "        member_gaps[members[head:batch]] = step  #",
           "        member_gaps[members[head:batch]] = window  #",
           ("tests/test_source.py::TestCompressedSlots::test_gaps_are_exact_or_window_plus_one",)),
    # the deadtime of placed members
    Mutant("the third member of each triple dropped from the doubling set", SOURCE,
           "            big[2:] |= triple\n",
           "",
           (DOUBLING,)),
    Mutant("the doubling pass skipped", SOURCE,
           "            while (jump[starts] != k).any():",
           "            while False:",
           (DOUBLING,)),
    Mutant("the deadtime off by one: a gap of exactly the deadtime ends a cluster", SOURCE,
           "        np.greater(s[1:] - s[:-1], deadtime, out=on[1:])",
           "        np.greater_equal(s[1:] - s[:-1], deadtime, out=on[1:])",
           ("tests/test_source.py::TestClosedFormClusters::test_matches_loop_bit_for_bit",)),
    Mutant("a herald block broken only at gaps of more than 2 slots", SOURCE,
           "    starts = np.flatnonzero(np.concatenate(([2], placed[1:] - placed[:-1], [2])) > 1)",
           "    starts = np.flatnonzero(np.concatenate(([2], placed[1:] - placed[:-1], [2])) > 2)",
           ("tests/test_controller.py::TestBlockHistogramOnGeneratedStreams",)),
    # routing
    Mutant("a misrouted photon's share (1 - eta) / n instead of / (n - 1)", CONVERTER,
           "        row = [scale * ((1.0 - hit) / max(n - 1, 1))] * n",
           "        row = [scale * ((1.0 - hit) / n)] * n",
           ("tests/test_converter.py::TestMisrouteDistribution::test_misroutes_are_uniform_over_other_ports",)),
    Mutant("clock phases drawn in proportion to 1..n", CONVERTER,
           "rng.multinomial(runs, [1.0 / n] * n)",
           "rng.multinomial(runs, [2.0 * (i + 1) / (n * (n + 1)) for i in range(n)])",
           ("tests/test_converter.py::TestClockOffsetDraw::test_phase_groups_are_uniform",)),
    Mutant("the clocked phase rotation reversed", CONVERTER,
           "    laws = [rows[phase:] + rows[:phase] for phase in range(n)]",
           "    laws = [rows[n - phase:] + rows[:n - phase] for phase in range(n)]",
           (LAWS,)),
    Mutant("a left-to-right row sum for the arrival probability", CONVERTER,
           "    arrived = np.add.reduce(on_port, axis=1).tolist()",
           "    arrived = [sum(row) for row in on_port]",
           (LAWS,)),
    Mutant("the success count by the product of the marginals", CONVERTER,
           "                k = int(rng.hypergeometric(k, m - k, rows[i][i]))",
           "                k = int(rng.binomial(k, rows[i][i] / m))",
           ("tests/test_converter.py::TestAgainstRunOracle::test_success_count_is_binomial_across_seeds",)),
    Mutant("a run count that takes a bool", CONVERTER,
           "    return _is_int(value) and value >= 0",
           "    return isinstance(value, (int, np.integer)) and value >= 0",
           ("tests/test_converter.py::TestMonteCarloGrid::test_route_runs_rejects_non_counts[True]",)),
    Mutant("a grid point routed on the key (g, 0)", "src/photondemux/pipeline.py",
           "    gen = RngStream(ctl.seed, (grid_index,)).generator()",
           "    gen = RngStream(ctl.seed, (grid_index, 0)).generator()",
           ("tests/test_pipeline.py::TestStreamTallies::test_point_routes_and_calibrates_once_on_its_own_key",)),
    # refusals
    Mutant("a bool seed accepted", SOURCE,
           "    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)",
           "    return isinstance(value, (int, np.integer))",
           ("tests/test_source.py::TestDeterminism::test_non_integer_seed_or_index_rejected[True-index0-True]",)),
    Mutant("a non-integer slot count accepted", SOURCE,
           "    if not (_is_int(n_slots) and 1 <= n_slots <= MAX_SLOTS):",
           "    if not 1 <= n_slots <= MAX_SLOTS:",
           ("tests/test_source.py::TestEdgeCases::test_rejects_non_integer_range[5.0-5.0]",)),
    Mutant("an all-success cell reports a zero error", "src/photondemux/converter.py",
           "    if 0 < successes < trials:",
           "    if 0 < successes <= trials:",
           ("tests/test_converter.py::TestMonteCarloGrid::test_all_success_reports_an_upper_bound",)),
)


def run_tests(copy: Path, tests: "tuple[str, ...] | list[str]") -> int:
    """pytest's exit status on ``tests`` in ``copy``: 0 all passed, 1 some failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such mutant: {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        every = sorted({test for m in mutants for test in m.tests})
        if run_tests(copy, every) != 0:
            print("FAILED: the mutants' tests fail on the unmutated code")
            return 1
        survivors = 0
        for m in mutants:
            path = copy / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"MISSING   {m.name}: its old text is not found once in {m.path}")
                survivors += 1
                continue
            t0 = time.perf_counter()
            path.write_text(text.replace(m.old, m.new))
            try:
                status = run_tests(copy, m.tests)
            finally:
                path.write_text(text)
            verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else f"ERROR({status})"
            survivors += verdict != "killed"
            print(f"{verdict:<9} {m.name} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
