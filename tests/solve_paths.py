"""Solve-path traffic: how many solves, and how many objective evaluations,
each path of `mpc.solve_ocp` takes on a workload.

A solve takes one of five paths. The exact QP (`mpc._exact`) settles it at
the tracking cost's unconstrained minimiser u* (no active row), with rows
active, or on a branch of the preview hinge; else the penalty loop solves
it, on a problem without box tracks or with them. Beside the paths it
counts the exact solves whose QP held the stop row, the penalty solves
under the stop halfspace (box_solve projects onto s_N <= s_stop), and the
outcomes of the full-throttle second start and the braking start.

Not a test module (pytest does not collect it); run from the repository root:

    PYTHONPATH=src python tests/solve_paths.py WORKLOAD [--steps N] [--seed 1] [--pick SEED:INDEX ...]

WORKLOAD is a benchmark workload: uc1, uc2 or queue (benchmarks/workloads.py),
run for its window's steps unless --steps is given; queue runs the 24
scenarios of --seed, or with --pick only scenario_sources("queue", SEED)[INDEX]
of each pair. The full presets are `uc1 --steps 250` and `uc2 --steps 250`,
the five long queue runs `queue --steps 100 --pick 4:1 2:1 3:0 2:2 3:1`.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = ("exact at u*", "exact with rows", "exact hinge branch", "box-free penalty", "box-track penalty")


@dataclass
class Traffic:
    solves: Counter = field(default_factory=Counter)  # by path
    evaluations: Counter = field(default_factory=Counter)  # by path
    stop_row: int = 0  # exact solves whose QP held the stop row
    halfspace: Counter = field(default_factory=Counter)  # penalty solves under the stop halfspace: solves, evaluations
    second_start: Counter = field(default_factory=Counter)
    brake_start: Counter = field(default_factory=Counter)


def path_of(problem, report) -> str:
    if report.settled_by == "exact":
        if report.branch is not None:
            return "exact hinge branch"
        return "exact with rows" if report.active_rows else "exact at u*"
    return "box-track penalty" if problem._boxes else "box-free penalty"


def count(sources) -> Traffic:
    """Run every (scenario source, steps) pair and tally its solves."""
    from intersim import mpc, orchestrator
    from intersim.scenario import load_scenario

    traffic = Traffic()
    built = []
    problem_class, solve = mpc.OcpProblem, orchestrator.solve_ocp

    class Recorded(problem_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def tallied(*args, **kwargs):
        result = solve(*args, **kwargs)
        problem, report = built.pop(), result[2]  # solve_ocp builds one problem per call
        path = path_of(problem, report)
        traffic.solves[path] += 1
        traffic.evaluations[path] += report.evaluations
        if problem.stop_line is not None:
            if report.settled_by == "exact":
                traffic.stop_row += 1
            else:
                traffic.halfspace.update(solves=1, evaluations=report.evaluations)
        traffic.second_start[report.second_start] += 1
        traffic.brake_start[report.brake_start] += 1
        return result

    mpc.OcpProblem, orchestrator.solve_ocp = Recorded, tallied
    try:
        for source, steps in sources:
            orchestrator.run_simulation(replace(load_scenario(source), steps=steps))
    finally:
        mpc.OcpProblem, orchestrator.solve_ocp = problem_class, solve
    return traffic


def report(traffic: Traffic) -> str:
    solves, evaluations = sum(traffic.solves.values()), sum(traffic.evaluations.values())
    lines = [f"{'path':20s}{'solves':>8s}{'evaluations':>13s}"]
    lines += [f"{path:20s}{traffic.solves[path]:8,d}{traffic.evaluations[path]:13,d}" for path in PATHS]
    lines.append(f"{'total':20s}{solves:8,d}{evaluations:13,d}")
    lines.append(f"exact solves with the stop row: {traffic.stop_row:,d}")
    lines.append(f"penalty solves under the stop halfspace: {traffic.halfspace['solves']:,d}, "
                 f"{traffic.halfspace['evaluations']:,d} evaluations")
    for name, tally in (("second start", traffic.second_start), ("braking start", traffic.brake_start)):
        lines.append(f"{name}: " + ", ".join(f"{outcome} {n:,d}" for outcome, n in sorted(tally.items())))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("uc1", "uc2", "queue"))
    parser.add_argument("--steps", type=int, default=None, help="closed-loop steps (default: the window's)")
    parser.add_argument("--seed", type=int, default=1, help="queue's benchmark seed")
    parser.add_argument("--pick", nargs="+", default=None, metavar="SEED:INDEX",
                        help="queue only: run scenario_sources('queue', SEED)[INDEX] for each pair")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads

    steps = args.steps or workloads.WORKLOADS[args.workload].steps
    if args.pick and args.workload != "queue":
        parser.error("--pick applies to queue only")
    if args.pick:
        picked = [tuple(map(int, pair.split(":"))) for pair in args.pick]
        docs = [workloads.scenario_sources("queue", seed)[index] for seed, index in picked]
    else:
        docs = workloads.scenario_sources(args.workload, args.seed)
    print(f"{args.workload}: {len(docs)} scenario(s), {steps} steps each")
    print(report(count([(doc, steps) for doc in docs])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
