"""Per-evaluation cost of two source trees, replayed on the same solves.

Each tree's `intersim` package is imported under its own name (`base` and
`head`) in one process. Each tree runs the benchmark's `uc1` window (10 steps
of use_case_1) and `queue` window (the seeded queue scenarios, 6 steps each)
once, and records every `OcpProblem` it builds with the points its solves
evaluate: each `value_and_grad` call (and whether its gradient was built) and
each `residual_stack` call. The two trees must record the same points, bit
for bit, with the same weights and the same gradient builds.

The recorded points are then timed on each tree's own problems, per class of
problem (box tracks 0, 1 or 2+, lane leaders 0 or 1+): µs per value, per
gradient build and per `residual_stack`. The trees alternate call by call,
the first of each pair changing each round, and every figure is the median
of the per-round means, with the base tree's interquartile range beside
it. A class whose head median exceeds the base median by more than the
base IQR is flagged. The paired column, the median over rounds of the
head's mean minus the base's, cancels most of a drift that meets both
trees in the same round.

Not a test module (pytest does not collect it); run from the repository root:

    python tests/eval_cost.py BASE_SRC [HEAD_SRC] [--rounds 8] [--seed 1]

where BASE_SRC is the `src` directory of another checkout (HEAD_SRC defaults
to this checkout's). It takes about 30 s with 8 rounds and 70 s with 30 on
a shared 2-core Xeon; the machine's noise shows in the base IQR, so more
rounds tighten the comparison.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("value", "gradient", "stack")


def load_tree(src: Path, name: str):
    """The `intersim` package under `src`, imported as `name`."""
    package = src / "intersim"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("mpc", "orchestrator", "scenario"):
        importlib.import_module(f"{name}.{sub}")
    return module


def capture(tree, sources) -> list[tuple]:
    """Run every source through `tree` and record its evaluations, in order:
    ("value", problem, u, weight, [gradient built]) and ("stack", problem, u)."""
    ocp = tree.mpc.OcpProblem
    value_and_grad, residual_stack = ocp.value_and_grad, ocp.residual_stack
    points: list[tuple] = []

    def recorded_value(self, u, weight):
        value, gradient = value_and_grad(self, u, weight)
        built = [False]
        points.append(("value", self, u.copy(), weight, built))

        def recorded_gradient():
            built[0] = True
            return gradient()

        return value, recorded_gradient

    def recorded_stack(self, u):
        points.append(("stack", self, u.copy()))
        return residual_stack(self, u)

    ocp.value_and_grad, ocp.residual_stack = recorded_value, recorded_stack
    try:
        for source, steps in sources:
            cfg = tree.scenario.load_scenario(source)
            tree.orchestrator.run_simulation(replace(cfg, steps=steps))
    finally:
        ocp.value_and_grad, ocp.residual_stack = value_and_grad, residual_stack
    return points


def label(problem) -> str:
    boxes, leads = len(problem._boxes), len(problem._leads)
    return f"box {min(boxes, 2)}{'+' if boxes >= 2 else ''} / lead {min(leads, 1)}{'+' if leads else ''}"


def by_class(points) -> dict[str, dict[str, list]]:
    """Per class, the calls each kind times: (problem, u, weight) for values
    and gradient builds, (problem, u) for residual stacks."""
    classes: dict[str, dict[str, list]] = {}
    for point in points:
        calls = classes.setdefault(label(point[1]), {kind: [] for kind in KINDS})
        if point[0] == "stack":
            calls["stack"].append(point[1:])
        else:
            calls["value"].append(point[1:4])
            if point[4][0]:
                calls["gradient"].append(point[1:4])
    return classes


def time_pairs(kind: str, pairs, head_first: bool) -> tuple[float, float]:
    """µs per call of `kind` on each tree, (base, head), over `pairs` of
    matching (base call, head call); the trees alternate call by call, so a
    drift of the machine's speed meets both alike."""
    clock = time.perf_counter
    spent = [0.0, 0.0]
    order = (1, 0) if head_first else (0, 1)
    for pair in pairs:
        for side in order:
            problem, u, *weight = pair[side]
            if kind == "stack":
                start = clock()
                problem.residual_stack(u)
            elif kind == "value":
                start = clock()
                problem.value_and_grad(u, *weight)
            else:
                build = problem.value_and_grad(u, *weight)[1]
                start = clock()
                build()
            spent[side] += clock() - start
    return spent[0] / len(pairs) * 1e6, spent[1] / len(pairs) * 1e6


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="src directory of the base tree")
    parser.add_argument("head", type=Path, nargs="?", default=ROOT / "src", help="src directory of the head tree")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1, help="the queue window's benchmark seed")
    args = parser.parse_args(argv)
    if args.rounds < 6:
        parser.error("--rounds must be at least 6")
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads

    sources = [("use_case_1", workloads.WORKLOADS["uc1"].steps)]
    sources += [(doc, workloads.WORKLOADS["queue"].steps) for doc in workloads.scenario_sources("queue", args.seed)]
    trees = {name: load_tree(src.resolve(), name) for name, src in (("base", args.base), ("head", args.head))}
    points = {name: capture(tree, sources) for name, tree in trees.items()}
    base_points, head_points = points["base"], points["head"]
    # the same kind at the same u, and for a value the same weight and
    # whether its gradient was built, so that by_class pairs like with like
    same = len(base_points) == len(head_points) and all(
        a[0] == b[0] and a[2].tobytes() == b[2].tobytes() and a[3:4] == b[3:4]
        and (a[0] == "stack" or a[4][0] == b[4][0])
        for a, b in zip(base_points, head_points)
    )
    if not same:
        print("the two trees evaluate different points; their costs do not compare", file=sys.stderr)
        return 1
    classes = {name: by_class(pts) for name, pts in points.items()}
    samples = {(cls, kind): ([], []) for cls, calls in classes["base"].items() for kind in KINDS if calls[kind]}
    gc.disable()
    try:
        for round_ in range(args.rounds):
            for (cls, kind), (base, head) in samples.items():
                pairs = list(zip(classes["base"][cls][kind], classes["head"][cls][kind]))
                base_us, head_us = time_pairs(kind, pairs, head_first=round_ % 2 == 1)
                base.append(base_us)
                head.append(head_us)
    finally:
        gc.enable()

    print(f"{len(base_points)} recorded calls, {args.rounds} rounds; µs per call, median over rounds "
          "(base IQR in brackets); * marks a head median above base median + base IQR; paired: the "
          "median over rounds of head - base")
    print(f"{'class':18s}{'kind':>10s}{'calls':>8s}{'base':>16s}{'head':>10s}{'change':>9s}{'paired':>9s}")
    for (cls, kind), (base_samples, head_samples) in sorted(samples.items()):
        q1, base, q3 = quartiles(base_samples)
        head = statistics.median(head_samples)
        paired = statistics.median(h - b for b, h in zip(base_samples, head_samples))
        flag = "*" if head > base + (q3 - q1) else ""
        print(f"{cls:18s}{kind:>10s}{len(classes['base'][cls][kind]):8d}{base:9.1f} [{q3 - q1:4.1f}]"
              f"{head:10.1f}{100.0 * (head / base - 1.0):+8.1f}%{paired:+9.2f}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
