"""Command-line front end: run or validate a scenario."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .orchestrator import export_logs, run_simulation
from .scenario import NAMED_TOPOLOGIES, ScenarioError, load_scenario, parse_topology, read_text


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        required=True,
        help="preset name (use_case_1, use_case_2), JSON file path, or JSON text",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intersim")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and export CSV logs")
    _add_scenario_arg(sim)
    sim.add_argument("--steps", type=int, default=None, help="override the configured step count")
    sim.add_argument("--out", required=True, help="output directory for the CSV logs")
    sim.add_argument("--topology", default=None, help="override: complete, ring, or an arc-list JSON file")

    chk = sub.add_parser("check", help="validate a scenario without running it")
    _add_scenario_arg(chk)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_scenario(args.scenario)
        if args.command == "simulate" and args.steps is not None:
            cfg = replace(cfg, steps=args.steps)
        if args.command == "simulate" and args.topology is not None:
            spec = args.topology
            if spec not in NAMED_TOPOLOGIES:
                spec = json.loads(read_text(Path(spec)))
            cfg = replace(cfg, topology=parse_topology(spec, "--topology"))
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        print(
            f"ok: {len(cfg.agents)} agents, T_s={cfg.t_s}s, horizon={cfg.horizon}, "
            f"steps={cfg.steps}, topology={cfg.topology}"
        )
        return 0

    sim_log, timing = run_simulation(cfg)
    files = export_logs(sim_log, timing, args.out)
    violations = sim_log.overlap_violations
    print(f"wrote {', '.join(str(f) for f in files)}")
    print(f"steps={cfg.steps} agents={len(cfg.agents)} overlap_violations={violations}")
    if sim_log.speed_clamps:
        print(f"speed clamps: {len(sim_log.speed_clamps)}")
    print(_summary(cfg, sim_log, timing))
    return 0 if violations == 0 else 1


def _summary(cfg, sim_log, timing) -> str:
    """One line on the run: step time against the per-step budget, the
    solves whose best violation exceeds the constraint tolerance, split by
    the family of their largest violation, and the solves that took the
    closed form."""
    p50, p95 = np.percentile([row.total_ms for row in timing.rows], [50, 95])
    over = sum(not row.within_budget for row in timing.rows)
    histories = sim_log.solver_violation_histories
    tol = cfg.penalty.constraint_tolerance
    unconverged = sum(min(history) > tol for history in histories)
    families = ", ".join(f"{name} {count}" for name, count in sim_log.unconverged_families.most_common())
    return (
        f"total_ms p50={p50:.1f} p95={p95:.1f}; steps over the {1000.0 * cfg.t_s:g} ms budget: "
        f"{over} of {len(timing.rows)}; unconverged solves: {unconverged} of {len(histories)}"
        f"{f' ({families})' if families else ''}; closed-form solves: {sim_log.closed_form_solves}"
    )


if __name__ == "__main__":
    raise SystemExit(main())
