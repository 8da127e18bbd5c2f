"""Capture the full-throttle-basin fixture: one solve_ocp call's inputs.

The closed loop is `benchmarks/workloads.scenario_sources("queue", 4)[1]`,
run for 56 steps; the captured call is agent 7's solve at step 55 (W->S,
default parameters, one neighbour broadcast). Each broadcast is recorded
with its poses, footprint and path coordinates `s`; its `path` is the
sender's route, which the record does not hold. Floats are written by `repr`
through `json`, so they read back exactly. The committed
full_throttle_fixture.json predates `s` and has none; the closed loop has
changed since it was captured, so a new capture gives other inputs, and the
tests read the committed file. Run from the repository root:

    PYTHONPATH=src python tests/full_throttle_fixture.py tests/full_throttle_fixture.json

It takes about 30 s.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AGENT, STEP, STEPS = 7, 55, 56


def capture() -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import scenario_sources

    from intersim import orchestrator
    from intersim.scenario import load_scenario

    doc = scenario_sources("queue", 4)[1]
    cfg = replace(load_scenario(doc), steps=STEPS)
    agent = next(a for a in cfg.agents if a.agent_id == AGENT)
    found: dict = {}
    runtimes: dict = {}
    original = orchestrator.solve_ocp

    def hook(k, rts, next_broadcasts):
        runtimes.update(step=k, rts=rts)

    def solve(state, neighbours, *args, **kwargs):
        if runtimes["step"] == STEP and state is runtimes["rts"][AGENT].state:
            warm = args[-1] if len(args) == 8 else kwargs["warm"]
            found.update(
                state=[state.a_x, state.v, state.s],
                warm=[float(x) for x in warm],
                neighbours=[
                    {
                        "x_g": nb.x_g.tolist(), "y_g": nb.y_g.tolist(), "psi": nb.psi.tolist(),
                        "v": nb.v.tolist(), "length": nb.length, "width": nb.width,
                        "s": None if nb.s is None else nb.s.tolist(),
                    }
                    for nb in neighbours
                ],
            )
        return original(state, neighbours, *args, **kwargs)

    orchestrator.solve_ocp = solve
    try:
        orchestrator.run_simulation(cfg, pre_solve_hook=hook)
    finally:
        orchestrator.solve_ocp = original
    return {
        "source": 'benchmarks/workloads.scenario_sources("queue", 4)[1], 56 steps; agent 7 at step 55',
        "route": {"entry": agent.route.entry, "exit": agent.route.exit},
        "t_s": cfg.t_s,
        "horizon": cfg.horizon,
        **found,
    }


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
