"""Capture a solve fixture: one solve_ocp call's inputs from a queue run.

The closed loop is `benchmarks/workloads.scenario_sources("queue", SEED)[INDEX]`,
run for STEP + 1 steps; the captured call is agent AGENT's solve at step
STEP (default parameters). Each broadcast is recorded with its poses,
footprint, path coordinates `s` and the sender's route (entry and exit),
from which `build_path` rebuilds its `path`. Floats are written by `repr`
through `json`, so they read back exactly. Run from the repository root:

    PYTHONPATH=src python tests/full_throttle_fixture.py OUT [SEED INDEX AGENT STEP]

The default, 4 1 7 55, is the full-throttle basin (W->S, one neighbour
broadcast), about 30 s. The committed full_throttle_fixture.json predates
`s` and the route, which its loader in test_mpc.py supplies; the closed loop
has changed since it was captured, so a new capture gives other inputs, and
the tests read the committed file.
trackless_basin_fixture.json is 2 2 3 17 (W->S, no broadcast), about 10 s.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def capture(seed: int = 4, index: int = 1, agent_id: int = 7, step: int = 55) -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import scenario_sources

    from intersim import orchestrator
    from intersim.scenario import load_scenario

    doc = scenario_sources("queue", seed)[index]
    cfg = replace(load_scenario(doc), steps=step + 1)
    agent = next(a for a in cfg.agents if a.agent_id == agent_id)
    found: dict = {}
    runtimes: dict = {}
    original = orchestrator.solve_ocp

    def hook(k, rts, next_broadcasts):
        runtimes.update(step=k, rts=rts)

    def solve(state, neighbours, *args, **kwargs):
        if runtimes["step"] == step and state is runtimes["rts"][agent_id].state:
            warm = args[-1] if len(args) == 8 else kwargs["warm"]
            # each sender's route, by its path
            routes = {rt.path: rt.config.route for rt in runtimes["rts"].values()}
            found.update(
                state=[state.a_x, state.v, state.s],
                warm=[float(x) for x in warm],
                neighbours=[
                    {
                        "x_g": nb.x_g.tolist(), "y_g": nb.y_g.tolist(), "psi": nb.psi.tolist(),
                        "v": nb.v.tolist(), "length": nb.length, "width": nb.width,
                        "s": nb.s.tolist(),
                        "route": {"entry": routes[nb.path].entry, "exit": routes[nb.path].exit},
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
        "source": f'benchmarks/workloads.scenario_sources("queue", {seed})[{index}], {step + 1} steps; '
        f"agent {agent_id} at step {step}",
        "route": {"entry": agent.route.entry, "exit": agent.route.exit},
        "t_s": cfg.t_s,
        "horizon": cfg.horizon,
        **found,
    }


if __name__ == "__main__":
    out, *where = sys.argv[1:]
    Path(out).write_text(json.dumps(capture(*map(int, where)), indent=1) + "\n", encoding="utf-8")
