"""Benchmark workloads: which scenario each runs, for how many steps, and why.

`uc1` and `uc2` are the paper's fixed presets; `queue` is generated from the
benchmark seed, and the program receives only the generated scenario (as a
dict, see README.md for why not as JSON text).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# right turn from each arm: (entry, exit, unit vector from the centre out
# along the approach, lateral lane coordinate); driving on the right
_RIGHT_TURNS = (
    ("N", "W", (0.0, 1.0), -2.0),
    ("S", "E", (0.0, -1.0), 2.0),
    ("W", "S", (-1.0, 0.0), -2.0),
    ("E", "N", (1.0, 0.0), 2.0),
)
QUEUE_LEAD_DISTANCE_M = 60.0
QUEUE_GAP_M = (12.0, 20.0)
QUEUE_SPEED_MPS = 8.0
QUEUE_SPEED_JITTER_MPS = 1.0
# scenarios drawn per seed: one scenario's cost varies by about 15 % with
# its draw, so a run averages over many short ones
QUEUE_SCENARIOS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int  # closed-loop steps of each simulation, always from step 0
    passes: int  # timed passes over all of the workload's scenarios in a 36 s run
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uc1", 10, 4, "use_case_1 preset: 4 crossing vehicles, collision-avoidance solves dominate"),
        Workload("uc2", 10, 4, "use_case_2 preset: emergency vehicle at 0.5 s, ranked first, another track mix"),
        Workload("queue", 6, 2, "8 seeded vehicles queued two per arm, all right turns: rear-end couplings only"),
    )
}


def queue_scenario(seed: int, steps: int) -> dict:
    """Two vehicles per arm on one lane, all turning right.

    The seed draws each follower's gap to its leader and every vehicle's
    initial speed jitter; everything else is the preset default.
    """
    rng = random.Random(seed)
    agents = []
    for row in range(2):
        for k, (entry, exit_, (ux, uy), lane) in enumerate(_RIGHT_TURNS):
            dist = QUEUE_LEAD_DISTANCE_M
            if row:
                dist += rng.uniform(*QUEUE_GAP_M)
            pos = [ux * dist if ux else lane, uy * dist if uy else lane]
            speed = QUEUE_SPEED_MPS + rng.uniform(-QUEUE_SPEED_JITTER_MPS, QUEUE_SPEED_JITTER_MPS)
            agents.append(
                {
                    "id": 1 + row * len(_RIGHT_TURNS) + k,
                    "route": {"entry": entry, "exit": exit_},
                    "initial_position_m": pos,
                    "initial_speed_mps": speed,
                }
            )
    return {"sampling_time_s": 0.1, "horizon": 50, "steps": steps, "topology": "complete", "agents": agents}


def scenario_sources(name: str, seed: int) -> list[str | dict]:
    """What the benchmark hands to `load_scenario`, one item per simulation."""
    if name == "uc1":
        return ["use_case_1"]
    if name == "uc2":
        return ["use_case_2"]
    rng = random.Random(seed)
    return [queue_scenario(rng.getrandbits(32), WORKLOADS[name].steps) for _ in range(QUEUE_SCENARIOS)]
