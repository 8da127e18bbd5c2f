"""Sweep every numeric scenario field over the decades 10**-300 ... 10**300.

Each field of a two-vehicle crossing document (N->S from (-2, 82) and W->N
from (-84, -2), both at 14 m/s) is set to every decade in turn; an agent
field is set on both vehicles. A value the loader accepts is run for at most
three steps with warnings as errors, so every value is either rejected at
load with a ScenarioError or runs: anything else is a crash, and a missing
load-time check. A `bid_params` field runs with both vehicles flagged
emergency from 0 s, so that their bids tie from the first step. One line per
field: decades run, decades rejected, and the first crash.

The process caps its own address space (RLIMIT_AS) and each run's time
(SIGALRM): a value that would exhaust memory fails as a MemoryError and one
that would hang as a timeout, both reported as crashes.

Not a test module (pytest does not collect it); run from the repository root:

    PYTHONPATH=src python tests/range_sweep.py [field ...]

with no field, it sweeps all of them (about 9 minutes on a 2-core Xeon).
"""

from __future__ import annotations

import json
import logging
import resource
import signal
import sys
import warnings
from dataclasses import replace

from intersim import scenario
from intersim.orchestrator import run_simulation

ADDRESS_SPACE = 2 << 30  # bytes
RUN_SECONDS = 300  # three steps at the largest horizon, 1,000, take about 40 s on a 2-core Xeon
DOCUMENT = {
    "sampling_time_s": 0.1,
    "horizon": 50,
    "steps": 3,
    "agents": [
        {"id": 1, "route": {"entry": "N", "exit": "S"},
         "initial_position_m": [-2.0, 82.0], "initial_speed_mps": 14.0},
        {"id": 2, "route": {"entry": "W", "exit": "N"},
         "initial_position_m": [-84.0, -2.0], "initial_speed_mps": 14.0},
    ],
}
# sections the document does not hold, added for the fields inside them; a
# `bid_params` field runs with both vehicles emergency from 0 s
EXTRA = {
    "events[0].time_s": {"events": [{"time_s": 0.5, "agent": 2}]},
    "topology_schedule[0].from_step": {"topology_schedule": [{"from_step": 1, "topology": "ring"}]},
    **{
        f"bid_params.{key}": {"events": [{"time_s": 0.0, "agent": 1}, {"time_s": 0.0, "agent": 2}]}
        for key in scenario._BID_KEYS.values()
    },
}


def fields() -> list[str]:
    """Every numeric field of the schema, as a dotted path; `agents.` ones
    name a field of each agent."""
    sections = {
        "agents.route": scenario._ROUTE_KEYS,
        "agents.params": scenario._PARAM_KEYS,
        "geometry": scenario._GEOMETRY_KEYS,
        "bid_params": scenario._BID_KEYS,
        "safety_margins": scenario._MARGIN_KEYS,
        "penalty": scenario._PENALTY_KEYS,
    }
    out = ["sampling_time_s", "horizon", "steps", "agents.initial_speed_mps",
           "agents.initial_position_m[0]", "agents.initial_position_m[1]", *EXTRA]
    for section, keys in sections.items():
        out += [f"{section}.{key}" for key in keys.values()]
    return list(dict.fromkeys(out))  # a section field can also be in EXTRA


def _set(doc, where: str, value) -> None:
    *parents, leaf = where.replace("[", ".").replace("]", "").split(".")
    for key in parents:
        doc = doc[int(key)] if key.isdigit() else doc.setdefault(key, {})
    doc[int(leaf) if leaf.isdigit() else leaf] = value


def with_value(field: str, value: float) -> dict:
    doc = json.loads(json.dumps(dict(DOCUMENT, **EXTRA.get(field, {}))))
    if field.startswith("agents."):
        for pos in range(len(doc["agents"])):
            _set(doc, f"agents[{pos}]" + field[len("agents"):], value)
    else:
        _set(doc, field, value)
    return doc


class RunTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RunTimeout(f"over {RUN_SECONDS} s")


def outcome(field: str, value: float) -> str:
    """"rejected", "ran", or the crash as "<type>: <message>"."""
    signal.alarm(RUN_SECONDS)
    try:
        try:
            cfg = scenario.load_scenario(with_value(field, value))
        except scenario.ScenarioError:
            return "rejected"
        run_simulation(replace(cfg, steps=min(cfg.steps, 3)))
        return "ran"
    except Exception as exc:  # MemoryError and RunTimeout included
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)


def sweep(field: str) -> str:
    ran = rejected = 0
    crashes = []
    for exponent in range(-300, 301):
        result = outcome(field, 10.0**exponent)
        if result == "ran":
            ran += 1
        elif result == "rejected":
            rejected += 1
        else:
            crashes.append(f"1e{exponent:+d}: {result}")
    first = crashes[0] if crashes else "none"
    return f"{field}: ran {ran}, rejected {rejected}, crashed {len(crashes)}; first crash {first}"


def main(argv: list[str]) -> int:
    unknown = [field for field in argv if field not in fields()]
    if unknown:
        print(f"unknown fields {unknown}; the fields are {fields()}", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _alarm)
    warnings.simplefilter("error")
    logging.getLogger("intersim").setLevel(logging.ERROR)  # unconverged solves are not crashes
    crashed = False
    for field in argv or fields():
        line = sweep(field)
        print(line, flush=True)
        crashed |= not line.endswith("first crash none")
    return 1 if crashed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
