"""Span tracing from outside the program.

Each traced function is replaced, for the length of a traced simulation, by a
wrapper that records a span (name, start, end, parent span, step id, tag).
Functions are wrapped where their caller looks them up: `from .x import y`
binds `y` in the calling module, so `intersim.orchestrator.solve_ocp` is
wrapped, not `intersim.mpc.solve_ocp`. Spans stay in memory; the benchmark
reduces them to per-layer counts and times when it ends.
"""

from __future__ import annotations

import functools
import random
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    step: int  # simulation step the span ran in (see run.py for the boundaries)
    tag: int = 0  # name-specific count: neighbour tracks, iterations, agreed superstep


def _tracks(args, result) -> int:
    return len(getattr(args[0], "tracks", ()))


def _second(args, result) -> int:
    return int(result[1])


def wrap_points(program) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, tag function) for every traced call."""
    orch, mpc, geom, auction = program.orchestrator, program.mpc, program.geometry, program.auction
    ocp = getattr(mpc, "OcpProblem", None)
    return [
        (orch, "solve_ocp", "mpc.solve_ocp", None),
        # private: each call is one start point, so a second call inside a
        # solve means the full-throttle second start ran
        (mpc, "_penalty_loop", "mpc.penalty_loop", None),
        (ocp, "__init__", "mpc.OcpProblem", None),
        (ocp, "value_and_grad", "mpc.value_and_grad", _tracks),
        (ocp, "residual_stack", "mpc.residual_stack", None),
        (mpc, "box_solve", "mpc.box_solve", _second),
        (mpc, "smooth_overlap_core", "geometry.smooth_overlap_core", None),
        (mpc, "rollout", "dynamics.rollout", None),
        (mpc, "sample_path_many", "paths.sample_path_many", None),
        (orch, "conflict_sets", "geometry.conflict_sets", None),
        (orch, "area_overlap", "geometry.area_overlap", None),
        (orch, "box_distance", "geometry.box_distance", None),
        (orch, "safety_region", "geometry.safety_region", None),
        (orch, "paths_conflict", "geometry.paths_conflict", None),
        (orch, "sample_path", "paths.sample_path", None),
        (orch, "compute_regions", "paths.compute_regions", None),
        (geom, "sample_path", "paths.sample_path", None),
        (geom, "sample_path_many", "paths.sample_path_many", None),
        (geom, "project_onto_path", "paths.project_onto_path", None),
        (orch, "run_cbaam", "auction.run_cbaam", _second),
        (orch, "graph_ell", "network.graph_ell", None),
        (auction, "broadcast_round", "network.broadcast_round", None),
        (auction, "graph_ell", "network.graph_ell", None),
    ]


class Tracer:
    """Records spans while installed; `with tracer:` installs the wrappers."""

    def __init__(self, program):
        self.spans: list[Span] = []
        self.step = -1
        self._points = wrap_points(program)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrapper(self, original, name, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.step)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if tag is not None:
                span.tag = tag(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, tag in self._points:
            # a point missing from this version of the program reads as 0 calls
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, tag))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    it falls back to the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def layer_metrics(spans: list[Span], run_s: float) -> dict[str, float]:
    """Per-layer counts and times of one traced repeat."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for sp in spans:
        calls[sp.name] = calls.get(sp.name, 0) + 1
        busy[sp.name] = busy.get(sp.name, 0.0) + (sp.end - sp.start)
    out: dict[str, float] = {}

    def both(name: str) -> None:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.ms"] = busy.get(name, 0.0) * 1e3

    for name in (
        "mpc.box_solve", "geometry.smooth_overlap_core", "geometry.conflict_sets",
        "geometry.area_overlap", "geometry.box_distance", "geometry.safety_region",
        "geometry.paths_conflict", "paths.sample_path", "paths.sample_path_many",
        "paths.project_onto_path", "auction.run_cbaam", "network.broadcast_round",
        "network.graph_ell",
    ):
        both(name)
    for name in ("paths.compute_regions", "mpc.OcpProblem", "mpc.residual_stack", "dynamics.rollout"):
        out[f"{name}.ms"] = busy.get(name, 0.0) * 1e3

    vag = [sp for sp in spans if sp.name == "mpc.value_and_grad"]
    out["mpc.value_and_grad.calls"] = len(vag)
    out["mpc.value_and_grad.us"] = 1e6 * sum(sp.end - sp.start for sp in vag) / max(len(vag), 1)
    for label, lo, hi in (("tracks0", 0, 0), ("tracks1", 1, 1), ("tracks2", 2, 2), ("tracks3p", 3, 1 << 30)):
        group = [sp.end - sp.start for sp in vag if lo <= sp.tag <= hi]
        out[f"mpc.value_and_grad.calls.{label}"] = len(group)
        out[f"mpc.value_and_grad.us.{label}"] = 1e6 * sum(group) / len(group) if group else 0.0

    solves = [i for i, sp in enumerate(spans) if sp.name == "mpc.solve_ocp"]
    solve_ms = [1e3 * (spans[i].end - spans[i].start) for i in solves]
    out["mpc.solve_ocp.calls"] = len(solves)
    out["mpc.solve_ocp.ms"] = sum(solve_ms)
    out["mpc.solve_ocp.ms_p50"] = statistics.median(solve_ms) if solve_ms else 0.0
    out["mpc.solve_ocp.ms_tail"] = tail(solve_ms)[0] if solve_ms else 0.0
    out["mpc.evals_per_solve"] = len(vag) / max(len(solves), 1)
    out["mpc.box_solve.iters"] = sum(sp.tag for sp in spans if sp.name == "mpc.box_solve")
    starts: dict[int, int] = {}
    for sp in spans:
        if sp.name == "mpc.penalty_loop":
            starts[sp.parent] = starts.get(sp.parent, 0) + 1
    out["mpc.second_start_frac"] = sum(1 for i in solves if starts.get(i, 0) > 1) / max(len(solves), 1)

    auctions = [i for i, sp in enumerate(spans) if sp.name == "auction.run_cbaam"]
    rounds: dict[int, int] = {}
    for sp in spans:
        if sp.name == "network.broadcast_round":
            rounds[sp.parent] = rounds.get(sp.parent, 0) + 1
    supersteps = sum(rounds.get(i, 0) for i in auctions)
    out["auction.supersteps"] = supersteps
    out["auction.agreed_frac"] = sum(spans[i].tag for i in auctions) / max(supersteps, 1)

    top = sum(sp.end - sp.start for sp in spans if sp.parent == -1)
    out["orchestrator.self_ms"] = (run_s - top) * 1e3
    return out


def cbaam_sweep(program, seed: int, min_seconds: float = 0.15) -> dict[str, float]:
    """`run_cbaam` alone on seeded bids, n in {4, 8, 16} on complete and ring graphs."""
    rng = random.Random(seed)
    topo_cls = program.network.Topology
    out: dict[str, float] = {}
    for n in (4, 8, 16):
        nodes = list(range(1, n + 1))
        bids = {i: rng.uniform(1.0, 100.0) for i in nodes}
        for kind in ("complete", "ring"):
            topo = getattr(topo_cls, kind)(nodes)
            times = []
            t_end = time.perf_counter() + min_seconds
            while len(times) < 3 or time.perf_counter() < t_end:
                t0 = time.perf_counter()
                program.auction.run_cbaam(bids, topo)
                times.append(time.perf_counter() - t0)
            out[f"auction.run_cbaam.ms.n{n}.{kind}"] = 1e3 * statistics.median(times)
            out[f"auction.supersteps.n{n}.{kind}"] = n * program.network.graph_ell(topo)
    return out
