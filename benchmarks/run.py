"""Closed-loop benchmark of the intersim simulator.

    python3 benchmarks/run.py --workload uc1 --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 36

A run simulates each of a workload's scenarios in this process with
`workers=1`, each step starting after the previous one ends, in a fixed
number of passes. It checks every simulation's outputs and prints, as its
last line, one JSON object: the end-to-end metrics of untraced passes with
`--trace 0`, the per-layer metrics of a traced pass with `--trace 1`.
`--workload all` runs every workload untraced and traced, one after
another, and prints one table. README.md describes the workloads, the
metrics and the run sizes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from tracing import Tracer, cbaam_sweep, layer_metrics, tail
from workloads import WORKLOADS, scenario_sources

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# at least this many set-up samples per run, spread over the run (see
# measure_setup), after warm-up ones that are discarded: a process's first
# set-ups run slower
SETUP_SAMPLES = 60
SETUP_WARMUP = 20
SETUP_GROUPS = 12
WARMUP_STEPS = 8  # steps of the untimed warm-up simulation
REFERENCE_SECONDS = 36  # Workload.passes is sized for a run of this length


class _SetupDone(Exception):
    """Raised at the first bid of step 0 to end a set-up measurement."""


def import_program():
    """Import intersim from this checkout's source tree, never from elsewhere."""
    if not (SRC / "intersim" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC / 'intersim'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread, as workers=1 promises
    program = importlib.import_module("intersim")
    for mod in ("auction", "geometry", "mpc", "network", "orchestrator", "scenario"):
        importlib.import_module(f"intersim.{mod}")
    return program


def environment(program) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "workers": 1,
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def load(program, source, steps: int):
    cfg = program.scenario.load_scenario(source)
    return cfg if cfg.steps == steps else replace(cfg, steps=steps)


def clear_caches() -> None:
    """Empty every functools cache of the program, as a fresh process would have them."""
    for name, mod in list(sys.modules.items()):
        if name == "intersim" or name.startswith("intersim."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def measure_setup(program, source, samples: int) -> list[float]:
    """Seconds from loading the scenario to the first bid of step 0, `samples` times.

    The benchmark calls this between simulations, so the samples come from
    the whole run and meet the machine in the states the simulations met.
    """
    orch = program.orchestrator
    bid = orch.compute_bid

    def stop(*args, **kwargs):
        raise _SetupDone

    out = []
    orch.compute_bid = stop
    try:
        for _ in range(samples):
            clear_caches()
            t0 = time.perf_counter()
            try:
                cfg = program.scenario.load_scenario(source)
                # the hook is a fallback end marker should step 0 stop bidding first
                orch.run_simulation(cfg, workers=1, pre_solve_hook=stop)
            except _SetupDone:
                out.append(time.perf_counter() - t0)
            else:
                raise RuntimeError("simulation finished without reaching step 0")
    finally:
        orch.compute_bid = bid
    return out


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out_dir: Path, cfg) -> list[str]:
    """Structural and protocol checks of one simulation's exported logs."""
    errors = []
    ids = sorted(a.agent_id for a in cfg.agents)
    traj = read_csv(out_dir / "trajectory.csv")
    prio = read_csv(out_dir / "priorities.csv")
    timing = read_csv(out_dir / "timing.csv")
    want = cfg.steps * len(ids)
    if len(traj) != want or len(prio) != want or len(timing) != cfg.steps:
        return [f"row counts {len(traj)}/{len(prio)}/{len(timing)}, want {want}/{want}/{cfg.steps}"]
    last_s: dict[int, float] = {}
    for row in traj:
        agent, k = int(row["agent"]), int(row["step"])
        vals = {key: float(row[key]) for key in ("s_m", "v_mps", "ax_mps2", "x_g_m", "y_g_m", "exact_overlap_m2")}
        if not all(math.isfinite(v) for v in vals.values()):
            errors.append(f"step {k} agent {agent}: non-finite value")
        if vals["v_mps"] < 0 or vals["s_m"] < last_s.get(agent, -math.inf):
            errors.append(f"step {k} agent {agent}: negative speed or moving backwards")
        last_s[agent] = vals["s_m"]
    by_step: dict[int, list[dict[str, str]]] = {}
    for row in prio:
        by_step.setdefault(int(row["step"]), []).append(row)
    for k, rows in sorted(by_step.items()):
        if sorted(int(r["agent"]) for r in rows) != ids:
            errors.append(f"step {k}: priorities do not list every agent once")
        ranked = sorted((int(r["rank"]), r["emergency_flag"] == "true") for r in rows if int(r["rank"]) > 0)
        if [rank for rank, _ in ranked] != list(range(1, len(ranked) + 1)):
            errors.append(f"step {k}: ranks are not 1..{len(ranked)}")
        flags = [flag for _, flag in ranked]
        if flags != sorted(flags, reverse=True):
            errors.append(f"step {k}: an emergency vehicle is ranked below a normal one")
    for row in timing:
        total, bound = float(row["total_ms"]), float(row["cbaam_bound_ms"])
        if not (0.0 <= bound <= total) or (row["within_budget"] == "true") != (total <= 1e3 * cfg.t_s):
            errors.append(f"timing step {row['step']}: inconsistent row")
    return errors[:5]


def run_once(program, source, steps: int, out_dir: Path, tracer: Tracer | None = None) -> dict:
    """One closed-loop simulation plus export, timed from outside."""
    orch = program.orchestrator
    marks: list[float] = []

    def hook(k, runtimes, next_broadcasts):
        marks.append(time.perf_counter())
        if tracer is not None:
            tracer.step = k

    if tracer is not None:
        tracer.step = -1  # set-up spans precede step 0
    t0 = time.perf_counter()
    cfg = load(program, source, steps)
    t_loaded = time.perf_counter()
    crash = None
    try:
        sim_log, timing = orch.run_simulation(cfg, workers=1, pre_solve_hook=hook)
    except Exception as exc:  # a crash is a measured outcome, not a benchmark failure
        crash = f"{type(exc).__name__}: {exc}"
    t_run = time.perf_counter()
    marks.append(t_run)
    n_agents = len(cfg.agents)
    res = {
        "load_s": t_loaded - t0,
        "run_s": t_run - t_loaded,
        "step_s": [b - a for a, b in zip(marks, marks[1:])],
        "vehicle_steps": cfg.steps * n_agents,
        "crash": crash,
    }
    if crash is not None:
        done = max(len(marks) - 2, 0)  # the step that raised did not complete
        res.update(wall_s=t_run - t0, sim_s=max(done, 1) * cfg.t_s, step_s=res["step_s"][:done],
                   failed=(cfg.steps - done) * n_agents, decision_ms=[], within=[], solves=0,
                   unconverged=0, digest=None, errors=[])
        return res
    t_exp = time.perf_counter()
    files = orch.export_logs(sim_log, timing, out_dir)
    t_end = time.perf_counter()
    tol = cfg.penalty.constraint_tolerance
    digest = hashlib.sha256()
    for name in ("trajectory.csv", "priorities.csv"):
        digest.update((out_dir / name).read_bytes())
    res.update(
        wall_s=t_end - t0,
        sim_s=cfg.steps * cfg.t_s,
        export_s=t_end - t_exp,
        export_bytes=sum(f.stat().st_size for f in files),
        failed=sim_log.overlap_violations,
        decision_ms=[r.total_ms for r in timing.rows],
        within=[r.within_budget for r in timing.rows],
        solves=len(sim_log.solver_violation_histories),
        unconverged=sum(1 for h in sim_log.solver_violation_histories if min(h) > tol),
        digest=digest.hexdigest(),
        errors=check_outputs(out_dir, cfg),
    )
    return res


def step_means(passes: list[list[dict]], key: str) -> list[float]:
    """Mean over passes of each (scenario, step) sample of `key`.

    A simulation does the same work in every pass, so its passes are
    repeated measurements of each step. Averaging them before taking
    percentiles keeps a percentile from jumping between the machine's fast
    and slow spells when it falls on a step that repeats only a few times.
    """
    samples: dict[tuple[int, int], list[float]] = {}
    for sims in passes:
        for j, r in enumerate(sims):
            for k, value in enumerate(r[key]):
                samples.setdefault((j, k), []).append(value)
    return [statistics.fmean(v) for v in samples.values()]


def median_of_means(samples: list[float], groups: int = SETUP_GROUPS) -> float:
    """Median over `groups` round-robin groups of the samples of each group's mean.

    Samples taken at different times of the run share a group, so a group
    mean averages the machine's fast and slow spells as the whole run
    does, where a plain median of short samples would flip between them.
    """
    groups = max(1, min(groups, len(samples)))
    return statistics.median(statistics.fmean(samples[g::groups]) for g in range(groups))


def summarize(passes: list[list[dict]]) -> dict:
    """Per-step and per-solve figures of the untraced passes."""
    reps = [r for sims in passes for r in sims]
    steps = [s * 1e3 for s in step_means(passes, "step_s")]
    decisions = step_means(passes, "decision_ms")
    within = [w for r in reps for w in r["within"]]
    vs = sum(r["vehicle_steps"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    solves = sum(r["solves"] for r in reps)
    unconverged = sum(r["unconverged"] for r in reps)
    step_tail, step_pct, step_n = tail(steps)
    dec_tail, dec_pct, dec_n = tail(decisions) if decisions else (math.nan, math.nan, 0)
    return {
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": step_tail,
        "step_ms_tail_pct": step_pct,
        "step_samples": step_n,
        "decision_ms_p50": statistics.median(decisions) if decisions else math.nan,
        "decision_ms_tail": dec_tail,
        "decision_ms_tail_pct": dec_pct,
        "decision_samples": dec_n,
        "within_budget_frac": sum(within) / max(len(within), 1),
        "unconverged_frac": unconverged / max(solves, 1),
        "failed_frac": failed / max(vs, 1),
        "vehicle_steps": vs,
        "failed": failed,
        "solves": solves,
        "unconverged": unconverged,
    }


E2E_UNITS = {
    "setup_s": "s",
    "rtf": "s/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "decision_ms_p50": "ms",
    "decision_ms_tail": "ms",
    "converged_frac": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".bytes"):
        return "B"
    if ".us" in name:
        return "us"
    if ".ms" in name or name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name == "mpc.evals_per_solve":
        return "ratio"
    if name == "trace.overhead_rtf":
        return "s/s"
    return "count"


def benchmark(program, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    sources = scenario_sources(workload, seed)
    plan = [False] * max(1, round(spec.passes * seconds / REFERENCE_SECONDS))
    if trace:  # an untraced pass as the overhead baseline, then a traced one
        plan = [False, True]
    # a chunk of set-up samples before the first simulation and after each untraced one
    per_chunk = math.ceil(SETUP_SAMPLES / (1 + len(sources) * plan.count(False)))
    runs: list[list[dict]] = []  # per pass, one result per scenario
    layers_per_pass: list[dict[str, float]] = []
    tracer = Tracer(program)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        # untimed warm-up: a process's first steps and set-ups run slower
        run_once(program, sources[0], min(spec.steps, WARMUP_STEPS), Path(tmp) / "warmup")
        measure_setup(program, sources[0], SETUP_WARMUP)
        setup = measure_setup(program, sources[0], per_chunk)
        for i, use_trace in enumerate(plan):
            first = len(tracer.spans)
            sims = []
            for j, source in enumerate(sources):
                out_dir = Path(tmp) / f"p{i}s{j}"
                if use_trace:
                    with tracer:
                        sims.append(run_once(program, source, spec.steps, out_dir, tracer))
                else:
                    sims.append(run_once(program, source, spec.steps, out_dir))
                    setup += measure_setup(program, source, per_chunk)
            if use_trace:
                layers_per_pass.append(layer_metrics(tracer.spans[first:], sum(r["run_s"] for r in sims)))
            crashes = [r["crash"] for r in sims if r["crash"]]
            print(
                f"pass {i} {'traced' if use_trace else 'untraced'}: wall {sum(r['wall_s'] for r in sims):.3f} s, "
                f"{len(sims)} x {spec.steps} steps, failed vehicle-steps {sum(r['failed'] for r in sims)}"
                + (f", crashes {crashes}" if crashes else ""),
                flush=True,
            )
            runs.append(sims)
        if len(plan) == 1:  # a second, untimed run of one scenario checks determinism
            recheck = run_once(program, sources[0], spec.steps, Path(tmp) / "recheck")
            if recheck["digest"] != runs[0][0]["digest"]:
                recheck["errors"].append("a repeated simulation gave different trajectory/priorities")
            runs[0][0]["errors"] += recheck["errors"]

    errors = [e for sims in runs for r in sims for e in r["errors"]]
    digests = [[r["digest"] for r in sims] for sims in runs]
    if any(d != digests[0] for d in digests):
        errors.append("trajectory/priorities digests differ between passes")

    def rtf(sims: list[dict]) -> float:
        return sum(r["wall_s"] for r in sims) / sum(r["sim_s"] for r in sims)

    plain = [sims for sims, use_trace in zip(runs, plan) if not use_trace]
    e2e = summarize(plain)
    e2e["rtf"] = statistics.median(rtf(sims) for sims in plain)
    e2e["setup_s"] = median_of_means(setup)
    e2e["converged_frac"] = 1.0 - e2e["unconverged_frac"]
    e2e["ok_frac"] = 1.0 - e2e["failed_frac"]
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "workload": workload, "seed": seed, "trace": int(trace), "passes": len(runs),
        "scenarios": len(sources), "steps": spec.steps, "digests": digests[0],
        "setup_samples_s": setup, "errors": errors, "env": environment(program), **e2e,
    }
    counted = plain
    if trace:
        traced = [sims for sims, use_trace in zip(runs, plan) if use_trace]
        counted = traced
        layers = {name: statistics.median(lp[name] for lp in layers_per_pass) for name in layers_per_pass[0]}
        layers["scenario.load_scenario.ms"] = 1e3 * statistics.median(sum(r["load_s"] for r in sims) for sims in traced)
        layers["orchestrator.export_logs.ms"] = 1e3 * statistics.median(
            sum(r.get("export_s", 0.0) for r in sims) for sims in traced)
        layers["orchestrator.export_logs.bytes"] = sum(r.get("export_bytes", 0) for r in traced[0])
        traced_rtf = statistics.median(rtf(sims) for sims in traced)
        layers["trace.overhead_rtf"] = traced_rtf - e2e["rtf"]
        layers.update(cbaam_sweep(program, seed))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        run_s = statistics.median(sum(r["run_s"] for r in sims) for sims in traced)
        details.update(layers=layers, traced_rtf=traced_rtf,
                       solve_ocp_share_of_run=layers["mpc.solve_ocp.ms"] / 1e3 / run_s)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    print("details " + json.dumps(details), flush=True)
    return {
        "correct": not errors,
        "attempted": sum(r["vehicle_steps"] for sims in counted for r in sims),
        "failed": sum(r["failed"] for sims in counted for r in sims),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process, as one table."""
    rows = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            details = next(json.loads(ln[8:]) for ln in lines if ln.startswith("details "))
            result = json.loads(lines[-1])
            rows[workload, trace] = (details, result)
    names = list(WORKLOADS)
    print("end-to-end (untraced)")
    print(f"{'metric':28s}{'unit':>8s}" + "".join(f"{n:>14s}" for n in names))
    table_metrics = [
        ("setup_s", "s"), ("rtf", "s/s"), ("step_ms_p50", "ms"), ("step_ms_tail", "ms"),
        ("decision_ms_p50", "ms"), ("decision_ms_tail", "ms"), ("within_budget_frac", "ratio"),
        ("unconverged_frac", "ratio"), ("failed_frac", "ratio"), ("peak_rss_mb", "MB"),
    ]
    for key, unit in table_metrics:
        print(f"{key:28s}{unit:>8s}" + "".join(f"{rows[n, 0][0][key]:14.4g}" for n in names))
    print(f"{'tail percentile (step/dec)':36s}" + "".join(
        f"{rows[n, 0][0]['step_ms_tail_pct']:7.1f}/{rows[n, 0][0]['decision_ms_tail_pct']:<6.1f}" for n in names))
    print(f"{'tail samples':36s}" + "".join(f"{rows[n, 0][0]['step_samples']:14d}" for n in names))
    print(f"{'correct':36s}" + "".join(f"{str(rows[n, 0][1]['correct']):>14s}" for n in names))
    print("\nper layer (traced)")
    layer_names = list(rows[names[0], 1][0]["layers"])
    for key in layer_names:
        print(f"{key:40s}{layer_unit(key):>6s}" + "".join(f"{rows[n, 1][0]['layers'][key]:14.4g}" for n in names))
    print(f"{'traced rtf':46s}" + "".join(f"{rows[n, 1][0]['traced_rtf']:14.4g}" for n in names))
    print(f"{'solve_ocp share of run wall':46s}" + "".join(
        f"{rows[n, 1][0]['solve_ocp_share_of_run']:14.3f}" for n in names))
    print("\nenv " + json.dumps(rows[names[0], 0][0]["env"]))
    ok = all(res["correct"] for _, res in rows.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    program = import_program()
    result = benchmark(program, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
