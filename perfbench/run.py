"""cluekit benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload exact_uniform --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout (``src/cluekit`` must exist; the
package is imported from ``src``, nothing is installed).  Workloads:
exact_uniform, exact_product, monte_carlo, percolation (see README.md).

The workload runs in its own fresh process (perfbench/worker.py), so
``peak_rss_mb`` belongs to it.  PROBES more fresh processes only set up
(import and build the seeded inputs), half before it and half after, so
the set-ups span the run; ``setup_s`` is the median of all set-ups, and
every set-up must produce the same job-list digest.

Timing metrics are scaled to a reference host speed (calibrate.py): each
pass's times, and each set-up's, are divided by the host slowness measured
alongside them.  The raw medians are printed on their own lines.
``CLUEKIT_THREADS`` is removed from the environment, so CLI jobs run Monte
Carlo at the package default (one thread); the ``mc_stability`` and
``mc_expected_clue_bernoulli`` library calls ask for one thread per usable
core.  BLAS threading is left at its defaults.

Prints the environment, one line per metric, and as its last line one JSON
object with keys correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 6
SETUP_ALLOWANCE_S = 10  # per fresh process: interpreter start, imports, inputs
WORKLOADS = ("exact_uniform", "exact_product", "monte_carlo", "percolation")
# The tail is the highest percentile with at least ten jobs beyond it in
# one pass; every workload runs at least 50 jobs per pass, so p80.
TAIL_PERCENTILE = 80


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run a worker to completion and parse its last stdout line; a worker
    still running at the deadline is killed."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def mem_total_mb() -> float | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cluekit" / "__init__.py").is_file():
        print(f"perfbench: no cluekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("CLUEKIT_THREADS", None)
    env.pop("PYTHONPATH", None)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        # A worker measures while another round fits in --seconds, so its
        # passes end within 2 * seconds; the margin covers the output checks.
        deadline = time.monotonic() + (PROBES + 1) * SETUP_ALLOWANCE_S + 2 * args.seconds + 15
        probes = [child(common + ["--setup-only"], env, deadline) for _ in range(PROBES // 2)]
        run = child(common + ["--trace", str(args.trace)], env, deadline)
        probes += [child(common + ["--setup-only"], env, deadline) for _ in range(PROBES - PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    setups = [(p["setup_s"], p["setup_speed"]) for p in probes + [run]]
    same_inputs = len({p["digest"] for p in probes} | {run["digest"]}) == 1
    environment = {
        "nproc": nproc,
        "mem_total_mb": mem_total_mb(),
        **run["environment"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "job_list_sha256": run["digest"],
        "job_list_identical_across_setups": same_inputs,
        "passes": run["passes"],
        "jobs_per_pass": run["jobs_per_pass"],
    }
    print(json.dumps({"environment": environment}))
    for line in run["failures"]:
        print(f"FAILED {line}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, value, unit in layer_rows(run)}
        for name in run["absent"]:
            print(f"absent: {name} (its wrap target is missing; reads 0)")
        for name, m in metrics.items():
            if m["value"] == 0 and name not in run["absent"]:
                print(f"unused: {name} (this workload never reaches it; reads 0)")
    else:
        raw, scaled = timings(run, setups)
        scaled["peak_rss_mb"] = run["peak_rss_mb"]
        metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in UNITS.items()}
        print(f"fail_ratio {run['failed'] / run['attempted']:.6g} ratio "
              f"({run['failed']} of {run['attempted']} jobs)")
        print(f"job_ms_tail is p{TAIL_PERCENTILE} of {sum(map(len, run['job_ms']))} jobs")
        print("host speed per pass (1 / slowness): "
              + " ".join(f"{s:.3f}" for s in run["speed"]))
        for name, value in raw.items():
            print(f"raw {name} {value:.6g} {UNITS[name]} (not scaled to the reference speed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run["failed"] == 0 and same_inputs,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


UNITS = {"wall_s": "s", "job_ms_p50": "ms", "job_ms_tail": "ms", "cpu_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s"}


def timings(run: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(raw, scaled) timing metrics.  Scaled multiplies each pass's times,
    and each set-up's, by the host speed measured alongside them."""
    out = []
    for speeds, setup_speeds in ((None, None), (run["speed"], [s for _, s in setups])):
        per_pass = speeds or [1.0] * len(run["wall_s"])
        jobs = [t * k for k, ts in zip(per_pass, run["job_ms"]) for t in ts]
        out.append({
            "wall_s": statistics.median(w * k for w, k in zip(run["wall_s"], per_pass)),
            "job_ms_p50": statistics.median(jobs),
            "job_ms_tail": percentile(jobs, TAIL_PERCENTILE),
            "cpu_s": statistics.median(c * k for c, k in zip(run["cpu_s"], per_pass)),
            "setup_s": statistics.median(t * k for (t, _), k in
                                         zip(setups, setup_speeds or [1.0] * len(setups))),
        })
    return out[0], out[1]


def layer_rows(run: dict):
    sys.path.insert(0, str(HERE))
    import tracing

    units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    units[tracing.OVERHEAD_METRIC[0]] = tracing.OVERHEAD_METRIC[1]
    for name, unit in units.items():
        yield name, run["layer"][name], unit


if __name__ == "__main__":
    sys.exit(main())
