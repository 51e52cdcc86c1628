"""One workload in one fresh process: set up, run passes, check outputs.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

Set-up (timed as ``setup_s``) imports numpy and cluekit, builds the seeded
job list and writes its input files.  A pass runs the job list once in a
closed loop: one client, the next job starts when the previous one ends.
CLI jobs call ``cluekit.cli.main(argv)`` with stdout captured, so their
time includes argument parsing and output formatting.  A host-speed probe
(calibrate.py) runs between jobs about every PROBE_EVERY_S, outside the
jobs' times.  Passes
repeat while another one fits in ``--seconds``.  Outputs are checked
outside the timed loop: the first pass against the oracles, later passes
for equality with it (a pass whose outputs differ is checked in full).
With ``--trace 1`` untraced and traced passes alternate, giving per-layer
metrics and the tracing overhead.

Prints one JSON object as its last stdout line.  Imports only the standard
library before the set-up clock starts.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_PROBES = 15  # host-speed probes after a set-up, about 0.1 s
# A pass probes the host speed after the first job that ends this long after
# the last probe, so probes sample the pass evenly in time.
PROBE_EVERY_S = 0.1
TRACED_MODULES = ("cli", "clue", "core", "fnio", "games", "infotheory", "montecarlo",
                  "perco", "spectral", "symmetry", "transforms", "zoo")


def setup(workload: str, seed: int) -> dict:
    """Import the program, build inputs; everything a user pays before the
    first job."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import importlib

    import numpy  # noqa: F401

    modules = {}
    for name in TRACED_MODULES:
        try:
            modules[name] = importlib.import_module(f"cluekit.{name}")
        except ImportError:
            pass  # a module later merged away: its layer metrics read absent
    import workloads

    jobs, tables = workloads.build(workload, seed)
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    for name, table in tables.items():
        Path(work, f"{name}.json").write_text(json.dumps(table))
    return {"jobs": jobs, "tables": tables, "work": work, "modules": modules,
            "digest": workloads.digest(jobs, tables)}


def run_job(job: dict, work: str, modules: dict):
    """(exit code or exception text, stdout text or library result)."""
    if "argv" in job:
        argv = [a.replace("<work>", work) for a in job["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = modules["cli"].main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed job, not a failed run
                code = f"raised {type(exc).__name__}: {exc}"
        return code, out.getvalue()
    zoo, mc, perco, core = (modules[m] for m in ("zoo", "montecarlo", "perco", "core"))
    a = job["args"]
    threads = len(os.sched_getaffinity(0))
    try:
        if job["call"] == "mc_stability":
            n, ev = zoo.evaluator_from_spec(a["spec"])
            return 0, mc.mc_stability(ev, n, a["p"], a["samples"], a["seed"], threads=threads)
        if job["call"] == "mc_expected_clue_bernoulli":
            n, ev = zoo.evaluator_from_spec(a["spec"])
            return 0, mc.mc_expected_clue_bernoulli(ev, core.uniform_space(n), a["p"], a["n_sets"],
                                                    a["outer"], a["inner"], a["seed"], threads=threads)
        if job["call"] == "averaged_crossing_clue_bound":
            return 0, perco.averaged_crossing_clue_bound(
                perco.TorusSpec(a["n"]), a["mask"], mc_outer=a["outer"], mc_inner=a["inner"], seed=a["seed"])
    except Exception as exc:  # a crash is a failed job, not a failed run
        return f"raised {type(exc).__name__}: {exc}", None
    raise ValueError(f"unknown library call {job['call']}")


def run_pass(state: dict) -> dict:
    """Run the job list once.  Times are raw; ``speed`` is 1 over the
    pass's mean host slowness (calibrate.py)."""
    import calibrate

    jobs, work, modules = state["jobs"], state["work"], state["modules"]
    results, times, cpu, probes = [], [], [], []
    last_probe = time.perf_counter()
    for k, job in enumerate(jobs):
        c = time.process_time()
        t = time.perf_counter()
        results.append(run_job(job, work, modules))
        end = time.perf_counter()
        times.append((end - t) * 1e3)
        cpu.append(time.process_time() - c)
        if end - last_probe >= PROBE_EVERY_S or k == len(jobs) - 1:
            probes.append(calibrate.probe())
            last_probe = time.perf_counter()
    return {"wall_s": sum(times) / 1e3, "cpu_s": sum(cpu), "job_ms": times, "results": results,
            "speed": 1.0 / statistics.fmean(probes)}


def fingerprint(result) -> str | None:
    """Hash of the exact text of a job's exit code and output, or None when
    its text would not show every value."""
    text = repr(result)
    return None if "..." in text else hashlib.sha256(text.encode()).hexdigest()


def check_pass(checker, jobs: list[dict], results: list, first: list) -> list[str]:
    """One line per job whose output failed its check.  A pass whose every
    output equals the checked first pass's (``first``) is correct as it."""
    prints = [fingerprint(r) for r in results]
    if first and None not in prints and prints == first:
        return []
    return check_outputs(checker, jobs, results)


def check_outputs(checker, jobs: list[dict], results: list) -> list[str]:
    reasons: dict[int, str] = {}
    for i, (job, (code, out)) in enumerate(zip(jobs, results)):
        try:
            reason = checker.check(i, job, code, out)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reason = f"malformed output: {type(exc).__name__}: {exc}"
        if reason:
            reasons[i] = reason
    for i, reason in checker.finish():
        reasons.setdefault(i, reason)
    return [f"job {i} {jobs[i].get('argv') or jobs[i].get('call')}: {r}" for i, r in sorted(reasons.items())]


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "CLUEKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "mc_library_threads": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    state = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    try:
        import calibrate

        calibrate.warm_up()
        speed = 1.0 / statistics.median(calibrate.probe() for _ in range(SETUP_PROBES))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_speed": speed, "digest": state["digest"]}))
            return 0
        return measure(args, state, setup_s, speed)
    finally:
        shutil.rmtree(state["work"], ignore_errors=True)


def measure(args, state: dict, setup_s: float, setup_speed: float) -> int:
    import checks
    import tracing

    checker = checks.Checker(checks.load_golden(), state["tables"])
    tracer = tracing.Tracer(state["modules"]) if args.trace else None

    def one_pass(traced: bool) -> dict:
        if traced:
            tracer.install()
            tracer.reset()
        try:
            p = run_pass(state)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            p["layer"], p["absent"] = tracer.metrics()
        results = p.pop("results")
        p["failures"] = check_pass(checker, state["jobs"], results, checked)
        if not checked and not p["failures"]:
            checked.extend(fingerprint(r) for r in results)
        return p

    checked: list = []  # fingerprints of the first pass that passed every check
    plain, traced = [], []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        plain.append(one_pass(False))
        if tracer:
            traced.append(one_pass(True))
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - begin + longest > args.seconds:
            break
    failures = [f for p in plain + traced for f in p["failures"]]
    result = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "digest": state["digest"],
        "environment": environment(),
        "passes": len(plain),
        "jobs_per_pass": len(state["jobs"]),
        "speed": [p["speed"] for p in plain],
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "job_ms": [p["job_ms"] for p in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(plain + traced) * len(state["jobs"]),
        "failed": len(failures),
        "failures": failures[:20],
    }
    if tracer:
        result["layer"] = {k: statistics.median(p["layer"][k] for p in traced) for k in traced[0]["layer"]}
        result["absent"] = traced[0]["absent"]
        overhead = (statistics.median(p["wall_s"] * p["speed"] for p in traced)
                    / statistics.median(p["wall_s"] * p["speed"] for p in plain))
        result["layer"]["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
