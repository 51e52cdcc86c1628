"""Tests of the benchmark's own machinery: seeded job lists, span arithmetic,
missing wrap targets, and the oracles behind the output checks.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import random
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_a_function_of_the_seed(workload):
    first = workloads.digest(*workloads.build(workload, 5))
    assert workloads.digest(*workloads.build(workload, 5)) == first
    assert workloads.digest(*workloads.build(workload, 6)) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_does_the_same_work(workload):
    def sizes(seed):
        jobs, _ = workloads.build(workload, seed)
        return sorted((str(job["argv"][:3] if "argv" in job else [job["call"], job["args"].get("spec")]),
                       bin(job["check"].get("mask", 0)).count("1")) for job in jobs)

    assert sizes(5) == sizes(6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pass_leaves_ten_jobs_beyond_p80(workload):
    jobs, _ = workloads.build(workload, 0)
    assert len(jobs) * 0.2 >= 10


def test_golden_covers_every_seeded_subset():
    golden = checks.load_golden()
    rng = random.Random(0)
    for spec in workloads.UNIFORM_ANALYZE_SPECS + (workloads.BIG_SPEC, workloads.CSV_SPEC):
        n = workloads.spec_n(spec)
        for _ in range(50):
            mask = rng.randrange(1 << n)
            assert checks.orbit_key(spec, mask) in golden["analyze"][spec]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        return self.now

    def advance(self, seconds):
        with self.lock:
            self.now += seconds


def fake_modules(clock: FakeClock) -> dict:
    """Two layers: 'spectral' calls into 'transforms' and back; transforms
    also holds spectral's helper through a from-import."""
    spectral = types.ModuleType("fake.spectral")
    transforms = types.ModuleType("fake.transforms")
    spectral.tick = transforms.tick = clock.advance
    spectral.transforms = transforms
    transforms.spectral = spectral
    exec(
        "def projection_norms():\n"
        "    tick(1.0)\n"
        "    transforms.subset_zeta()\n"
        "    tick(8.0)\n"
        "def helper():\n"
        "    tick(4.0)\n"
        "def walsh_hadamard(depth=2):\n"
        "    tick(1.0)\n"
        "    if depth:\n"
        "        walsh_hadamard(depth - 1)\n",
        spectral.__dict__,
    )
    exec(
        "def subset_zeta():\n"
        "    tick(2.0)\n"
        "    helper()\n"
        "def subset_mobius(worker):\n"
        "    t = threading.Thread(target=worker)\n"
        "    t.start()\n"
        "    t.join()\n",
        transforms.__dict__,
    )
    transforms.helper = spectral.helper
    transforms.threading = threading
    return {"spectral": spectral, "transforms": transforms}


@pytest.fixture
def traced(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    mods = fake_modules(clock)
    tracer = tracing.Tracer(mods)
    tracer.install()
    yield tracer, mods
    tracer.uninstall()


def test_nested_self_time(traced):
    tracer, mods = traced
    mods["spectral"].projection_norms()
    # spectral: projection_norms 1 + 8 of its own, helper 4 (called from
    # transforms); transforms: subset_zeta 2 of its own
    assert tracer.self_ms["spectral"] == pytest.approx(13_000)
    assert tracer.self_ms["transforms"] == pytest.approx(2_000)
    values, _ = tracer.metrics()
    assert values["spectral.projection_norms.ms"] == pytest.approx(15_000)
    assert values["transforms.subset_zeta.ms"] == pytest.approx(6_000)
    assert values["spectral.self_ms"] == pytest.approx(13_000)


def test_recursive_calls_count_inclusive_time_once(traced):
    tracer, mods = traced
    mods["spectral"].walsh_hadamard()
    values, _ = tracer.metrics()
    assert tracer.calls["spectral.walsh_hadamard"] == 3
    assert values["spectral.walsh_hadamard.ms"] == pytest.approx(3_000)
    assert values["spectral.self_ms"] == pytest.approx(3_000)


def test_worker_thread_spans_are_busy_time_not_subtracted(traced):
    tracer, mods = traced
    mods["transforms"].subset_mobius(mods["spectral"].helper)
    # the helper ran 4 s in another thread: it is spectral busy time, and
    # the caller's span, which waited for it, keeps all 4 s as self time
    assert tracer.self_ms["spectral"] == pytest.approx(4_000)
    assert tracer.self_ms["transforms"] == pytest.approx(4_000)


def test_wrappers_reach_every_namespace_and_uninstall_restores(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    mods = fake_modules(clock)
    original = mods["spectral"].helper
    tracer = tracing.Tracer(mods)
    tracer.install()
    assert mods["transforms"].helper is mods["spectral"].helper is not original
    tracer.uninstall()
    assert mods["transforms"].helper is mods["spectral"].helper is original


def test_missing_wrap_target_reads_absent(traced):
    tracer, mods = traced
    # no efron_stein in the fake spectral module, no cli / perco layer
    values, absent = tracer.metrics()
    for name in ("spectral.efron_stein.ms", "cli.self_ms", "perco.self_ms",
                 "perco.rows_per_s", "montecarlo.evals"):
        assert name in absent and values[name] == 0.0
    assert "spectral.projection_norms.ms" not in absent
    assert set(values) == {m[0] for m in tracing.LAYER_METRICS}


def test_tracer_on_the_real_package_finds_every_target():
    import importlib

    modules = {name: importlib.import_module(f"cluekit.{name}") for name in
               ("cli", "clue", "core", "fnio", "games", "infotheory", "montecarlo",
                "perco", "spectral", "symmetry", "transforms", "zoo")}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        n, evaluator = modules["zoo"].evaluator_from_spec("maj:5")
        modules["montecarlo"].mc_clue(evaluator, modules["core"].uniform_space(n), 1, 300, 4, 1, threads=1)
        values, absent = tracer.metrics()
    finally:
        tracer.uninstall()
    assert absent == []
    assert values["montecarlo.evals"] == values["zoo.evaluator.rows"] == 1200
    assert values["montecarlo.chunks"] == 2


# ---------------------------------------------------------------------------
# oracles and checks
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("spec", ["maj:11", "tribes:3,4", "composite:6,6,0.5", "sum:9",
                                  "parity:8", "dictator:9,4"])
def test_closed_forms_match_the_exact_engine(spec):
    from cluekit import clue, zoo

    table = zoo.from_spec(spec).table
    rng = random.Random(spec)
    for _ in range(10):
        mask = rng.randrange(1 << table.n)
        assert oracles.zoo_clue(spec, mask) == pytest.approx(clue.clue(table, mask), abs=1e-12)


def test_stability_closed_form_matches_the_spectrum():
    from cluekit import spectral, zoo

    for spec in ("maj:9", "parity:7", "sum:8"):
        profile = spectral.stability_profile(zoo.from_spec(spec).table)
        for p in (0.3, 0.8):
            want = spectral.stability(profile, p) / profile.variance
            assert oracles.zoo_stability(spec, p) == pytest.approx(want, abs=1e-12)


def test_dense_oracle_matches_the_cli_metrics():
    import numpy as np

    from cluekit import cli, core

    gen = np.random.default_rng(0)
    pi = gen.uniform(0.2, 1.0, (6, 3))
    pi[2, 2] = 0.0
    pi /= pi.sum(axis=1, keepdims=True)
    values = gen.integers(0, 2, 3**6).astype(float)
    f = core.FunctionTable(core.ProductSpace(6, 3, pi), values)
    dense = oracles.DenseTable(pi, values)
    names = ["l2", "spectral", "sig", "inf", "wit", "tv", "i", "kl"]
    for mask in (0b1, 0b101101, 0b111110):
        assert checks.same_payload(cli._metric_values(f, mask, names), dense.metrics(mask, names)) is None


def test_zero_stderr_cannot_decide_a_monte_carlo_check():
    checker = checks.Checker({}, {})
    check = {"type": "mc_clue", "spec": "sum:20", "mask": 0b11111, "outer": 2000, "inner": 50}
    job = {"argv": ["mc-clue"], "check": check}
    for estimate in (0.25, 0.26, 0.9):
        verdicts = {
            checker.check(0, job, 0, f'{{"schema": 1, "estimate": {estimate}, "stderr": {stderr},'
                                     f' "outer": 2000, "inner": 50}}') is None
            for stderr in (0.0, 1e-9, 0.5)
        }
        assert len(verdicts) == 1
        assert verdicts == {estimate != 0.9}


def test_hook_that_no_longer_fits_is_skipped(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    zoo = types.ModuleType("fake.zoo")
    exec("def evaluator_from_spec(spec):\n    return None\n", zoo.__dict__)
    tracer = tracing.Tracer({"zoo": zoo})
    tracer.install()
    try:
        assert zoo.evaluator_from_spec("maj:3") is None
    finally:
        tracer.uninstall()
    assert tracer.calls["zoo.evaluator_from_spec"] == 1


# ---------------------------------------------------------------------------
# re-checks and host-speed scaling
# ---------------------------------------------------------------------------
class CountingChecker:
    def __init__(self):
        self.checked = 0

    def check(self, index, job, code, out):
        self.checked += 1
        return None if out == "ok" else "wrong"

    def finish(self):
        return []


def test_a_pass_equal_to_the_checked_first_pass_is_not_rechecked():
    import worker

    jobs = [{"argv": ["a"]}, {"argv": ["b"]}]
    first = [worker.fingerprint((0, "ok")), worker.fingerprint((0, "ok"))]
    checker = CountingChecker()
    assert worker.check_pass(checker, jobs, [(0, "ok"), (0, "ok")], first) == []
    assert checker.checked == 0
    assert len(worker.check_pass(checker, jobs, [(0, "ok"), (0, "bad")], first)) == 1
    assert checker.checked == 2
    assert worker.check_pass(checker, jobs, [(0, "ok"), (0, "ok")], []) == []
    assert checker.checked == 4


def test_a_truncated_repr_is_never_taken_as_equal():
    import numpy as np
    import worker

    assert worker.fingerprint((0, np.zeros(5000))) is None


def test_timings_scale_each_pass_by_its_own_speed():
    import run

    data = {"speed": [1.0, 0.5], "wall_s": [2.0, 4.0], "cpu_s": [1.0, 2.0],
            "job_ms": [[10.0, 30.0], [20.0, 60.0]]}
    raw, scaled = run.timings(data, [(0.2, 1.0), (0.4, 0.5), (0.3, 1.0)])
    assert scaled["wall_s"] == pytest.approx(2.0) and raw["wall_s"] == pytest.approx(3.0)
    assert scaled["cpu_s"] == pytest.approx(1.0)
    assert scaled["job_ms_p50"] == pytest.approx(20.0) and raw["job_ms_p50"] == 25.0
    assert scaled["setup_s"] == pytest.approx(0.2) and raw["setup_s"] == pytest.approx(0.3)
