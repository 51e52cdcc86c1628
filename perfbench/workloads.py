"""Seeded job lists for the four benchmark workloads.

A job is a plain dict so the whole list can be hashed: either a CLI
invocation (``argv``) run in-process through ``cluekit.cli.main``, or a
library call (``call`` plus ``args``) where the CLI fixes a size too large
for one benchmark job.  Every job carries a ``check`` that says how its
output is verified.  Sizes are fixed per workload; the seed only picks
subsets, table values, measures and estimator seeds, so every seed does the
same amount of work: subset sizes are fixed too, only which coordinates
they hold is seeded, because a job's cost depends on its subset's size.

Input files (the ``exact_product`` tables) are named ``<work>/<name>.json``
in job argv; the runner substitutes its work directory for ``<work>``.
"""
from __future__ import annotations

import hashlib
import json
import random
import zlib

import numpy as np

WORKLOADS = ("exact_uniform", "exact_product", "monte_carlo", "percolation")

BOOLEAN_METRICS = "l2,spectral,sig,inf,wit,tv,i,kl"
REAL_METRICS = "l2,spectral,sig,tv,i"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(seed * 1_000_003 + zlib.crc32(workload.encode()))


def _sizes(count: int, lo: int, hi: int) -> list[int]:
    """``count`` subset sizes spread evenly over [lo, hi]."""
    if count == 1:
        return [(lo + hi) // 2]
    return [lo + round(k * (hi - lo) / (count - 1)) for k in range(count)]


def _random_mask(rng: random.Random, n: int, size: int) -> int:
    """A seeded subset of ``size`` of the n coordinates."""
    mask = 0
    for v in rng.sample(range(n), size):
        mask |= 1 << v
    return mask


def indices(mask: int) -> str:
    return ",".join(str(v) for v in range(mask.bit_length()) if (mask >> v) & 1)


def spec_n(spec: str) -> int:
    head, _, tail = spec.partition(":")
    args = [int(float(a)) for a in tail.split(",")]
    if head == "tribes":
        return args[0] * args[1]
    if head == "composite":
        return args[0] + args[1]
    return args[0]


def cli_job(argv: list[str], check: dict, expect_exit: int = 0) -> dict:
    return {"argv": argv, "expect_exit": expect_exit, "check": check}


def lib_job(call: str, args: dict, check: dict) -> dict:
    return {"call": call, "args": args, "check": check}


# ---------------------------------------------------------------------------
# exact_uniform: zoo tables on uniform bits, n = 9..21
# ---------------------------------------------------------------------------
# spec -> analyze jobs per pass.  golden.json records the metrics of every
# spec for every orbit of subsets under its symmetry group, so any seeded
# subset has a golden value.  Job counts put the median job inside the block
# of 40 small analyze jobs and the p80 job inside the block of maj:15 jobs,
# not in a gap between job sizes, where noise would move it most.
UNIFORM_ANALYZE = {
    "maj:9": 4, "maj:11": 4, "maj:13": 4, "parity:10": 4, "parity:12": 4, "sum:12": 4,
    "sum:14": 4, "tribes:3,4": 4, "amaj:13,0.5": 4, "dictator:11,3": 4,
    "maj:15": 10, "tribes:4,4": 1, "maj:17": 1,
}
UNIFORM_ANALYZE_SPECS = tuple(UNIFORM_ANALYZE)
UNIFORM_SPECTRUM_SPECS = ("maj:15", "tribes:3,4")
UNIFORM_GAME_ARGV = (
    ["game", "--fn", "maj:9", "--checks", "shapley,supermod,core,bound"],
    ["game", "--fn", "tribes:3,3", "--checks", "shapley,supermod,core,bound"],
)
BIG_SPEC = "maj:21"
CSV_SPEC = "maj:19"
BERNOULLI_SPEC = "maj:11"
REFUSED_SPEC = "maj:27"


def metrics_for(spec: str) -> str:
    return REAL_METRICS if spec.startswith("sum:") else BOOLEAN_METRICS


def exact_uniform(seed: int) -> tuple[list[dict], dict]:
    rng = _rng("exact_uniform", seed)
    jobs = []
    for spec, count in UNIFORM_ANALYZE.items():
        for size in _sizes(count, 1, spec_n(spec) - 1):
            mask = _random_mask(rng, spec_n(spec), size)
            metrics = metrics_for(spec)
            jobs.append(cli_job(
                ["analyze", "--fn", spec, "--subset", indices(mask), "--metrics", metrics],
                {"type": "golden_analyze", "spec": spec, "mask": mask}))
    jobs.append(cli_job(["clue", "--fn", CSV_SPEC, "--all-subsets", "--csv"],
                        {"type": "golden_clue_csv", "spec": CSV_SPEC}))
    for spec in UNIFORM_SPECTRUM_SPECS:
        jobs.append(cli_job(["spectrum", "--fn", spec], {"type": "golden_spectrum", "spec": spec}))
    p = round(rng.uniform(0.2, 0.8), 2)
    jobs.append(cli_job(["analyze", "--fn", BERNOULLI_SPEC, "--subset", f"bernoulli:{p}"],
                        {"type": "golden_bernoulli", "spec": BERNOULLI_SPEC, "p": p}))
    for argv in UNIFORM_GAME_ARGV:
        jobs.append(cli_job(list(argv), {"type": "golden_fixed", "key": " ".join(argv)}))
    mask = _random_mask(rng, spec_n(BIG_SPEC), spec_n(BIG_SPEC) // 2)
    jobs.append(cli_job(["analyze", "--fn", BIG_SPEC, "--subset", indices(mask)],
                        {"type": "golden_analyze", "spec": BIG_SPEC, "mask": mask}))
    jobs.append(cli_job(["analyze", "--fn", REFUSED_SPEC, "--subset", "0"],
                        {"type": "refusal"}, expect_exit=3))
    rng.shuffle(jobs)
    return jobs, {}


# ---------------------------------------------------------------------------
# exact_product: seeded random tables on biased and q > 2 product spaces
# ---------------------------------------------------------------------------
# name: (n, q, value alphabet size, zero-probability atom, analyze jobs per
# pass).  The 16 analyze jobs on q3z hold the median job; the 13 jobs on the
# n = 10 tables (170-300 ms each) hold the p80 job, clear of the jump from
# the n = 9 jobs (100-170 ms) below them.
PRODUCT_TABLES = {
    "b9": (9, 2, 2, False, 4),
    "b10": (10, 2, 2, False, 6),
    "b10r": (10, 2, 4, False, 5),
    "b11": (11, 2, 2, False, 2),
    "q3": (6, 3, 4, False, 4),
    "q3z": (7, 3, 2, True, 16),
    "q4": (5, 4, 2, False, 4),
    "q4r": (6, 4, 4, False, 4),
}


def product_tables(seed: int) -> dict[str, dict]:
    gen = np.random.Generator(np.random.PCG64([seed, zlib.crc32(b"exact_product")]))
    tables = {}
    for name, (n, q, levels, zero_atom, _) in PRODUCT_TABLES.items():
        pi = gen.uniform(0.2, 1.0, size=(n, q))
        if zero_atom:
            pi[n // 2, q - 1] = 0.0
        pi = pi / pi.sum(axis=1, keepdims=True)
        values = gen.integers(0, levels, size=q**n).astype(float)
        tables[name] = {"n": n, "q": q, "measure": pi.tolist(), "values": values.tolist()}
    return tables


def exact_product(seed: int) -> tuple[list[dict], dict]:
    rng = _rng("exact_product", seed)
    tables = product_tables(seed)
    jobs = []

    def path(name):
        return f"<work>/{name}.json"

    for name, (n, q, levels, _, count) in PRODUCT_TABLES.items():
        metrics = BOOLEAN_METRICS if levels == 2 else REAL_METRICS + ",kl"
        for size in _sizes(count, 1, n - 1):
            mask = _random_mask(rng, n, size)
            jobs.append(cli_job(
                ["analyze", "--fn", path(name), "--subset", indices(mask), "--metrics", metrics],
                {"type": "dense_analyze", "table": name, "mask": mask}))
    for name in ("b11", "q3", "q3z", "q4r"):
        jobs.append(cli_job(["spectrum", "--fn", path(name)], {"type": "dense_spectrum", "table": name}))
    for name in ("b10", "q3z", "q4"):
        jobs.append(cli_job(["clue", "--fn", path(name), "--all-subsets"],
                            {"type": "dense_all_subsets", "table": name}))
    for name, iclue in (("b9", False), ("q4r", False), ("b10r", True), ("q3", True)):
        argv = ["game", "--fn", path(name)] + (["--iclue"] if iclue else [])
        jobs.append(cli_job(argv, {"type": "dense_game", "table": name,
                                   "kind": "information" if iclue else "variance"}))
    for name in ("b9", "q3", "q3z"):
        p = round(rng.uniform(0.2, 0.8), 2)
        jobs.append(cli_job(["analyze", "--fn", path(name), "--subset", f"bernoulli:{p}"],
                            {"type": "dense_bernoulli", "table": name, "p": p}))
    rng.shuffle(jobs)
    return jobs, tables


# ---------------------------------------------------------------------------
# monte_carlo: nested estimators on zoo evaluators, n = 20..76
# ---------------------------------------------------------------------------
# (spec, outer, inner, jobs per pass); cheap evaluators (dictator, parity,
# sum) expose runner overhead, expensive ones (composite, tribes) evaluator time.
# Every job but the full-mask parity one conditions on half the coordinates.
# Job counts put the median job inside the block of 20 maj:21 jobs and the
# p80 job among the 10 tribes:4,5 jobs, which cost about as much as the
# slowest maj:21 ones, not in a gap between job costs, where noise would
# move it most.
MC_CLUE_SPECS = (
    ("sum:24", 2000, 50, 2), ("sum:64", 1000, 24, 2), ("sum:76", 2000, 50, 2),
    ("maj:21", 2000, 50, 20), ("maj:41", 1000, 24, 5), ("maj:75", 500, 16, 4),
    ("tribes:3,7", 2000, 50, 2), ("tribes:4,5", 2000, 50, 10), ("tribes:5,12", 1000, 24, 1),
    ("parity:20", 2000, 50, 6), ("parity:33", 500, 16, 8),
    ("dictator:30,7", 2000, 50, 2), ("dictator:76,0", 1000, 24, 2),
    ("composite:36,40,1.0", 3000, 24, 3), ("composite:20,16,0.5", 1000, 24, 5),
)
MC_STABILITY = (("sum:40", 20000), ("maj:31", 20000), ("parity:12", 20000), ("maj:75", 10000))
MC_EXPECTED = (("sum:30", 8, 500, 16), ("maj:21", 8, 500, 16), ("maj:41", 6, 400, 16))
MC_TABLE = {"n": 12, "q": 2, "outer": 2000, "inner": 50, "jobs": 3}


def mc_table(seed: int) -> dict:
    gen = np.random.Generator(np.random.PCG64([seed, zlib.crc32(b"monte_carlo")]))
    n = MC_TABLE["n"]
    p = gen.uniform(0.25, 0.75, size=n)
    pi = np.stack([1.0 - p, p], axis=1)
    values = gen.integers(0, 2, size=2**n).astype(float)
    return {"n": n, "q": 2, "measure": pi.tolist(), "values": values.tolist()}


def monte_carlo(seed: int) -> tuple[list[dict], dict]:
    rng = _rng("monte_carlo", seed)
    jobs = []

    def est_seed():
        return rng.randrange(1 << 31)

    for spec, outer, inner, count in MC_CLUE_SPECS:
        n = spec_n(spec)
        for k in range(count):
            mask = (1 << n) - 1 if spec.startswith("parity:") and k == 0 else _random_mask(rng, n, n // 2)
            argv = ["mc-clue", "--fn", spec, "--subset", indices(mask), "--seed", str(est_seed())]
            if (outer, inner) != (2000, 50):
                argv += ["--outer", str(outer), "--inner", str(inner)]
            jobs.append(cli_job(argv, {"type": "mc_clue", "spec": spec, "mask": mask,
                                       "outer": outer, "inner": inner}))
    for spec, samples in MC_STABILITY:
        p = round(rng.uniform(0.2, 0.9), 2)
        jobs.append(lib_job("mc_stability", {"spec": spec, "p": p, "samples": samples, "seed": est_seed()},
                            {"type": "mc_stability", "spec": spec, "p": p, "samples": samples}))
    for spec, n_sets, outer, inner in MC_EXPECTED:
        p = round(rng.uniform(0.2, 0.8), 2)
        args = {"spec": spec, "p": p, "n_sets": n_sets, "outer": outer, "inner": inner, "seed": est_seed()}
        jobs.append(lib_job("mc_expected_clue_bernoulli", args, {"type": "mc_expected", **args}))
    for size in _sizes(MC_TABLE["jobs"], 1, MC_TABLE["n"] - 1):
        mask = _random_mask(rng, MC_TABLE["n"], size)
        jobs.append(cli_job(["mc-clue", "--fn", "<work>/mc12.json", "--subset", indices(mask),
                             "--seed", str(est_seed())],
                            {"type": "mc_table_clue", "table": "mc12", "mask": mask,
                             "outer": MC_TABLE["outer"], "inner": MC_TABLE["inner"]}))
    rng.shuffle(jobs)
    return jobs, {"mc12": mc_table(seed)}


# ---------------------------------------------------------------------------
# percolation: rectangle crossings, torus bounds and disagreement
# ---------------------------------------------------------------------------
# (h, samples, jobs per pass) for self-dual (h+1) x h rectangles, sides 3..21:
# many short rows on small shapes, few rows on ~800-edge shapes.  The ten
# 7x6 jobs hold the median job; the 11x10 jobs sit with the torus
# disagreement jobs around the p80 job.
RECT_MC = (
    (2, 4000, 4), (2, 8000, 2), (3, 4000, 3), (3, 8000, 2), (4, 3000, 4), (5, 2000, 4),
    (6, 1500, 10), (7, 1500, 3), (8, 1000, 2), (9, 1000, 2), (10, 1000, 4),
    (12, 800, 1), (15, 600, 1), (20, 300, 1),
)
TORUS_MC = {"n": 4, "outer": 300, "inner": 8, "jobs": 2}
DISAGREE_EXACT = ((None, 1), (20000, 2))   # (samples or CLI default, jobs) on the side-3 torus
DISAGREE_PAIR = {"n": 4, "samples": 10000}


def percolation(seed: int) -> tuple[list[dict], dict]:
    rng = _rng("percolation", seed)
    jobs = []

    def est_seed():
        return rng.randrange(1 << 31)

    for h, samples, count in RECT_MC:
        for _ in range(count):
            jobs.append(cli_job(["perco", "--rect", f"{h + 1}x{h}", "--mc", str(samples),
                                 "--seed", str(est_seed())],
                                {"type": "perco_rect_mc", "samples": samples}))
    jobs.append(cli_job(["perco", "--rect", "4x3"], {"type": "perco_rect_exact"}))
    edges = 18
    mask = _random_mask(rng, edges, 3)
    jobs.append(cli_job(["perco", "--torus", "3", "--avg-clue", "--subset", hex(mask)],
                        {"type": "perco_torus_avg_exact", "n": 3, "mask": mask}))
    for size in _sizes(TORUS_MC["jobs"], 2, 8):
        mask = _random_mask(rng, 2 * TORUS_MC["n"] ** 2, size)
        args = {"n": TORUS_MC["n"], "mask": mask, "outer": TORUS_MC["outer"],
                "inner": TORUS_MC["inner"], "seed": est_seed()}
        jobs.append(lib_job("averaged_crossing_clue_bound", args, {"type": "perco_torus_avg_mc", **args}))
    for samples, count in DISAGREE_EXACT:
        for _ in range(count):
            d = [rng.randrange(3), rng.randrange(1, 3)]
            rng.shuffle(d)
            argv = ["perco", "--torus", "3", "--disagree", f"{d[0]},{d[1]}", "--seed", str(est_seed())]
            if samples is not None:
                argv += ["--samples", str(samples)]
            jobs.append(cli_job(argv, {"type": "perco_disagree_exact", "n": 3, "d": d,
                                       "samples": samples or 100_000}))
    n, samples = DISAGREE_PAIR["n"], DISAGREE_PAIR["samples"]
    dx, dy = rng.randrange(1, n), rng.randrange(n)
    pair = f"torus{n}:{dx},{dy}"
    for d in ((dx, dy), ((n - dx) % n, (n - dy) % n)):
        jobs.append(cli_job(["perco", "--torus", str(n), "--disagree", f"{d[0]},{d[1]}",
                             "--samples", str(samples), "--seed", str(est_seed())],
                            {"type": "perco_disagree_pair", "pair": pair, "samples": samples}))
    rng.shuffle(jobs)
    return jobs, {}


BUILDERS = {
    "exact_uniform": exact_uniform,
    "exact_product": exact_product,
    "monte_carlo": monte_carlo,
    "percolation": percolation,
}


def build(workload: str, seed: int) -> tuple[list[dict], dict]:
    """(jobs, input tables) for a workload and seed."""
    return BUILDERS[workload](seed)


def digest(jobs: list[dict], tables: dict) -> str:
    """Hash of the job list and its input tables: equal iff the inputs are."""
    blob = json.dumps({"jobs": jobs, "tables": tables}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
