"""Output checks behind ``failed`` / ``attempted``.

* Exact jobs on zoo tables compare with golden values recorded at the seed
  commit (``golden.json``), keyed by the orbit of the subset (or spectral
  mask) under the family's symmetry group, so any seeded subset has one.
* Exact jobs on random product tables compare with brute-force fiber
  computations (:mod:`oracles`) and cross-route identities.
* Monte Carlo jobs compare with closed forms or exact-engine values.  Their
  tolerance comes from the job's own sample counts and never from the
  reported ``stderr``, so a zero stderr cannot pass or fail a check.
* Expected refusals (exit 3) count as correct.

Exact tolerance is 1e-9, the verification suites' tolerance for ratios.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles

EXACT_TOL = 1e-9
# Tolerances are K / sqrt(samples), with K about six times the per-sample
# standard deviation measured over 60 seeds of the monte_carlo job mix
# (|estimate - exact| * sqrt(samples)): at most 0.38 rms (max 1.42) for the
# nested clue estimator over its outer draws, about 1 rms (max 2.7) for
# noise stability.
MC_CLUE_K = 2.5
MC_STABILITY_K = 6.0
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------
# symmetry orbits of masks, the keys of golden.json
# ---------------------------------------------------------------------------
def orbit_key(spec: str, mask: int) -> str:
    """Canonical label of a mask's orbit under the spec's symmetry group:
    symmetric families by popcount, tribes by the sorted per-tribe counts,
    a dictator by (contains the dictator, popcount)."""
    head, _, tail = spec.partition(":")
    args = tail.split(",")
    if head in ("maj", "parity", "sum", "amaj"):
        return str(bin(mask).count("1"))
    if head == "tribes":
        counts = oracles.tribes_revealed(int(args[0]), int(args[1]), mask)
        return ",".join(str(c) for c in sorted(counts))
    if head == "dictator":
        return f"{(mask >> int(args[1])) & 1}/{bin(mask).count('1')}"
    raise ValueError(f"no orbit key for '{spec}'")


def orbit_representatives(spec: str, n: int) -> dict[str, int]:
    """One mask per orbit, for recording golden values."""
    head, _, tail = spec.partition(":")
    args = tail.split(",")
    reps = {}
    if head == "tribes":
        l, k = int(args[0]), int(args[1])
        import itertools

        for counts in itertools.combinations_with_replacement(range(l + 1), k):
            mask = 0
            for i, c in enumerate(counts):
                mask |= ((1 << c) - 1) << (i * l)
            reps[orbit_key(spec, mask)] = mask
        return reps
    if head == "dictator":
        j = int(args[1])
        others = [v for v in range(n) if v != j]
        for size in range(n):
            without = sum(1 << v for v in others[:size])
            for mask in (without, without | (1 << j)):
                reps[orbit_key(spec, mask)] = mask
        return reps
    for size in range(n + 1):
        reps[orbit_key(spec, (1 << size) - 1)] = (1 << size) - 1
    return reps


def popcount_array(masks: np.ndarray, n: int) -> np.ndarray:
    pc = np.zeros(len(masks), dtype=np.int64)
    for v in range(n):
        pc += (masks >> v) & 1
    return pc


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------
def close(a, b, tol: float = EXACT_TOL) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def same_payload(got, want, tol: float = EXACT_TOL, path: str = "") -> str | None:
    """None when ``got`` matches ``want`` (floats within tol), else where not."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"
        for k in want:
            bad = same_payload(got[k], want[k], tol, f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = same_payload(g, w, tol, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return None if got == want else f"{path}: {got!r} != {want!r}"
    return None if close(got, want, tol) else f"{path}: {got!r} != {want!r}"


def _zeta(weights: np.ndarray, n: int) -> np.ndarray:
    out = weights.astype(float).copy()
    for v in range(n):
        view = out.reshape(-1, 2, 1 << v)
        view[:, 1, :] += view[:, 0, :]
    return out


class Checker:
    """Checks one pass of job outputs; some checks (translation pairs) need
    two jobs, so they settle in :meth:`finish`."""

    def __init__(self, golden: dict, tables: dict):
        self.golden = golden
        self.dense = {name: oracles.DenseTable(t["measure"], t["values"]) for name, t in tables.items()}
        self._torus_tables: dict[int, np.ndarray] = {}
        self._pairs: dict[str, list[tuple[int, float]]] = {}

    # -- entry points ---------------------------------------------------------
    def check(self, index: int, job: dict, code, out) -> str | None:
        """Failure reason for one job, or None when its output is correct."""
        expect = job.get("expect_exit", 0)
        if code != expect:
            return f"exit {code}, expected {expect}"
        check = job["check"]
        kind = check["type"]
        if kind == "refusal":
            return None
        if "argv" in job and kind != "golden_clue_csv":
            try:
                out = json.loads(out)
            except ValueError as exc:
                return f"output is not JSON: {exc}"
            if out.get("schema") != 1:
                return "missing schema 1"
        return getattr(self, "_" + kind)(index, check, out)

    def finish(self) -> list[tuple[int, str]]:
        failures = []
        for pair, members in self._pairs.items():
            if len(members) != 2:
                failures += [(i, f"pair {pair} incomplete") for i, _ in members]
                continue
            (i, a), (j, b) = members
            samples = int(pair.split("|")[1])
            pbar = 0.5 * (a + b)
            tol = 6.0 * math.sqrt(2.0 * max(pbar * (1 - pbar), 1.0 / samples) / samples)
            if abs(a - b) > tol:
                failures += [(i, f"translation pair {pair}: {a} vs {b}"), (j, "pair partner")]
        self._pairs.clear()
        return failures

    # -- exact, golden ------------------------------------------------------
    def _golden_analyze(self, index, check, out):
        spec, mask = check["spec"], check["mask"]
        want = self.golden["analyze"][spec][orbit_key(spec, mask)]
        if out["subset"] != [v for v in range(mask.bit_length()) if (mask >> v) & 1]:
            return "subset echoed wrongly"
        bad = same_payload(out["metrics"], want["metrics"])
        if bad:
            return "metrics" + bad
        m = out["metrics"]
        if "spectral_clue" in m and not close(m["l2_clue"], m["spectral_clue"]):
            return "l2_clue != spectral_clue"
        if out.get("p_min") is not None and not close(out["p_min"], want["p_min"]):
            return "p_min"
        return None

    def _golden_clue_csv(self, index, check, text):
        spec = check["spec"]
        n = int(spec.split(":")[1])
        want = self.golden["analyze"][spec]
        lines = text.split("\n")
        if lines[0] != "mask,clue" or lines[-1] != "" or len(lines) != (1 << n) + 2:
            return "bad CSV shape"
        rows = lines[1:-1]
        masks = np.array([int(r.partition(",")[0], 16) for r in rows])
        if not np.array_equal(masks, np.arange(1 << n)):
            return "CSV masks out of order"
        values = np.array([r.partition(",")[2] for r in rows], dtype=float)
        ref = np.array([want[str(k)]["metrics"]["l2_clue"] for k in range(n + 1)])
        err = np.max(np.abs(values - ref[popcount_array(masks, n)]))
        return None if err <= EXACT_TOL else f"CSV clue off by {err}"

    def _golden_spectrum(self, index, check, out):
        spec = check["spec"]
        want = self.golden["spectrum"][spec]
        if out["kind"] != want["kind"]:
            return "kind"
        for field in ("level_weights", "marginals"):
            bad = same_payload(out[field], want[field])
            if bad:
                return field + bad
        coeff = want["coeff"]
        for hexmask, value in out["values"].items():
            if not close(value, coeff[orbit_key(spec, int(hexmask, 16))]):
                return f"coefficient {hexmask}"
        n = len(want["marginals"])
        return None if len(out["values"]) == 1 << n else "coefficient count"

    def _golden_bernoulli(self, index, check, out):
        spec, p = check["spec"], check["p"]
        n = int(spec.split(":")[1])
        table = self.golden["analyze"][spec]
        ref = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) * table[str(k)]["metrics"]["l2_clue"]
                  for k in range(n + 1))
        if not close(out["expected_clue"], ref):
            return f"expected_clue {out['expected_clue']} != {ref}"
        if not close(out["revealment"], p, 1e-12):
            return "revealment"
        return None if close(out["p_min"], table["0"]["p_min"]) else "p_min"

    def _golden_fixed(self, index, check, out):
        want = self.golden["fixed"][check["key"]]
        return same_payload(out, want)

    # -- exact, brute force ---------------------------------------------------
    def _dense_analyze(self, index, check, out):
        t = self.dense[check["table"]]
        mask = check["mask"]
        names = []
        for key in out["metrics"]:
            names.append({"l2_clue": "l2", "spectral_clue": "spectral", "sig": "sig", "sig_i": "sig",
                          "influence_set": "inf", "witness": "wit", "tv_clue": "tv",
                          "i_clue": "i", "kl_clue": "kl"}[key])
        bad = same_payload(out["metrics"], t.metrics(mask, list(dict.fromkeys(names))))
        if bad:
            return "metrics" + bad
        m = out["metrics"]
        if not close(m["l2_clue"], m["spectral_clue"]):
            return "l2_clue != spectral_clue"
        if out["degenerate_fibers"] != bool(np.any(t.pi == 0)):
            return "degenerate_fibers flag"
        if t.is_boolean() and not close(out["p_min"], t.p_min()):
            return "p_min"
        return None

    def _dense_spectrum(self, index, check, out):
        t = self.dense[check["table"]]
        n = t.n
        norms = np.array([out["values"][f"{m:#x}"] for m in range(1 << n)])
        if out["kind"] != "component_norms":
            return "kind"
        if norms.min() < -EXACT_TOL or not close(norms[0], t.mean**2):
            return "norms sign or constant part"
        if not close(norms[1:].sum(), t.var):
            return "norms do not sum to the variance"
        levels = np.bincount(popcount_array(np.arange(1 << n), n), weights=norms, minlength=n + 1)
        if same_payload(out["level_weights"], levels.tolist()):
            return "level_weights"
        clue_all = (_zeta(norms, n) - norms[0]) / t.var
        for mask in range(0, 1 << n, max(1, (1 << n) // 16)):
            if not close(clue_all[mask], t.clue(mask)):
                return f"spectral clue at {mask:#x}"
        # P[coordinate j] for a uniform element of the conditioned spectral sample
        masks = np.arange(1, 1 << n)
        share = norms[1:] / norms[1:].sum() / popcount_array(masks, n)
        marginals = [float(share[(masks >> j) & 1 == 1].sum()) for j in range(n)]
        return None if same_payload(out["marginals"], marginals) is None else "marginals"

    def _dense_all_subsets(self, index, check, out):
        t = self.dense[check["table"]]
        values = out["clue"]
        if len(values) != 1 << t.n:
            return "mask count"
        for mask in range(1 << t.n):
            if not close(values[f"{mask:#x}"], t.clue(mask)):
                return f"clue at {mask:#x}"
        return None

    def _dense_game(self, index, check, out):
        t = self.dense[check["table"]]
        v = t.game(check["kind"])
        phi = oracles.shapley(v, t.n)
        if same_payload(out["shapley"], phi.tolist()):
            return "shapley"
        if out["efficiency_gap"] > EXACT_TOL:
            return "efficiency"
        slack = 1e-10
        if out["supermodular"]:
            if oracles.min_supermodular_gap(v, t.n) < -slack - EXACT_TOL:
                return "claimed supermodular"
        else:
            if check["kind"] == "variance":
                return "variance game must be supermodular"
            s, u = out["supermodular_witness"]
            if oracles.supermodular_gap(v, s, u) > -slack + EXACT_TOL:
                return "witness pair does not violate supermodularity"
        payoff = np.array([sum(phi[i] for i in range(t.n) if (s >> i) & 1) for s in range(1 << t.n)])
        excess = float(np.min(payoff - v))
        if out["shapley_in_core"] and excess < -slack - EXACT_TOL:
            return "claimed Shapley in core"
        if not out["shapley_in_core"] and excess > -slack + EXACT_TOL:
            return "claimed Shapley outside the core"
        return None

    def _dense_bernoulli(self, index, check, out):
        t = self.dense[check["table"]]
        p = check["p"]
        ref = sum(p ** bin(s).count("1") * (1 - p) ** (t.n - bin(s).count("1")) * t.clue(s)
                  for s in range(1 << t.n))
        if not close(out["expected_clue"], ref):
            return f"expected_clue {out['expected_clue']} != {ref}"
        if not close(out["revealment"], p, 1e-12):
            return "revealment"
        return None if out["degenerate_fibers"] == bool(np.any(t.pi == 0)) else "degenerate_fibers flag"

    # -- Monte Carlo ----------------------------------------------------------
    def _mc_clue(self, index, check, out):
        exact = oracles.zoo_clue(check["spec"], check["mask"])
        return self._mc_compare(out, exact, check)

    def _mc_table_clue(self, index, check, out):
        exact = self.dense[check["table"]].clue(check["mask"])
        return self._mc_compare(out, exact, check)

    def _mc_compare(self, out, exact, check):
        if (out["outer"], out["inner"]) != (check["outer"], check["inner"]):
            return "sample sizes echoed wrongly"
        tol = MC_CLUE_K / math.sqrt(check["outer"])
        if not abs(out["estimate"] - exact) <= tol:
            return f"estimate {out['estimate']} vs exact {exact} (tol {tol:.3g})"
        return None

    def _mc_stability(self, index, check, est):
        exact = oracles.zoo_stability(check["spec"], check["p"])
        tol = MC_STABILITY_K / math.sqrt(check["samples"])
        return None if abs(est.estimate - exact) <= tol else f"stability {est.estimate} vs {exact}"

    def _mc_expected(self, index, check, est):
        mean, var = oracles.expected_zoo_clue(check["spec"], check["p"])
        tol = MC_CLUE_K / math.sqrt(check["outer"]) + 6.0 * math.sqrt(var / check["n_sets"])
        return None if abs(est.estimate - mean) <= tol else f"expected clue {est.estimate} vs {mean}"

    # -- percolation ------------------------------------------------------------
    def _perco_rect_mc(self, index, check, out):
        samples = check["samples"]
        if out["samples"] != samples:
            return "sample count"
        # self-dual rectangle: crossing probability is exactly 1/2 (6 sigma)
        tol = 3.0 / math.sqrt(samples)
        return None if abs(out["probability"] - 0.5) <= tol else f"probability {out['probability']}"

    def _perco_rect_exact(self, index, check, out):
        ok = out["probability_exact"] == "1/2" and out["self_dual"] is True
        return None if ok else f"exact probability {out['probability_exact']}"

    def _torus_table(self, n: int) -> np.ndarray:
        """+-1 crossing table of the side-n torus, from the package's
        embedding; averaging and clue below are computed independently."""
        if n not in self._torus_tables:
            from cluekit import perco

            self._torus_tables[n] = np.asarray(perco.torus_lr_table(perco.TorusSpec(n)).values)
        return self._torus_tables[n]

    @staticmethod
    def _translate_index(n: int, dx: int, dy: int) -> np.ndarray:
        """Index of the configuration moved by the translation (dx, dy): edge e
        of the original lands on edge perm[e]."""
        m = 2 * n * n
        perm = []
        for e in range(m):
            vertical, rest = divmod(e, n * n)
            y, x = divmod(rest, n)
            perm.append(vertical * n * n + ((y + dy) % n) * n + (x + dx) % n)
        idx = np.arange(1 << m, dtype=np.int64)
        moved = np.zeros(1 << m, dtype=np.int64)
        for e in range(m):
            moved |= ((idx >> e) & 1) << perm[e]
        return moved

    def _perco_torus_avg_exact(self, index, check, out):
        n, mask = check["n"], check["mask"]
        table = self._torus_table(n)
        avg = np.mean([table[self._translate_index(n, dx, dy)] for dx in range(n) for dy in range(n)], axis=0)
        m = 2 * n * n
        exact = oracles.DenseTable(np.full((m, 2), 0.5), avg).clue(mask)
        bound = 2.0 * bin(mask).count("1") / n**2
        if not close(out["clue"], exact):
            return f"clue {out['clue']} vs {exact}"
        if not close(out["bound"], bound) or out["holds"] is not (exact <= bound + 1e-9):
            return "bound or verdict"
        return None

    def _perco_torus_avg_mc(self, index, check, report):
        n, mask = check["n"], check["mask"]
        bound = 2.0 * bin(mask).count("1") / n**2
        tol = MC_CLUE_K / math.sqrt(check["outer"])
        # two-orbit bound: the averaged crossing's clue cannot exceed 2|U|/n^2
        if not close(report.bound, bound) or not -tol <= report.clue <= bound + tol:
            return f"clue {report.clue} outside [0, {bound}] +- {tol:.3g}"
        return None

    def _perco_disagree_exact(self, index, check, out):
        n, (dx, dy), samples = check["n"], check["d"], check["samples"]
        table = self._torus_table(n)
        exact = float(np.mean(table != table[self._translate_index(n, dx, dy)]))
        tol = 6.0 * math.sqrt(max(exact * (1 - exact), 1.0 / samples) / samples)
        if out["samples"] != samples or not out["ci"][0] <= out["estimate"] <= out["ci"][1]:
            return "samples or interval"
        return None if abs(out["estimate"] - exact) <= tol else f"disagreement {out['estimate']} vs {exact}"

    def _perco_disagree_pair(self, index, check, out):
        if out["samples"] != check["samples"] or not out["ci"][0] <= out["estimate"] <= out["ci"][1]:
            return "samples or interval"
        key = f"{check['pair']}|{check['samples']}"
        self._pairs.setdefault(key, []).append((index, out["estimate"]))
        return None
