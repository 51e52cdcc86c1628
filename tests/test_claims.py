"""The suites' claim recorder: what counts as past a bound, NaN, caps, and
faults injected into one suite per direction."""
import math

import numpy as np
import pytest

from cluekit import suites
from cluekit.suites import _Claim


def _violated(rep: suites.SuiteReport) -> set:
    return {v["claim"] for v in rep.violations}


def test_an_upper_claim_fails_just_above_its_bound():
    claim = _Claim("err", 1e-10, "err is small")
    claim.see(1e-10, trial=0)
    assert claim.violations == []
    assert claim.entry()["margin"] == 0.0
    claim.see(np.nextafter(1e-10, 1.0), trial=1)
    assert claim.violations == [{"claim": "err", "value": np.nextafter(1e-10, 1.0), "trial": 1}]
    assert claim.worst == np.nextafter(1e-10, 1.0)
    assert claim.entry()["margin"] < 0.0


def test_a_lower_claim_fails_just_below_its_bound():
    claim = _Claim("slack", -1e-10, "slack is nonnegative", lower=True)
    claim.see(np.array([0.5, -1e-10, 0.0]))
    assert claim.violations == []
    assert claim.worst == -1e-10
    claim.see(np.array([0.5, np.nextafter(-1e-10, -1.0)]), fn="f")
    assert claim.violations == [{"claim": "slack", "value": np.nextafter(-1e-10, -1.0), "fn": "f", "mask": 1}]
    assert claim.entry()["margin"] < 0.0


def test_array_entries_read_their_where_arrays_at_their_mask():
    claim = _Claim("slack", 0.0, "slack is nonnegative", lower=True)
    claim.see(np.array([1.0, -1.0, 2.0, -2.0]), clue=np.array([0.1, 0.2, 0.3, 0.4]), trial=3)
    assert claim.violations == [
        {"claim": "slack", "value": -1.0, "mask": 1, "clue": 0.2, "trial": 3},
        {"claim": "slack", "value": -2.0, "mask": 3, "clue": 0.4, "trial": 3},
    ]


def test_nan_is_always_past_and_stays_the_worst_value():
    for lower in (False, True):
        claim = _Claim("x", 0.0, "x is bounded", lower=lower)
        claim.see(np.array([0.0, np.nan, 0.0]))
        claim.see(-5.0 if lower else 5.0)
        assert math.isnan(claim.worst)
        assert [v["mask"] for v in claim.violations if "mask" in v] == [1]
        assert not claim.entry()["margin"] >= 0.0


def test_caps_unasserted_and_unbounded_claims():
    capped = _Claim("x", 0.0, "x <= 0", cap=2)
    capped.see(np.ones(5))
    capped.see(1.0)
    assert [v["mask"] for v in capped.violations] == [0, 1]
    unasserted = _Claim("gap", 0.0, "a false form", lower=True, asserted=False)
    unasserted.see(-1.0)
    assert unasserted.violations == [{"claim": "gap", "value": -1.0}]
    assert unasserted.entry() == {"name": "gap", "worst": -1.0, "bound": None, "margin": None,
                                  "statement": "a false form"}
    unbounded = _Claim("ratio", None, "reported only")
    unbounded.see(np.array([np.nan, 2.0]))
    assert unbounded.violations == [] and math.isnan(unbounded.worst)


def test_truth_claims_keep_their_value():
    claims = suites._Claims()
    holds = claims.holds("ok", "it holds")
    holds.see(True)
    assert holds.worst is True and holds.violations == []
    holds.see(False, fn="f")
    assert holds.worst is False
    assert holds.violations == [{"claim": "ok", "value": False, "fn": "f"}]


def _poison(monkeypatch, name: str, change):
    real = getattr(suites, name)

    def poisoned(f):
        out = np.array(real(f), dtype=float)
        change(out)
        return out

    monkeypatch.setattr(suites, name, poisoned)


def test_a_nan_fails_the_transitive_bound(monkeypatch):
    _poison(monkeypatch, "clue_all_subsets_table", lambda out: out.__setitem__(3, np.nan))
    rep = suites.run_suite("transitive-bound")
    assert not rep.passed
    assert {"worst_slack", "sum_sharpness_err"} <= _violated(rep)
    assert math.isnan(rep.details["worst_slack"]) and math.isnan(rep.details["sum_sharpness_err"])


def test_a_nan_fails_the_sandwiches(monkeypatch):
    _poison(monkeypatch, "tv_clue_all_subsets", lambda out: out.__setitem__(5, np.nan))
    rep = suites.run_suite("sandwiches")
    assert not rep.passed
    assert {"tv_lower", "tv_upper"} <= _violated(rep)
    assert math.isnan(rep.details["tv_lower"]) and math.isnan(rep.details["tv_upper"])


def test_a_shifted_clue_fails_an_upper_claim(monkeypatch):
    _poison(monkeypatch, "clue_all_subsets_table", lambda out: out.__iadd__(1e-6))
    rep = suites.run_suite("transitive-bound")
    assert not rep.passed
    assert "worst_slack" in _violated(rep)
    claims = {c["name"]: c for c in rep.claims}
    assert claims["worst_slack"]["margin"] == pytest.approx(1e-10 - 1e-6)


def test_a_negative_cover_deficit_fails_a_lower_claim(monkeypatch):
    monkeypatch.setattr(suites, "_shearer_deficit", lambda f, cover, k: -1e-6)
    rep = suites.run_suite("shearer")
    assert _violated(rep) == {"worst_cover_deficit"}
    assert len(rep.violations) == 50
    assert rep.details["worst_cover_deficit"] == -1e-6


def test_sandwich_caps_hold(monkeypatch):
    _poison(monkeypatch, "clue_all_subsets_table", lambda out: out.fill(np.nan))
    rep = suites.run_suite("sandwiches")
    for key in ("tv_lower", "tv_upper", "i_lower", "i_upper"):
        assert sum(v["claim"] == key for v in rep.violations) == 8, key
    assert len(rep.details["tv_upper_linear_counterexamples"]) == 4
    assert "tv_upper_linear_gap" not in _violated(rep)


def _t7_central(t: float) -> float:
    """P(|T| <= t) for Student-t with 7 degrees of freedom, by the closed
    form for odd degrees of freedom."""
    theta = math.atan(t / math.sqrt(7))
    c2 = math.cos(theta) ** 2
    return 2 / math.pi * (theta + math.sin(theta) * math.cos(theta) * (1 + 2 / 3 * c2 + 8 / 15 * c2**2))


def test_montecarlo_coverage_constants():
    tail = 1 - _t7_central(3.0)
    assert round(tail, 6) == 0.019942
    # the closed form against Simpson's rule on the t(7) density
    x = np.linspace(0.0, 3.0, 2001)
    density = math.gamma(4) / (math.sqrt(7 * math.pi) * math.gamma(3.5)) * (1 + x**2 / 7) ** -4
    simpson = (x[1] - x[0]) / 3 * (density[0] + 4 * density[1:-1:2].sum() + 2 * density[2:-1:2].sum()
                                   + density[-1])
    assert 2 * simpson == pytest.approx(_t7_central(3.0), abs=1e-12)
    # at most 12 of 200 reps past 3: 13 or more has probability 2.2e-4
    beyond = sum(math.comb(200, k) * tail**k * (1 - tail) ** (200 - k) for k in range(13, 201))
    assert round(beyond, 5) == 2.2e-4
    assert "0.019942" in suites.montecarlo_suite.__doc__ and "2.2e-4" in suites.montecarlo_suite.__doc__
