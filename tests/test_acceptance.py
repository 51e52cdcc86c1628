"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6 asserts the TV upper bound in its provable square-root
form ``tv <= sqrt(clue) / (2 sqrt(p_min (1 - p_min)))``: for Boolean ``f``
with ``p = P[f=1]`` and ``g = E[f|U] - p``, ``E|f - p| = 2p(1-p)`` and
Cauchy-Schwarz gives ``E|g| <= sqrt(E g^2) = sqrt(clue p(1-p))``.  Equality
holds whenever ``|E[f|U] - p|`` is constant (every single coordinate of
uniform bits), and the test asserts that the bound is attained.  The linear form
``tv <= (2/p_min) clue`` is false for weakly informative subsets, where the TV
ratio scales like ``sqrt(clue)``; the suite reports its gap and
counterexamples, and the test asserts only that the gap stays negative.
Criterion 6 also asserts the projection transfer bound in its
triangle-inequality form and the witness <= clue <= sig <= influence order
chain on balanced tables; the naive transfer floor is reported unasserted.
"""
import inspect

from cluekit import suites


def _report(number: int, rep: suites.SuiteReport) -> None:
    status = "PASS" if rep.passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{rep.suite}] {status} ({rep.seconds:.1f}s) {rep.details}")


def _run(number: int, name: str):
    rep = suites.run_suite(name)
    _report(number, rep)
    assert rep.passed, f"criterion {number} violations: {rep.violations[:5]}"
    return rep


def test_criterion_01_transitive_clue_bound():
    rep = _run(1, "transitive-bound")
    assert rep.seconds < 30.0
    assert rep.details["sum_sharpness_err"] <= 1e-10


def test_criterion_02_spectral_identity():
    rep = _run(2, "spectral-identity")
    assert rep.details["worst_err"] <= 1e-10


def test_criterion_03_efron_stein():
    rep = _run(3, "efron-stein")
    assert rep.details["min_mass"] >= -1e-12
    assert rep.details["worst_sum_err"] <= 1e-9
    assert rep.details["worst_orth"] <= 1e-9
    assert rep.details["worst_walsh_err"] <= 1e-10


def test_criterion_04_games():
    rep = _run(4, "games")
    assert rep.details["worst_shapley_vs_marginal"] <= 1e-9
    assert rep.details["min_subgame_shapley_gain"] >= -1e-10
    large = {(row["fn"], row["kind"]): row for row in rep.details["large_games"]}
    assert set(large) == {("tribes:4,4", "variance"), ("tribes:3,4", "information"),
                          ("tribes:4,4", "information")}
    for row in large.values():
        assert row["supermodular"] is True
        assert row["efficiency_gap"] <= 1e-12
        assert row["shares_vs_marginal"] <= 1e-12


def test_criterion_05_information_bounds():
    rep = _run(5, "shearer")
    assert rep.details["worst_i_slack"] <= 1e-10
    assert rep.details["worst_kl_slack"] <= 1e-10
    assert rep.details["worst_cover_deficit"] >= -1e-10
    assert rep.details["worst_kl_cover_deficit"] >= -1e-10


def test_criterion_06_sandwiches():
    rep = _run(6, "sandwiches")
    assert rep.details["tv_lower"] >= -1e-10
    assert rep.details["tv_upper"] >= -1e-10
    assert rep.details["i_lower"] >= -1e-10
    assert rep.details["i_upper"] >= -1e-10
    # the sqrt-form TV upper bound is attained, not merely satisfied
    assert rep.details["tv_upper_max_ratio"] >= 1 - 1e-9
    # the linear form 2/p_min * clue stays reported as false
    assert rep.details["tv_upper_linear_gap"] < 0
    assert rep.details["projection_floor_margin"] >= -1e-9
    assert rep.details["projection_corr_margin"] >= -1e-9
    # the naive floor c - 2 eps stays reported as false
    assert rep.details["naive_transfer_gap"] < 0
    for link in ("witness_clue", "clue_sig", "sig_influence"):
        assert rep.details[f"chain_{link}"] >= -1e-12


def test_criterion_07_revealment():
    rep = _run(7, "revealment")
    assert rep.details["worst_gap"] <= 1e-10
    assert rep.details["worst_bernoulli_identity_err"] <= 1e-10
    assert rep.details["worst_fiber_err"] <= 1e-10


def test_criterion_08_covariance_identity():
    rep = _run(8, "covariance-lemma")
    assert rep.details["identity_constant"] == 1.0
    assert rep.details["dictator_pins_constant"]
    assert rep.details["worst_abs_err"] <= 1e-9
    assert "1/4" in rep.details["note"]  # the rejected variant is documented
    assert rep.details["threshold_pairs_vary"]
    assert rep.details["max_n"] == 16


def test_criterion_09_percolation():
    rep = _run(9, "perco")
    assert rep.details["self_dual_probability"] == "1/2"
    assert rep.details["bound_worst_slack"] <= 1e-9
    assert rep.details["masks_checked"] >= 18 + 153 + 500
    assert abs(rep.details["mc_estimate"] - rep.details["exact_4x3"]) <= 3 * rep.details["mc_stderr"]


def test_criterion_10_monte_carlo_calibration():
    rep = _run(10, "montecarlo")
    for case in ("maj3", "sum16"):
        stats = rep.details[case]
        assert abs(stats["mean"] - 0.25) <= 3 * stats["sem"]
        assert stats["nesting_bias"] > 0.0
    assert rep.details["seed_determinism"] is True


def test_criterion_11_finite_size_surrogates():
    rep = _run(11, "composite-trend")
    points = rep.details["points"]
    assert [p["t"] for p in points] == [40, 80, 160]
    estimates = [p["estimate"] for p in points]
    assert estimates == sorted(estimates)
    # exact two-point oracle agrees with each Monte Carlo estimate
    for p in points:
        assert abs(p["estimate"] - p["exact"]) <= 3 * max(p["stderr"], 1e-9)


def test_every_suite_takes_no_parameters():
    """``cluekit verify`` and this module check the same pinned instances."""
    for name, suite_fn in suites.SUITES.items():
        assert not inspect.signature(suite_fn).parameters, name
