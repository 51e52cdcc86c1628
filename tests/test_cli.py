import json
from io import StringIO

import numpy as np
import pytest

from cluekit import cli, spectral, suites, transforms
from cluekit import clue as clue_mod
from cluekit.cli import _ByMask, _emit, _emit_csv, build_parser, main
from cluekit.clue import clue, clue_all_subsets_table
from cluekit.core import FunctionTable, ProductSpace, uniform_space
from cluekit.fnio import load_function, table_from_dict
from cluekit.errors import ParseError
from cluekit.infotheory import mutual_information_all_subsets, value_entropy
from cluekit.suites import _variance
from cluekit.zoo import from_spec
from conftest import biased_bits, save_table, table_dict


def run_cli(capsys, *argv):
    code = 0
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    payload = None
    text = out if code == 0 else err
    if text.strip().startswith("{"):
        payload = json.loads(text.strip().splitlines()[-1])
    return code, payload, out


def test_analyze_maj3(capsys):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:3", "--subset", "0", "--metrics", "l2")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["metrics"]["l2_clue"] == pytest.approx(0.25)


def test_analyze_maj3_coordinate_metrics(capsys):
    code, payload, _ = run_cli(
        capsys, "analyze", "--fn", "maj:3", "--subset", "0", "--metrics", "l2,sig,inf,wit,tv"
    )
    assert code == 0
    metrics = payload["metrics"]
    assert metrics["l2_clue"] == pytest.approx(0.25)
    assert metrics["sig"] == pytest.approx(0.5)
    assert metrics["influence_set"] == pytest.approx(0.5)
    assert metrics["witness"] == pytest.approx(0.0)
    assert metrics["tv_clue"] == pytest.approx(0.5)
    assert payload["p_min"] == pytest.approx(0.5)
    assert payload["degenerate_fibers"] is False


def test_analyze_parity_both_zero(capsys):
    code, payload, _ = run_cli(
        capsys, "analyze", "--fn", "parity:4", "--subset", "0,1,2", "--metrics", "l2,i"
    )
    assert code == 0
    assert payload["metrics"]["l2_clue"] == pytest.approx(0.0, abs=1e-12)
    assert payload["metrics"]["i_clue"] == pytest.approx(0.0, abs=1e-12)


def test_analyze_sum8(capsys):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "sum:8", "--subset", "0,1", "--metrics", "l2")
    assert code == 0
    assert payload["metrics"]["l2_clue"] == pytest.approx(0.25, abs=1e-12)


def test_analyze_bernoulli_reports_revealment(capsys):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:3", "--subset", "bernoulli:0.5")
    assert code == 0
    assert payload["expected_clue"] == pytest.approx(13 / 32, abs=1e-10)
    assert payload["revealment"] == pytest.approx(0.5)


def test_analyze_bernoulli_reaches_maj21(capsys):
    """One all-subsets transform, so n = 21 answers (the per-subset route
    stopped at n = 20)."""
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:21", "--subset", "bernoulli:0.3")
    assert code == 0
    f = from_spec("maj:21").table
    exact = spectral.stability(spectral.stability_profile(f), 0.3) / _variance(f)
    assert payload["expected_clue"] == pytest.approx(exact, abs=1e-10)
    assert payload["revealment"] == pytest.approx(0.3, abs=1e-12)


def _random_set_tables(tmp_path) -> dict:
    """maj:5, a biased table file and a q = 3 table file, by CLI spec."""
    rng = np.random.default_rng(29)
    biased = FunctionTable(biased_bits(5, [0.2, 0.7, 0.45, 0.9, 0.6]), rng.standard_normal(32))
    pi = rng.dirichlet(np.ones(3), size=4)
    ternary = FunctionTable(ProductSpace(4, 3, pi), rng.integers(0, 3, 81).astype(float))
    tables = {"maj:5": from_spec("maj:5").table}
    for name, f in (("biased", biased), ("q3", ternary)):
        save_table(f, tmp_path / f"{name}.json")
        tables[str(tmp_path / f"{name}.json")] = f
    return tables


def test_analyze_singletons_is_the_mean_single_coordinate_clue(capsys, tmp_path):
    for fn, f in _random_set_tables(tmp_path).items():
        code, payload, _ = run_cli(capsys, "analyze", "--fn", fn, "--subset", "singletons")
        assert code == 0
        mean = np.mean([clue(f, 1 << v) for v in range(f.n)])
        assert payload["expected_clue"] == pytest.approx(mean, rel=1e-12)
        assert payload["revealment"] == 1 / f.n


@pytest.mark.parametrize("p, want", [("0", 0.0), ("1", 1.0)])
def test_analyze_bernoulli_endpoints(capsys, p, want):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:5", "--subset", f"bernoulli:{p}")
    assert code == 0
    assert payload["expected_clue"] == want
    assert payload["revealment"] == want


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_analyze_refuses_a_bernoulli_probability_off_the_unit_interval(capsys, p):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:5", "--subset", f"bernoulli:{p}")
    assert code == 2
    assert "[0, 1]" in payload["error"]


def test_random_set_forms_refuse_a_constant_table(capsys, tmp_path):
    save_table(FunctionTable(biased_bits(3, 0.3), np.full(8, 2.5)), tmp_path / "const.json")
    for subset in ("bernoulli:0.4", "singletons"):
        code, payload, _ = run_cli(capsys, "analyze", "--fn", str(tmp_path / "const.json"),
                                   "--subset", subset)
        assert code == 4
        assert payload["exit"] == 4


def test_random_set_forms_build_no_subset_law(capsys, monkeypatch, tmp_path):
    """Both forms read the n+1 level weights: no law over the 2^n subsets
    (the revealment suite's builder is the canary), no all-subsets clue and no
    zeta over the masks."""
    tables = _random_set_tables(tmp_path)
    want = {(fn, subset): run_cli(capsys, "analyze", "--fn", fn, "--subset", subset)[1]
            for fn in tables for subset in ("bernoulli:0.3", "singletons")}

    def refuse(*args, **kwargs):
        raise AssertionError("a 2^n route ran")

    for module, name in ((suites, "_bernoulli_sets"), (clue_mod, "clue_all_subsets_table"),
                         (transforms, "subset_zeta"), (spectral, "subset_zeta")):
        monkeypatch.setattr(module, name, refuse)
    for (fn, subset), payload in want.items():
        assert run_cli(capsys, "analyze", "--fn", fn, "--subset", subset)[1] == payload


def test_parse_error_exit_2(capsys):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:oops", "--subset", "0")
    assert code == 2
    assert "expected" in payload["error"]


# later calls omit flags an earlier call set; a parse error precedes a valid call
PARSER_REUSE_CALLS = [
    ("clue", "--fn", "maj:5", "--all-subsets", "--csv"),
    ("clue", "--fn", "maj:5", "--subset", "0,1", "--metrics", "l2"),
    ("perco", "--rect", "3x2", "--mc", "200", "--seed", "4"),
    ("perco", "--rect", "3x2"),
    ("spectrum", "--fn", "maj:5", "--efron-stein"),
    ("spectrum", "--fn", "maj:5"),
    ("analyze", "--fn", "maj:5"),
    ("analyze", "--fn", "maj:5", "--subset", "0"),
    ("analyze", "--fn", "maj:oops", "--subset", "0"),
    ("clue", "--fn", "maj:5", "--all-subsets"),
]


def test_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    assert build_parser() is build_parser()

    def run_all():
        runs = []
        for argv in PARSER_REUSE_CALLS:
            code, _, out = run_cli(capsys, *argv)
            runs.append((code, out))
        return runs

    shared = run_all()
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = run_all()
    assert [code for code, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 0, 2, 0]
    assert shared == fresh


def test_guard_error_exit_3(capsys):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "parity:30", "--subset", "0")
    assert code == 3


def test_over_budget_zoo_table_exits_3(capsys):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:27", "--subset", "0")
    assert code == 3
    assert "GiB" in payload["error"]


def test_refusals_name_a_sampling_route_only_where_one_serves(capsys):
    """The dense-table guard names mc-clue and exact enumeration perco --mc;
    the information game's lattice has no sampling route, and its refusal
    names none."""
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:27", "--subset", "0")
    assert code == 3 and "mc-clue" in payload["error"]
    code, payload, _ = run_cli(capsys, "perco", "--rect", "24x1")
    assert code == 3 and "perco --mc" in payload["error"]
    code, payload, _ = run_cli(capsys, "game", "--fn", "parity:22", "--iclue")
    assert code == 3 and "lattice" in payload["error"]
    assert not any(word in payload["error"].lower() for word in ("montecarlo", "monte carlo", "mc-clue", "--mc"))


def test_degenerate_error_exit_4(capsys, tmp_path):
    f = FunctionTable(uniform_space(2), np.ones(4))
    path = tmp_path / "const.json"
    save_table(f, path)
    code, payload, _ = run_cli(capsys, "analyze", "--fn", str(path), "--subset", "0")
    assert code == 4


def test_spectrum_refuses_a_constant_table_on_biased_bits(capsys, tmp_path):
    # the weights sum to 1 only up to rounding, so the marginals would be noise
    f = FunctionTable(biased_bits(3, [0.7, 0.4, 0.75]), np.ones(8))
    path = tmp_path / "const.json"
    save_table(f, path)
    code, payload, _ = run_cli(capsys, "spectrum", "--fn", str(path))
    assert code == 4
    assert payload["exit"] == 4
    code, _, out = run_cli(capsys, "spectrum", "--fn", str(path), "--csv")
    assert code == 0
    assert out.splitlines()[1] == "0x0,1.0"


def test_information_metrics_on_rows_within_rounding_of_one(capsys, tmp_path):
    # six rows 9e-13 short of 1: the weights sum to 1 - 5.4e-12
    space = ProductSpace(6, 2, np.tile([0.5, 0.4999999999991], (6, 1)))
    f = FunctionTable(space, np.random.default_rng(1).integers(0, 2, 64).astype(float))
    path = tmp_path / "tight.json"
    save_table(f, path)
    code, payload, _ = run_cli(capsys, "analyze", "--fn", str(path), "--subset", "0,2", "--metrics", "i,sig")
    assert code == 0
    lattice = mutual_information_all_subsets(f) / value_entropy(f)
    assert payload["metrics"]["i_clue"] == pytest.approx(lattice[0b101], abs=1e-12)
    assert payload["metrics"]["sig_i"] == pytest.approx(1 - lattice[0b111010], abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["clue", "--fn", "maj:5", "--subset", "0x0"],
    ["analyze", "--fn", "tribes:2,3", "--subset", "0x0", "--metrics", "sig,i"],
], ids=["clue-maj5", "analyze-tribes"])
def test_sig_i_of_the_empty_subset_is_zero(capsys, argv):
    # Z is a function of all coordinates: I(Z : X_all) is H(Z) itself
    code, payload, _ = run_cli(capsys, *argv)
    assert code == 0
    assert payload["metrics"]["sig"] == 0.0
    assert payload["metrics"]["sig_i"] == 0.0


def test_verify_unknown_suite_exit_2(capsys):
    code, payload, _ = run_cli(capsys, "verify", "nosuchsuite")
    assert code == 2


def test_verify_transitive_bound_passes(capsys):
    code, payload, _ = run_cli(capsys, "verify", "transitive-bound")
    assert code == 0
    assert payload["pass"] is True
    assert payload["suite"] == "transitive-bound"


def test_spectrum_json(capsys):
    code, payload, _ = run_cli(capsys, "spectrum", "--fn", "maj:3")
    assert code == 0
    assert payload["kind"] == "coefficients"
    assert payload["values"]["0x7"] == pytest.approx(-0.5)
    assert payload["level_weights"] == pytest.approx([0.0, 0.75, 0.0, 0.25])
    assert payload["marginals"] == pytest.approx([1 / 3] * 3)


def test_clue_all_subsets_csv(capsys):
    code, _, out = run_cli(capsys, "clue", "--fn", "maj:3", "--all-subsets", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mask,clue"
    assert len(lines) == 9
    row = dict(line.split(",") for line in lines[1:])
    assert float(row["0x1"]) == pytest.approx(0.25)


def test_sweep_output_bytes_match_the_row_by_row_format(capsys):
    """Block-written CSV and one-shot JSON give the bytes of one f-string
    row per mask and of the streaming encoder."""
    f = from_spec("maj:9").table
    clues = clue_all_subsets_table(f)
    coeffs = spectral.walsh_hadamard(f)
    _, _, out = run_cli(capsys, "clue", "--fn", "maj:9", "--all-subsets", "--csv")
    assert out == "mask,clue\n" + "".join(f"{m:#x},{float(v)!r}\n" for m, v in enumerate(clues))
    _, _, out = run_cli(capsys, "spectrum", "--fn", "maj:9", "--csv")
    assert out == "mask,value\n" + "".join(f"{m:#x},{float(v)!r}\n" for m, v in enumerate(coeffs))
    _, _, out = run_cli(capsys, "clue", "--fn", "maj:9", "--all-subsets")
    ref = StringIO()
    json.dump({"schema": 1, "fn": "maj:9", "clue": {f"{m:#x}": float(v) for m, v in enumerate(clues)}},
              ref)
    assert out == ref.getvalue() + "\n"


def _csv_cases():
    rng = np.random.default_rng(12)
    signed_zeros = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 0.5, -0.0, -1.0])
    return {
        "maj9-clue": clue_all_subsets_table(from_spec("maj:9").table),
        "all-distinct": rng.standard_normal(1 << 12),
        "signed-zeros": signed_zeros,
        # three blocks, the last one short, with values repeated across them
        "blocks": rng.integers(0, 5, (1 << 17) + 3) / 3.0,
        # no row, one row, one full block, and one row past it
        "rows-0": np.array([]),
        "rows-1": np.array([-0.0]),
        "rows-65536": rng.integers(0, 3, 1 << 16) - 1.0,
        "rows-65537": rng.integers(0, 3, (1 << 16) + 1) - 1.0,
        "specials": np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
                              -np.nan, np.inf, 0.0]),
    }


def assert_same_text(got: str, expected: str):
    """Equality of long outputs, reported at the first differing character
    (pytest's own diff of megabyte strings would take minutes)."""
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        near = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"lengths {len(got)}, {len(expected)}; first difference at {at}: "
                    f"{got[near]!r} against {expected[near]!r}")


CSV_CASES = ["maj9-clue", "all-distinct", "signed-zeros", "blocks", "rows-0", "rows-1",
             "rows-65536", "rows-65537", "specials"]


@pytest.mark.parametrize("case", CSV_CASES)
def test_emit_csv_matches_one_row_per_mask(capsys, case):
    """Formatting each distinct value once gives the bytes of one f-string
    per row; 0.0 and -0.0 compare equal but print apart."""
    values = _csv_cases()[case]
    _emit_csv("mask,value", values)
    rows = "".join(f"{hex(m)},{v!r}\n" for m, v in enumerate(values.tolist()))
    assert_same_text(capsys.readouterr().out, "mask,value\n" + rows)


@pytest.mark.parametrize("case", CSV_CASES)
def test_emit_by_mask_matches_json_dumps(capsys, case):
    """A by-mask vector is written as the object json.dumps gives for the
    dict {hex(mask): value}, NaN and infinities spelled as json spells them."""
    values = _csv_cases()[case]
    _emit({"fn": "f", "clue": _ByMask(values)})
    by_mask = dict(zip(map(hex, range(len(values))), values.tolist()))
    assert_same_text(capsys.readouterr().out, json.dumps({"schema": 1, "fn": "f", "clue": by_mask}) + "\n")


def test_emit_writes_a_by_mask_vector_in_its_place(capsys):
    """Keys before and after the vector keep their order and their json.dumps
    bytes, numpy values included."""
    values = spectral.walsh_hadamard(from_spec("maj:5").table)
    payload = {"fn": "maj:5", "kind": "coefficients", "values": _ByMask(values),
               "level_weights": [0.0, 0.5, np.float64(0.25)], "marginals": np.array([0.2, 0.8]),
               "ok": np.bool_(True)}
    _emit(payload)
    expected = {**payload, "values": dict(zip(map(hex, range(32)), values.tolist())),
                "level_weights": [0.0, 0.5, 0.25], "marginals": [0.2, 0.8], "ok": True}
    assert capsys.readouterr().out == json.dumps({"schema": 1, **expected}) + "\n"


def test_game_command(capsys):
    code, payload, _ = run_cli(
        capsys, "game", "--fn", "maj:3", "--checks", "shapley,supermod,core,bound"
    )
    assert code == 0
    assert payload["shapley"] == pytest.approx([1 / 3] * 3)
    assert payload["supermodular"] is True
    assert payload["shapley_in_core"] is True
    assert payload["transitive_bound"]["holds"] is True


def test_game_command_past_ten_players(capsys):
    code, payload, _ = run_cli(
        capsys, "game", "--fn", "maj:13", "--checks", "shapley,supermod,core,bound"
    )
    assert code == 0
    assert payload["supermodular"] is True
    assert "supermodular_witness" not in payload
    assert payload["shapley"] == pytest.approx([payload["shapley"][0]] * 13)
    assert payload["efficiency_gap"] <= 1e-12
    assert payload["shapley_in_core"] is True
    assert payload["transitive_bound"]["holds"] is True


def test_game_with_explicit_action(capsys, tmp_path):
    f = from_spec("maj:3").table
    path = tmp_path / "maj3.json"
    save_table(f, path)
    code, payload, _ = run_cli(
        capsys, "game", "--fn", str(path), "--checks", "bound", "--action", "cyclic:3"
    )
    assert code == 0
    assert payload["transitive_bound"]["holds"] is True


def _game_bound_with_action_file(capsys, tmp_path, perms):
    path = tmp_path / "perms.json"
    path.write_text(json.dumps(perms))
    return run_cli(capsys, "game", "--fn", "maj:3", "--checks", "bound", "--action", f"@{path}")


def test_game_bound_reads_an_action_file_as_generators(capsys, tmp_path):
    listed = _game_bound_with_action_file(capsys, tmp_path, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    generated = _game_bound_with_action_file(capsys, tmp_path, [[1, 2, 0]])
    assert listed[0] == generated[0] == 0
    assert generated[2] == listed[2]
    assert generated[1]["transitive_bound"] == {"holds": True, "max_violation": 0.0}
    # a swap alone generates a group that is not transitive on 3 coordinates
    code, payload, _ = _game_bound_with_action_file(capsys, tmp_path, [[1, 0, 2]])
    assert code == 2 and payload["error"].startswith("hypotheses not met")


@pytest.mark.parametrize("perms", [[[1, 2, 0], [0, 0, 1]], []], ids=["not-a-permutation", "empty"])
def test_game_bound_refuses_a_bad_action_file(capsys, tmp_path, perms):
    code, payload, _ = _game_bound_with_action_file(capsys, tmp_path, perms)
    assert code == 2
    assert payload["error"].startswith("bad permutation list file")


def test_game_bound_refuses_an_action_on_another_number_of_coordinates(capsys):
    code, payload, _ = run_cli(capsys, "game", "--fn", "maj:5", "--checks", "bound", "--action", "cyclic:3")
    assert code == 2
    assert payload["error"] == "group acts on 3 coordinates but the function has 5"


@pytest.mark.parametrize("spec", ["cyclic:0", "symmetric:-1", "tribes:0,3", "tribes:2,0", "tribes:2,-1",
                                  "torus:-1", "cyclic:3,1", "tribes:3"])
def test_game_bound_refuses_a_group_spec_off_its_sizes(capsys, spec):
    code, payload, _ = run_cli(capsys, "game", "--fn", "maj:3", "--checks", "bound", "--action", spec)
    assert code == 2
    assert payload["error"] == f"bad group spec '{spec}'"


def test_analyze_refuses_a_malformed_bernoulli_probability(capsys):
    code, payload, _ = run_cli(capsys, "analyze", "--fn", "maj:5", "--subset", "bernoulli:0.3:junk")
    assert code == 2
    assert "'0.3:junk'" in payload["error"]


def test_perco_exact(capsys):
    code, payload, _ = run_cli(capsys, "perco", "--rect", "3x2")
    assert code == 0
    assert payload["probability"] == pytest.approx(0.5)
    assert payload["probability_exact"] == "1/2"
    assert payload["self_dual"] is True


# the torus job runs the default 100k samples; its stdout was recorded on the
# stream of 64 fair bits per Philox word
PERCO_PINNED = [
    (("perco", "--rect", "4x3"),
     '{"schema": 1, "rect": [4, 3], "probability": 0.5, "probability_exact": "1/2", '
     '"self_dual": true}\n'),
    (("perco", "--torus", "3", "--disagree", "1,0", "--seed", "7"),
     '{"schema": 1, "torus": 3, "displacement": [1, 0], "estimate": 0.10446, '
     '"ci": [0.10257945268612292, 0.10637093627573474], "samples": 100000, "seed": 7, '
     '"generator": "philox4x64/splitmix64/bits64"}\n'),
]


@pytest.mark.parametrize("argv, stdout", PERCO_PINNED, ids=["rect-4x3", "torus-3-disagree"])
def test_perco_stdout_is_pinned(capsys, argv, stdout):
    code, _, out = run_cli(capsys, *argv)
    assert (code, out) == (0, stdout)


def test_perco_exact_refuses_23_edges(capsys):
    code, payload, _ = run_cli(capsys, "perco", "--rect", "24x1")
    assert code == 3
    assert "digit matrix" in payload["error"]


def test_perco_mc_requires_seed(capsys):
    code, payload, _ = run_cli(capsys, "perco", "--rect", "4x3", "--mc", "1000")
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_perco_mc_refuses_nonpositive_sample_counts(capsys, samples):
    code, _, _ = run_cli(capsys, "perco", "--rect", "3x2", "--mc", samples, "--seed", "1")
    assert code == 2


@pytest.mark.parametrize("edge", ["h:7,0", "v:0,3", "h:-1,0", "v:1,-2"])
def test_perco_torus_edge_off_the_torus_exits_2(capsys, edge):
    code, payload, _ = run_cli(capsys, "perco", "--torus", "3", "--avg-clue", "--subset", edge)
    assert code == 2
    assert "off the side-3 torus" in payload["error"]


def test_emit_writes_numpy_booleans_as_json_booleans(capsys):
    _emit({"holds": np.bool_(True), "clamped": np.bool_(False)})
    assert json.loads(capsys.readouterr().out) == {"schema": 1, "holds": True, "clamped": False}


def test_perco_torus_edge_subset(capsys):
    code, payload, _ = run_cli(
        capsys, "perco", "--torus", "3", "--avg-clue", "--subset", "h:0,0+v:1,1"
    )
    assert code == 0
    assert payload["bound"] == pytest.approx(4 / 9)
    assert payload["holds"] is True


def test_mc_clue_command_deterministic(capsys):
    args = ["mc-clue", "--fn", "maj:3", "--subset", "0", "--outer", "600", "--inner", "20", "--seed", "7"]
    code1, payload1, _ = run_cli(capsys, *args)
    code2, payload2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert payload1["estimate"] == payload2["estimate"]
    assert payload1["generator"] == "philox4x64/splitmix64/bits64"


# stdout recorded on the stream of 64 fair bits per Philox word, where the
# evaluators that widen the digits to int64 spins (the reference in
# test_zoo.py) give the same estimates: the digit-sum evaluators must
# reproduce it bitwise
MC_CLUE_PINS = [
    (["--fn", "parity:33", "--subset", ",".join(map(str, range(17))), "--outer", "512",
      "--inner", "8", "--seed", "5"],
     '{"schema": 1, "fn": "parity:33", "subset": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, '
     '14, 15, 16], "estimate": 0.0, "stderr": 0.0, '
     '"batches": 2, "outer": 512, "inner": 8, "seed": 5, "generator": "philox4x64/splitmix64/bits64", '
     '"clamped": true}\n'),
    (["--fn", "maj:21", "--subset", ",".join(map(str, range(0, 20, 2))), "--outer", "512",
      "--inner", "16", "--seed", "9"],
     '{"schema": 1, "fn": "maj:21", "subset": [0, 2, 4, 6, 8, 10, 12, 14, 16, 18], '
     '"estimate": 0.31036875263103203, "stderr": 0.005403429570775275, "batches": 2, '
     '"outer": 512, "inner": 16, "seed": 9, "generator": "philox4x64/splitmix64/bits64", '
     '"clamped": false}\n'),
]


@pytest.mark.parametrize("argv, expected", MC_CLUE_PINS, ids=["parity33", "maj21"])
def test_mc_clue_output_is_pinned(capsys, argv, expected):
    code, _, out = run_cli(capsys, "mc-clue", *argv)
    assert code == 0
    assert out == expected


def test_mc_clue_on_a_biased_table_file_is_pinned(capsys, tmp_path):
    """A 0/1 table on 12 biased bits, the shape of the monte_carlo
    benchmark's table jobs, sampled by the cut rule; stdout recorded once
    the fiber statistics of two-valued evaluators came from integer fiber
    counts (stderr ...566168 before, on the same draws)."""
    gen = np.random.default_rng(12)
    p = gen.uniform(0.25, 0.75, size=12)
    table = FunctionTable(ProductSpace(12, 2, np.stack([1 - p, p], axis=1)),
                          gen.integers(0, 2, size=2**12).astype(float))
    path = tmp_path / "mc12.json"
    save_table(table, path)
    code, _, out = run_cli(capsys, "mc-clue", "--fn", str(path), "--subset", "0,2,3,7,11", "--seed", "43")
    assert code == 0
    assert out.replace(str(path), "<table>") == (
        '{"schema": 1, "fn": "<table>", "subset": [0, 2, 3, 7, 11], "estimate": 0.015113756379986838, '
        '"stderr": 0.001790455151656617, "batches": 8, "outer": 2000, "inner": 50, "seed": 43, '
        '"generator": "philox4x64/splitmix64/bits64", "clamped": false}\n')


SEED_ARGV = {
    "mc-clue": ["mc-clue", "--fn", "maj:21", "--subset", "0,1,2,3", "--outer", "600", "--inner", "4"],
    "perco": ["perco", "--rect", "4x3", "--mc", "100"],
}


@pytest.mark.parametrize("command", SEED_ARGV)
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeds_off_64_bits_exit_2(capsys, command, seed):
    code, payload, out = run_cli(capsys, *SEED_ARGV[command], "--seed", str(seed))
    assert code == 2 and out == ""
    assert payload["exit"] == 2 and "seed" in payload["error"]


@pytest.mark.parametrize("command", SEED_ARGV)
def test_the_largest_seed_runs(capsys, command):
    code, payload, _ = run_cli(capsys, *SEED_ARGV[command], "--seed", str((1 << 64) - 1))
    assert code == 0
    assert payload["seed"] == (1 << 64) - 1


def test_mc_clue_reports_missing_error_bar(capsys):
    subset = ",".join(str(v) for v in range(10))
    code, payload, out = run_cli(capsys, "mc-clue", "--fn", "maj:21", "--subset", subset,
                                 "--outer", "200", "--seed", "3")
    assert code == 0
    assert '"stderr": null' in out
    assert payload["batches"] == 1


def test_spectrum_runs_the_transform_once(capsys, monkeypatch, tmp_path):
    """Uniform bits, biased bits and q = 3 with a zero atom: the values, the
    spectral sample and the level weights all read one kept transform."""
    rng = np.random.default_rng(5)
    pi = np.array([[0.2, 0.0, 0.8], [0.5, 0.25, 0.25], [0.1, 0.6, 0.3], [0.2, 0.0, 0.8]])
    for name, space in (("biased", biased_bits(6, 0.3)), ("q3", ProductSpace(4, 3, pi))):
        save_table(FunctionTable(space, rng.standard_normal(space.size)), tmp_path / f"{name}.json")
    calls = []
    real = spectral._transform

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "_transform", counted)
    for fn, extra in (("maj:11", ()), ("maj:11", ("--efron-stein",)), ("maj:11", ("--csv",)),
                      (str(tmp_path / "biased.json"), ()), (str(tmp_path / "q3.json"), ())):
        calls.clear()
        code, payload, _ = run_cli(capsys, "spectrum", "--fn", fn, *extra)
        assert code == 0
        assert len(calls) == 1
        if payload is not None:
            assert sum(payload["marginals"]) == pytest.approx(1.0)


def test_round_trip_preserves_metrics(tmp_path, capsys):
    f = from_spec("maj:3").table
    path = tmp_path / "maj3.json"
    save_table(f, path)
    g = load_function(path)
    np.testing.assert_array_equal(f.values, g.values)
    code, payload, _ = run_cli(capsys, "analyze", "--fn", str(path), "--subset", "0", "--metrics", "l2,tv")
    assert code == 0
    assert payload["metrics"]["l2_clue"] == pytest.approx(0.25, abs=1e-15)
    assert payload["metrics"]["tv_clue"] == pytest.approx(0.5, abs=1e-15)


def test_fnio_validates(tmp_path):
    with pytest.raises(ParseError):
        table_from_dict({"n": 2, "q": 2, "measure": [[0.5, 0.5]], "values": [0, 1, 2, 3]})
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_function(path)


def test_mc_clue_refuses_an_alphabet_above_a_byte(capsys, tmp_path):
    """q = 257: a table that is 1 exactly on digit 256 of coordinate 0.
    Its digits do not fit the samplers' bytes, so mc-clue exits 2 instead
    of never drawing digit 256; the exact route reads its clue, 1."""
    values = np.zeros(257)
    values[256] = 1.0
    path = tmp_path / "q257.json"
    save_table(FunctionTable(uniform_space(1, 257), values), path)
    code, payload, _ = run_cli(capsys, "mc-clue", "--fn", str(path), "--subset", "0", "--seed", "1")
    assert code == 2 and "q = 257" in payload["error"]
    code, payload, _ = run_cli(capsys, "analyze", "--fn", str(path), "--subset", "0", "--metrics", "l2")
    assert code == 0 and payload["metrics"]["l2_clue"] == 1.0
    with pytest.raises(ValueError, match="q = 257"):
        uniform_space(1, 257).digits()


BAD_FILES = {
    "nan-measure": '{"n": 2, "q": 2, "measure": [[NaN, NaN], [0.5, 0.5]], "values": [0, 1, 1, 0]}',
    "fractional-n": '{"n": 2.9, "q": 2, "measure": [[0.5, 0.5], [0.5, 0.5]], "values": [0, 1, 1, 0]}',
}


@pytest.mark.parametrize("kind", sorted(BAD_FILES))
def test_every_table_command_refuses_a_bad_function_file(kind, capsys, tmp_path):
    """Exit 2, not a finite estimate (mc-clue) or a constant-function verdict
    (analyze, spectrum, exit 4)."""
    path = tmp_path / "bad.json"
    path.write_text(BAD_FILES[kind])
    for argv in (("analyze", "--subset", "0"), ("spectrum",), ("mc-clue", "--subset", "0", "--seed", "1")):
        code, payload, _ = run_cli(capsys, argv[0], "--fn", str(path), *argv[1:])
        assert code == 2, argv
        assert payload["exit"] == 2


@pytest.mark.parametrize("bad", [2.9, True, "2"], ids=["fraction", "boolean", "string"])
def test_fnio_refuses_a_count_that_is_not_an_integer(bad):
    data = {"n": 2, "q": 2, "measure": [[0.5, 0.5], [0.5, 0.5]], "values": [0, 1, 1, 0]}
    for key in ("n", "q"):
        with pytest.raises(ParseError, match=f"{key} = .* is not an integer"):
            table_from_dict({**data, key: bad})
    assert table_from_dict({**data, "n": 2.0, "q": 2.0}).n == 2  # a whole float still loads


def test_fnio_round_trip_biased(tmp_path):
    space = biased_bits(2, 0.3)
    f = FunctionTable(space, np.array([0.5, -1.25, 3.0, 2.0**-45]))
    path = tmp_path / "t.json"
    save_table(f, path)
    g = load_function(path)
    np.testing.assert_array_equal(g.values, f.values)
    np.testing.assert_array_equal(g.space.pi, f.space.pi)
    assert table_dict(g) == table_dict(f)


def test_zoo_list(capsys):
    code, payload, _ = run_cli(capsys, "zoo", "list")
    assert code == 0
    assert "tribes" in payload["families"]
