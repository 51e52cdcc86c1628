"""Command-line front end.

Commands: analyze, spectrum, clue, game, perco, mc-clue, zoo, verify.
Output is JSON on stdout (schema version 1); ``--csv`` switches sweep-style
outputs to CSV.  Exit codes: 0 ok, 1 verification failure, 2 parse error,
3 guard violation, 4 degenerate function.  Randomized estimators always
require an explicit ``--seed`` in [0, 2^64); their Monte Carlo chunks run in
order in the calling thread, so results depend on the seed alone.

A sweep (``spectrum``, ``clue --all-subsets``) has one entry per subset mask,
in mask order, keyed by ``hex(mask)``: CSV rows, or a JSON object written in
its place in the payload.  Both come from :func:`_mask_rows`, which formats
each distinct value of a block once and gathers the block's rows from those
strings by value label.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import clue as clue_mod
from . import games, infotheory, perco, spectral, suites, transforms, zoo
from .core import FunctionTable, full_mask, mask_from_indices, mask_indices, uniform_space
from .errors import DegenerateError, GuardError, ParseError
from .fnio import load_function
from .montecarlo import GENERATOR_ID, mc_clue
from .symmetry import GroupAction, group_from_spec

SCHEMA = 1
MASK_BLOCK = 1 << 16  # past the first block, keys share all but four hex digits


class _ByMask:
    """A vector indexed by subset mask, which :func:`_emit` writes in its
    place as the JSON object ``{hex(mask): value}``."""

    def __init__(self, values: np.ndarray):
        self.values = values


def _emit(payload: dict):
    """Write the payload as one JSON line, the bytes of ``json.dumps``.  A
    :class:`_ByMask` value is written by :func:`_mask_rows`, never built as
    a dict; the other values go through the C encoder (``json.dump`` would
    stream through Python), the whole payload at once when none is by mask."""
    payload = {"schema": SCHEMA, **payload}
    write = sys.stdout.write
    if not any(isinstance(value, _ByMask) for value in payload.values()):
        write(json.dumps(payload, default=_jsonable) + "\n")
        return
    sep = "{"
    for key, value in payload.items():
        write(f"{sep}{json.dumps(key)}: ")
        sep = ", "
        if not isinstance(value, _ByMask):
            write(json.dumps(value, default=_jsonable))
            continue
        # rows end with ', "', the start of the next key: the first row
        # needs its opening quote, and the last row loses that end
        last = ""
        for block in _mask_rows(value.values, '": ', ', "', _json_float):
            write(last or '{"')
            last = block
        write(last.removesuffix(', "') + "}" if last else "{}")
    write("}\n")


def _emit_csv(header: str, values: np.ndarray):
    """One ``mask,value`` row per mask, ``value`` spelled by ``repr``."""
    sys.stdout.write(header + "\n")
    sys.stdout.writelines(_mask_rows(values, ",", "\n", repr))


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` spells it."""
    if math.isfinite(value):
        return repr(value)
    return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"


def _mask_rows(values: np.ndarray, sep: str, end: str, fmt):
    """Yield the rows ``hex(mask) + sep + fmt(value) + end`` of a vector
    indexed by mask, joined into one string per block of MASK_BLOCK rows.

    Values are told apart by bit pattern, so 0.0 and -0.0 keep their own
    text, and each distinct pattern of a block is formatted once.  Past the
    first block, every key of a block is the prefix ``hex(start >> 16)``
    plus four hex digits, from one suffix list made per call.  So that a
    row takes two list slots, each text carries the prefix of the key after
    it, and the block starts with its first key's prefix."""
    values = np.ascontiguousarray(values, dtype=float)
    suffixes = None
    for start in range(0, len(values), MASK_BLOCK):
        block = values[start:start + MASK_BLOCK]
        patterns, label = np.unique(block.view(np.uint64), return_inverse=True)
        texts = [sep + fmt(v) + end for v in patterns.view(float).tolist()]
        if start == 0:
            prefix, keys = "", list(map(hex, range(len(block))))
        else:
            if suffixes is None:
                pairs = [f"{b:02x}" for b in range(256)]
                suffixes = [high + low for high in pairs for low in pairs]
            prefix, keys = hex(start >> 16), suffixes
        rows = [""] * (2 * len(block))
        rows[::2] = keys[:len(block)]
        rows[1::2] = np.array([text + prefix for text in texts], dtype=object)[label].tolist()
        rows[-1] = texts[label[-1]]
        yield prefix + "".join(rows)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fail(code: int, reason: str):
    print(json.dumps({"schema": SCHEMA, "error": reason, "exit": code}), file=sys.stderr)
    sys.exit(code)


def _load_table(spec: str) -> tuple[FunctionTable, GroupAction | None]:
    """The table of a JSON file or a zoo spec, with the zoo entry's symmetry
    action (None for a file)."""
    if spec.endswith(".json"):
        return load_function(spec), None
    entry = zoo.from_spec(spec)
    return entry.table, entry.action


def _parse_subset(text: str, n: int, torus: perco.TorusSpec | None = None) -> int:
    """Subset syntax: comma-separated indices, a hex mask (0x...), or for the
    torus '+'-joined edges like h:0,1+v:2,0."""
    text = text.strip()
    if not text or text == "empty":
        return 0
    if text == "full":
        return full_mask(n)
    if torus is not None and (text.startswith("h:") or text.startswith("v:")):
        mask = 0
        for part in text.split("+"):
            kind, _, coords = part.partition(":")
            try:
                x, y = (int(c) for c in coords.split(","))
            except ValueError as exc:
                raise ParseError(f"bad edge spec '{part}'") from exc
            if not (0 <= x < torus.n and 0 <= y < torus.n):
                raise ParseError(f"edge '{part}' is off the side-{torus.n} torus")
            if kind == "h":
                mask |= 1 << torus.h_edge(x, y)
            elif kind == "v":
                mask |= 1 << torus.v_edge(x, y)
            else:
                raise ParseError(f"bad edge kind '{kind}'")
        return mask
    if text.lower().startswith("0x"):
        try:
            mask = int(text, 16)
        except ValueError as exc:
            raise ParseError(f"bad hex mask '{text}'") from exc
    else:
        try:
            mask = mask_from_indices([int(tok) for tok in text.split(",")], n)
        except ValueError as exc:
            raise ParseError(f"bad subset '{text}': {exc}") from exc
    if mask >> n:
        raise ParseError(f"mask {text} sets coordinates >= n={n}")
    return mask


METRIC_NAMES = ("l2", "spectral", "sig", "inf", "wit", "tv", "i", "kl")


def _metric_values(f: FunctionTable, mask: int, names: list[str]) -> dict:
    """The requested metrics of one mask, all read off one split of f."""
    out = {}
    dist = None
    split = clue_mod._split_of(f, mask)
    for name in names:
        if name == "l2":
            out["l2_clue"] = clue_mod.clue(f, split)
        elif name == "spectral":
            if dist is None:
                dist = spectral.spectral_distribution(f)
            out["spectral_clue"] = clue_mod.clue_spectral(dist, mask)
        elif name == "sig":
            out["sig"] = clue_mod.sig(f, split)
            out["sig_i"] = infotheory.sig_i(f, split)
        elif name == "inf":
            out["influence_set"] = clue_mod.influence_set(f, split)
        elif name == "wit":
            out["witness"] = clue_mod.witness(f, split)
        elif name == "tv":
            out["tv_clue"] = clue_mod.tv_clue(f, split)
        elif name == "i":
            out["i_clue"] = infotheory.i_clue(f, split)
        elif name == "kl":
            out["kl_clue"] = infotheory.kl_clue(f, split)
        else:
            raise ParseError(f"unknown metric '{name}' (known: {','.join(METRIC_NAMES)})")
    return out


def _cmd_analyze(args) -> int:
    f, _ = _load_table(args.fn)
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    payload = {"fn": args.fn, "n": f.n}
    if args.subset.startswith("bernoulli:") or args.subset == "singletons":
        if args.subset == "singletons":  # inclusion[k] = P(S subseteq U), |S| = k
            inclusion = np.r_[1.0, 1.0 / f.n, np.zeros(f.n - 1)]
        else:
            tail = args.subset.split(":", 1)[1]
            try:
                p = float(tail)
            except ValueError as exc:
                raise ParseError(f"bad Bernoulli probability '{tail}'") from exc
            if not 0.0 <= p <= 1.0:
                raise ValueError("p must lie in [0, 1]")
            inclusion = p ** np.arange(f.n + 1)
        payload["expected_clue"] = clue_mod.expected_clue(f, inclusion)
        payload["revealment"] = float(inclusion[1])
    else:
        mask = _parse_subset(args.subset, f.n)
        payload["subset"] = mask_indices(mask)
        payload["metrics"] = _metric_values(f, mask, names)
    if f.is_boolean():
        payload["p_min"] = clue_mod.p_min(f)
    payload["degenerate_fibers"] = f.space.has_zero_atoms
    _emit(payload)
    return 0


def _cmd_spectrum(args) -> int:
    f, _ = _load_table(args.fn)
    if args.efron_stein or not f.space.is_uniform_binary:
        values = spectral.efron_stein(f)
        kind = "component_norms"
    else:
        values = spectral.walsh_hadamard(f)
        kind = "coefficients"
    if args.csv:
        _emit_csv("mask,value", values)
        return 0
    dist = spectral.spectral_distribution(f)
    _emit(
        {
            "fn": args.fn,
            "kind": kind,
            "values": _ByMask(values),
            "level_weights": spectral.stability_profile(f).level_weights.tolist(),
            "marginals": transforms.dividend_shares(dist).tolist(),
        }
    )
    return 0


def _cmd_clue(args) -> int:
    f, _ = _load_table(args.fn)
    if args.all_subsets:
        values = clue_mod.clue_all_subsets_table(f)
        if args.csv:
            _emit_csv("mask,clue", values)
            return 0
        _emit({"fn": args.fn, "clue": _ByMask(values)})
        return 0
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    mask = _parse_subset(args.subset, f.n)
    _emit(
        {
            "fn": args.fn,
            "subset": mask_indices(mask),
            "metrics": _metric_values(f, mask, names),
        }
    )
    return 0


def _cmd_game(args) -> int:
    f, action = _load_table(args.fn)
    game = games.build_iclue_game(f) if args.iclue else games.build_clue_game(f)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    payload = {"fn": args.fn, "kind": "information" if args.iclue else "variance"}
    if "bound" in checks and args.action:
        action = group_from_spec(args.action)
    for check in checks:
        if check == "shapley":
            phi = games.shapley(game)
            payload["shapley"] = phi.tolist()
            payload["efficiency_gap"] = abs(phi.sum() - game.grand_value)
        elif check == "supermod":
            ok, pair = games.is_supermodular(game)
            payload["supermodular"] = ok
            if pair is not None:
                payload["supermodular_witness"] = list(pair)
        elif check == "core":
            payload["shapley_in_core"] = games.shapley_in_core(game)
        elif check == "bound":
            if action is None:
                raise ParseError(
                    "bound check needs a tagged zoo action or an --action group spec"
                )
            report = games.transitive_game_bound(game, action)
            payload["transitive_bound"] = {
                "holds": report.bound_holds,
                "max_violation": report.max_violation,
            }
        else:
            raise ParseError(f"unknown check '{check}'")
    _emit(payload)
    return 0


def _cmd_perco(args) -> int:
    if args.rect:
        try:
            w, h = (int(tok) for tok in args.rect.lower().split("x"))
        except ValueError as exc:
            raise ParseError(f"bad rectangle '{args.rect}', expected WxH") from exc
        rect = perco.RectangleSpec(w, h)
        if args.mc is not None:
            if args.seed is None:
                raise ParseError("--mc requires --seed")
            estimate, stderr = perco.crossing_probability_mc(rect, args.mc, args.seed)
            _emit({"rect": [w, h], "probability": estimate, "stderr": stderr,
                   "samples": args.mc, "seed": args.seed, "generator": GENERATOR_ID})
        else:
            p = perco.crossing_probability_exact(rect)
            _emit({"rect": [w, h], "probability": float(p),
                   "probability_exact": f"{p.numerator}/{p.denominator}",
                   "self_dual": rect.self_dual})
        return 0
    if args.torus is None:
        raise ParseError("perco needs --rect WxH or --torus n")
    torus = perco.TorusSpec(args.torus)
    if args.disagree:
        try:
            dx, dy = (int(tok) for tok in args.disagree.split(","))
        except ValueError as exc:
            raise ParseError("--disagree expects dx,dy") from exc
        if args.seed is None:
            raise ParseError("--disagree requires --seed")
        est = perco.translate_disagreement(args.torus, (dx, dy), args.samples, args.seed)
        _emit({"torus": args.torus, "displacement": [dx, dy], "estimate": est.estimate,
               "ci": [est.ci_low, est.ci_high], "samples": est.samples, "seed": args.seed,
               "generator": GENERATOR_ID})
        return 0
    if args.avg_clue:
        mask = _parse_subset(args.subset or "empty", torus.edge_count, torus)
        report = perco.averaged_crossing_clue_bound(torus, mask, seed=args.seed)
        _emit({"torus": args.torus, "subset_mask": mask, "clue": report.clue,
               "bound": report.bound, "stderr": report.stderr, "holds": report.holds})
        return 0
    raise ParseError("perco --torus needs --avg-clue or --disagree")


def _cmd_mc_clue(args) -> int:
    if args.fn.endswith(".json"):
        f = load_function(args.fn)
        n, evaluator, space = f.n, f.evaluator(), f.space
    else:
        n, evaluator = zoo.evaluator_from_spec(args.fn)
        space = uniform_space(n)
    mask = _parse_subset(args.subset, n)
    est = mc_clue(evaluator, space, mask, args.outer, args.inner, args.seed)
    _emit({"fn": args.fn, "subset": mask_indices(mask), "estimate": est.estimate,
           "stderr": est.stderr, "batches": est.batches, "outer": est.n_outer, "inner": est.m_inner,
           "seed": est.seed, "generator": est.generator, "clamped": est.clamped})
    return 0


def _cmd_zoo(args) -> int:
    if args.action == "list":
        _emit({"families": zoo.SPEC_FORMS})
        return 0
    raise ParseError(f"unknown zoo action '{args.action}'")


def _cmd_verify(args) -> int:
    try:
        report = suites.run_suite(args.suite)
    except KeyError:
        _fail(2, f"unknown suite '{args.suite}' (known: {', '.join(sorted(suites.SUITES))})")
    _emit(report.to_dict())
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    :func:`main` call in the process: parsing reads it and never writes it."""
    parser = argparse.ArgumentParser(prog="cluekit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="metrics of a function / subset pair")
    p.add_argument("--fn", required=True, help="zoo spec (e.g. maj:3) or JSON file")
    p.add_argument("--subset", required=True,
                   help="indices '0,2', hex mask '0x5', 'bernoulli:p', or 'singletons'")
    p.add_argument("--metrics", default="l2")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("spectrum", help="subset weights, level weights, marginals")
    p.add_argument("--fn", required=True)
    p.add_argument("--efron-stein", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("clue", help="clue metrics, optionally for all subsets")
    p.add_argument("--fn", required=True)
    p.add_argument("--subset", default="empty")
    p.add_argument("--metrics", default="l2,spectral,sig,inf,wit,tv")
    p.add_argument("--all-subsets", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_clue)

    p = sub.add_parser("game", help="cooperative-game checks")
    p.add_argument("--fn", required=True)
    p.add_argument("--iclue", action="store_true")
    p.add_argument("--checks", default="shapley,supermod,core")
    p.add_argument("--action", default=None,
                   help="group spec for the bound check: cyclic:n, symmetric:n, "
                        "tribes:l,k, torus:n, or @perms.json listing its generators")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("perco", help="percolation crossings and torus bounds")
    p.add_argument("--rect", help="WxH vertices")
    p.add_argument("--mc", type=int, default=None, help="Monte Carlo sample count")
    p.add_argument("--torus", type=int, default=None)
    p.add_argument("--avg-clue", action="store_true")
    p.add_argument("--subset", default=None, help="edges like h:0,1+v:2,0, or a mask")
    p.add_argument("--disagree", default=None, help="displacement dx,dy")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_perco)

    p = sub.add_parser("mc-clue", help="nested Monte Carlo clue estimate")
    p.add_argument("--fn", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--outer", type=int, default=2000)
    p.add_argument("--inner", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_mc_clue)

    p = sub.add_parser("zoo", help="zoo utilities")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_zoo)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        _fail(2, str(exc))
    except GuardError as exc:
        _fail(3, str(exc))
    except DegenerateError as exc:
        _fail(4, str(exc))
    except ValueError as exc:
        _fail(2, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
