"""Record golden.json: exact outputs of the exact_uniform jobs, one per orbit.

Run from the repository root against the commit whose outputs become the
reference:

    PYTHONPATH=src python3 perfbench/record_golden.py

For every zoo spec the workload analyzes, the analyze command runs once per
orbit of subsets under the spec's symmetry group; spectra are stored once
per orbit of masks (the script refuses a spec whose coefficients are not
constant on orbits); fixed jobs (games) are stored whole.  Takes about a
minute and under 1 GB.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from cluekit import cli  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(buf.getvalue())


def main() -> int:
    golden: dict = {"analyze": {}, "spectrum": {}, "fixed": {}}
    analyze_specs = {spec: workloads.metrics_for(spec) for spec in workloads.UNIFORM_ANALYZE_SPECS}
    analyze_specs[workloads.CSV_SPEC] = "l2"
    analyze_specs[workloads.BIG_SPEC] = "l2"
    for spec, metrics in analyze_specs.items():
        n = workloads.spec_n(spec)
        entries = {}
        for key, mask in checks.orbit_representatives(spec, n).items():
            out = run_cli(["analyze", "--fn", spec, "--subset", hex(mask), "--metrics", metrics])
            entries[key] = {"metrics": out["metrics"], "p_min": out.get("p_min"),
                            "degenerate_fibers": out["degenerate_fibers"]}
        golden["analyze"][spec] = entries
        print(f"analyze {spec}: {len(entries)} orbits", file=sys.stderr)
    for spec in workloads.UNIFORM_SPECTRUM_SPECS:
        out = run_cli(["spectrum", "--fn", spec])
        coeff: dict[str, float] = {}
        for hexmask, value in out["values"].items():
            key = checks.orbit_key(spec, int(hexmask, 16))
            if key in coeff and abs(coeff[key] - value) > 1e-12:
                raise SystemExit(f"{spec}: coefficients not constant on orbit {key}")
            coeff.setdefault(key, value)
        golden["spectrum"][spec] = {"kind": out["kind"], "coeff": coeff,
                                    "level_weights": out["level_weights"],
                                    "marginals": out["marginals"]}
    for argv in workloads.UNIFORM_GAME_ARGV:
        golden["fixed"][" ".join(argv)] = run_cli(list(argv))
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
