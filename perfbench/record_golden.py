"""Record golden.json: the verdicts, exit codes and seed-independent
constants of every benchmark operation, and the reconstruction tolerances.

    python3 perfbench/record_golden.py

Run once on the commit whose answers define "correct".  Every one of the
SEEDS seeds must give the same outcome (constants within
workloads.CONST_RTOL); a reconstruction tolerance is twice the largest
relative error seen (over MEMBERS members per space in-process), and
never tighter than 1e-6.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
GOLDEN_PATH = HERE / "golden.json"
TOL_FLOOR = 1e-6
SEEDS = 5
MEMBERS = 300


def tolerances(errors: list[dict]) -> dict:
    """Per reference ("exact", "grid"): the tolerance over errors."""
    return {ref: float(f"{max(TOL_FLOOR, 2.0 * max(e[ref] for e in errors)):.1e}") for ref in errors[0]}


def same_for_all(outcomes: list[dict], compare) -> dict:
    for other in outcomes[1:]:
        problems = compare(other, outcomes[0])
        if problems:
            raise SystemExit(f"outcome depends on the seed: {problems}")
    return outcomes[0]


def main() -> int:
    GOLDEN_PATH.write_text("{}")  # workloads reads it at import
    import run
    import workloads

    golden = {"cli_mix": {}, "cli_reconstruct_tol": {}, "certify_fine": {}, "reconstruct": {}}
    seeds = range(SEEDS)

    cli, cli_err = {}, {}
    for seed in seeds:
        workdir = Path(tempfile.mkdtemp(dir=ROOT))
        try:
            workloads.write_cli_inputs(workdir, seed)
            for i, (key, argv) in enumerate(workloads.cli_matrix(seed)):
                rc = run.spawn(run.cli_command(argv), workdir, f"cmd{i}")[0]
                cli.setdefault(key, []).append(workloads.cli_report_outcome(key, rc, workdir, argv[-1]))
                if key.startswith("reconstruct"):
                    name = key.split()[1]
                    cli_err.setdefault(name, []).append(workloads.cli_reconstruction_errors(workdir, name))
        finally:
            shutil.rmtree(workdir)
    for key, outcomes in cli.items():
        golden["cli_mix"][key] = same_for_all(outcomes, workloads.compare)
    golden["cli_reconstruct_tol"] = {name: tolerances(errs) for name, errs in cli_err.items()}

    for fn, name in workloads.CERTIFY_OPS:
        outcomes = [workloads.certify_outcome(fn, workloads.certify_call(fn, name, seed)) for seed in seeds]
        golden["certify_fine"][f"{fn} {name}"] = same_for_all(outcomes, workloads.compare)

    spaces = workloads.build_recon_spaces(0)
    for name, space in spaces.items():
        routes, errors = set(), []
        for seed in seeds:
            for i in range(MEMBERS // SEEDS):
                _, route, errs, grid_errors = workloads.reconstruct_op(space, seed, i)
                routes.add(route)
                errors.append(errs | grid_errors())
        if len(routes) != 1:
            raise SystemExit(f"{name}: routes {routes}")
        golden["reconstruct"][name] = {"route": routes.pop(), "tol": tolerances(errors),
                                       "max_seen": {ref: max(e[ref] for e in errors) for ref in errors[0]}}

    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(json.dumps(golden["cli_reconstruct_tol"]), json.dumps(
        {k: v["tol"] for k, v in golden["reconstruct"].items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
