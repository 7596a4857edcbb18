"""Command-line entry points.

Exit codes are a stable contract: 0 success, 2 config error, 3 solver
divergence or numeric fault. A failed `verify` check exits 1.
Output directory precedence: --outdir flag, then $KIRCHHEAT_OUTDIR, then
the config's output.dir.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .runner import (
    ConfigError,
    OUTDIR_ENV,
    convergence_study,
    format_float,
    load_config,
    resolve_outdir,
    run_scenario,
    sweep,
    uniqueness_probe,
    verify_suite,
    write_sweep_csv,
)
from .timeloop import SolverDivergenceError


def _parse_modes(text: str) -> list[int]:
    try:
        modes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("--modes", f"expected comma-separated integers, got {text!r}") from exc
    if len(modes) < 2:
        raise ConfigError("--modes", "need at least 2 mode counts")
    return modes


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    result = run_scenario(config, outdir=args.outdir)
    diag = result.diagnostics
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.json_path}")
    print(f"E(0) = {diag['E0']:.6g}, E(t_end) = {diag['E_end']:.6g}, "
          f"monotone = {diag['energy_monotone']}")
    return 0


def _cmd_converge(args) -> int:
    config = load_config(args.config)
    rows = convergence_study(config, _parse_modes(args.modes))
    out = resolve_outdir(config, args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{config.output_prefix}_convergence.csv"
    lines = ["n_coarse,n_fine,max_energy_diff,terminal_state_diff"]
    print(f"{'N':>6} {'2N':>6} {'max |E_N - E_2N|':>18} {'terminal diff':>14}")
    for row in rows:
        lines.append(f"{row.n_coarse},{row.n_fine},"
                     f"{format_float(row.max_energy_diff)},"
                     f"{format_float(row.terminal_state_diff)}")
        print(f"{row.n_coarse:>6} {row.n_fine:>6} {row.max_energy_diff:>18.6e} "
              f"{row.terminal_state_diff:>14.6e}")
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_probe_uniqueness(args) -> int:
    config = load_config(args.config)
    if not math.isfinite(args.eps):
        raise ConfigError("--eps", f"epsilon must be finite, got {args.eps}")
    if args.eps < 0.0:
        raise ConfigError("--eps", f"epsilon must be >= 0, got {args.eps}")
    report = uniqueness_probe(config, args.eps)
    out = resolve_outdir(config, args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{config.output_prefix}_uniqueness.json"
    tree = asdict(report)
    if not math.isfinite(report.ratio):
        tree["ratio"] = None
    path.write_text(json.dumps(tree, indent=2, sort_keys=True, default=str) + "\n")
    print(json.dumps(tree, indent=2, sort_keys=True, default=str))
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    grid_path = Path(args.grid)
    try:
        grid = json.loads(grid_path.read_text())
    except OSError as exc:
        raise ConfigError(str(grid_path), f"cannot read grid: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(grid_path), f"invalid JSON: {exc}") from exc
    if not isinstance(grid, dict):
        raise ConfigError(str(grid_path), "grid must be a JSON object")
    sigmas = grid.pop("sigmas", None)
    try:
        rows, scale_rows = sweep(config, grid, sigmas=sigmas)
    except ValueError as exc:
        raise ConfigError(str(grid_path), str(exc)) from exc

    out = resolve_outdir(config, args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{config.output_prefix}_sweep.csv"
    write_sweep_csv(rows, path)
    print(f"wrote {path} ({len(rows)} cells, "
          f"{sum(1 for r in rows if r.error)} failed)")
    if scale_rows:
        spath = out / f"{config.output_prefix}_scale.csv"
        write_sweep_csv(scale_rows, spath, axes=["sigma"])
        print(f"wrote {spath} ({len(scale_rows)} scales)")
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    checks = verify_suite(config)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    failed = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchheat",
        description="Spectral simulator and diagnostics for a thermally damped "
                    "Kirchhoff string/membrane.",
        epilog=f"Output directory: --outdir overrides ${OUTDIR_ENV} overrides the config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario, write trajectory CSV + diagnostics JSON")
    p.add_argument("config")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("converge", help="re-run at several truncation levels and compare")
    p.add_argument("config")
    p.add_argument("--modes", required=True, help="comma-separated increasing counts, e.g. 8,16,32")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("probe-uniqueness", help="compare base vs perturbed initial data")
    p.add_argument("config")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_probe_uniqueness)

    p = sub.add_parser("sweep", help="parameter sweep from a JSON grid file")
    p.add_argument("config")
    p.add_argument("grid")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the invariant suite, print pass/fail per check")
    p.add_argument("config")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverDivergenceError as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
