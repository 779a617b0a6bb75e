"""Command line entry point.

    simulate <config-path> [--mode aniso|hydro|sweep] [--eps <v>] [--out <dir>]
             [--quiet]

Flags override the corresponding config values.  Exit codes: 0 success,
1 configuration error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .aniso import NumericsError
from .config import ConfigError, eps_label, load_config
from .harness import epsilon_sweep, preflight, run_simulation

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simulate",
        description="Run the anisotropic/hydrostatic polluted-atmosphere laboratory.",
    )
    ap.add_argument("config", help="path to the run configuration file")
    ap.add_argument("--mode", choices=("aniso", "hydro", "sweep"), default=None)
    ap.add_argument("--eps", type=float, default=None, help="override eps_list with one value")
    ap.add_argument("--out", default=None, help="override the output directory")
    ap.add_argument("--quiet", action="store_true")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        run_block = cfg.run
        if args.mode is not None:
            run_block = replace(run_block, mode=args.mode)
        if args.eps is not None:
            if not (0.0 < args.eps <= 1.0):
                raise ConfigError(f"--eps must lie in (0, 1], got {args.eps}")
            run_block = replace(run_block, eps_list=(args.eps,))
        if args.out is not None:
            run_block = replace(run_block, output_dir=args.out)
        cfg = replace(cfg, run=run_block)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = cfg.run.output_dir
    try:
        if cfg.run.mode == "sweep":
            result = epsilon_sweep(cfg, out_dir=out, quiet=args.quiet)
            if not args.quiet:
                for row in result.report.rows:
                    print(
                        f"eps={row.eps:g}: err_uH={row.err_uH:.6e} "
                        f"err_u3={row.err_u3:.6e} err_C={row.err_C:.6e}"
                    )
        else:
            preflight(cfg, [(eps, cfg.run.mode) for eps in cfg.run.eps_list])
            for eps in cfg.run.eps_list:
                run_dir = (
                    os.path.join(out, f"{cfg.run.mode}_eps{eps_label(eps)}")
                    if len(cfg.run.eps_list) > 1
                    else out
                )
                run_simulation(cfg, eps, cfg.run.mode, out_dir=run_dir, quiet=args.quiet)
    except NumericsError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
