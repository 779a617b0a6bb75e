"""Command line entry point.

    simulate <config-path> [--mode aniso|hydro|sweep] [--eps <v>] [--out <dir>]
             [--quiet]

Flags override the corresponding config values.  Unless ``--quiet``, each
run prints a line when it starts and when it ends, and a sweep then prints
its certificates (``_print_certificates``).  Exit codes: 0 success,
1 configuration error or an output directory that cannot be written (one
line naming the error and the path), 2 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .aniso import NumericsError
from .config import eps_label, load_config
from .diagnostics import APRIORI_NORM_NAMES
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
            run_block = replace(run_block, eps_list=(args.eps,))
        if args.out is not None:
            run_block = replace(run_block, output_dir=args.out)
        cfg = replace(cfg, run=run_block)
    except (ValueError, OSError) as exc:  # ConfigError, or RunBlock refusing --eps
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = cfg.run.output_dir
    try:
        if cfg.run.mode == "sweep":
            result = epsilon_sweep(cfg, out_dir=out, quiet=args.quiet)
            if not args.quiet:
                _print_certificates(result)
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
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    return 0


def _print_certificates(result) -> None:
    """A sweep's errors against the hydrostatic reference and their fitted
    eps-rates, each a-priori norm across eps, and the translation modulus of
    the largest eps by shift in snapshot spacings, or why there is none."""
    report = result.report
    print("\nconvergence against the hydrostatic reference")
    print(f"{'eps':>8}  {'err_uH':>12}  {'err_u3':>12}  {'err_C':>12}")
    for row in report.rows:
        print(f"{row.eps:8.4f}  {row.err_uH:12.5e}  {row.err_u3:12.5e}  {row.err_C:12.5e}")
    print(f"fitted rates: uH {report.rate_uH:.2f}, u3 {report.rate_u3:.2f}, C {report.rate_C:.2f}")

    eps_keys = sorted(result.aniso, reverse=True)
    print("\na-priori norms across eps (uniform boundedness check)")
    print(f"{'norm':>16}  " + "  ".join(f"{e:>10}" for e in eps_keys))
    for name in APRIORI_NORM_NAMES:
        vals = "  ".join(f"{result.aniso[e].norms[name]:10.4e}" for e in eps_keys)
        print(f"{name:>16}  {vals}")

    tr = result.translation
    print(f"\ntranslation modulus (eps = {eps_keys[0]})")
    if tr is None:
        print("  none: the largest-eps run spans fewer than 9 snapshot spacings")
        return
    print(f"{'spacings':>8}  {'h':>12}  {'modulus':>12}")
    for h, mod in zip(tr.h, tr.modulus):
        print(f"{round(h / tr.h[0]):8d}  {h:12.5e}  {mod:12.5e}")
    print(f"fitted exponent: {tr.exponent:.3f}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
