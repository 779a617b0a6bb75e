#!/usr/bin/env python3
"""Run the default eps sweep and print the convergence table.

Usage:  python scripts/run_sweep.py [out_dir]

Equivalent to `simulate scripts/sweep.cfg --out <out_dir>` plus a summary of
the convergence report, the norm-uniformity table, and the translation
modulus.
"""

import os
import sys

from hydrolimit.config import load_config
from hydrolimit.diagnostics import APRIORI_NORM_NAMES
from hydrolimit.harness import epsilon_sweep


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    cfg = load_config(os.path.join(here, "sweep.cfg"))
    out = sys.argv[1] if len(sys.argv) > 1 else cfg.run.output_dir

    print(f"sweep -> {out}  (eps = {list(cfg.run.eps_list)})")
    result = epsilon_sweep(cfg, out_dir=out, quiet=False)

    print("\nconvergence against the hydrostatic reference")
    print(f"{'eps':>8}  {'err_uH':>12}  {'err_u3':>12}  {'err_C':>12}")
    for row in result.report.rows:
        print(f"{row.eps:8.4f}  {row.err_uH:12.5e}  {row.err_u3:12.5e}  {row.err_C:12.5e}")
    print(
        f"fitted rates: uH {result.report.rate_uH:.2f}, "
        f"u3 {result.report.rate_u3:.2f}, C {result.report.rate_C:.2f}"
    )

    eps_keys = sorted(k for k in result.norm_table if k != "hydro")[::-1]
    print("\na-priori norms across eps (uniform boundedness check)")
    header = "  ".join(f"{e:>10}" for e in eps_keys)
    print(f"{'norm':>16}  {header}")
    for name in APRIORI_NORM_NAMES:
        vals = "  ".join(f"{result.norm_table[e][name]:10.4e}" for e in eps_keys)
        print(f"{name:>16}  {vals}")

    if result.translation is not None:
        print(
            f"\ntranslation modulus exponent (eps = {eps_keys[0]}): "
            f"{result.translation.exponent:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
