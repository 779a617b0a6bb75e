"""One execution of one benchmark workload, in a fresh process.

Usage (normally started by run.py):

    python3 perfbench/child.py WORKLOAD CONFIG OUT_DIR STEPS [--trace FILE | --setup-only]

Times the set-up (``hydrolimit`` import and config parse, which reads and
validates a tensor file where the config names one) and the run itself (from
the first harness call until every certificate is in hand), checks the
outputs, and prints one JSON record as its last line of standard output.
With ``--trace`` the harness and solver calls are recorded as spans, written
to FILE, and summarised as per-layer metrics.  With ``--setup-only`` the
process stops after the set-up.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SWEEPS = ("default_sweep", "snapshot_certify")
ENERGY_HEADER = ["t", "E", "D", "W", "Q", "slack"]


def run_workload(name, cfg, out, hl):
    """Run one workload; return (runs, sweep, residuals).

    ``runs`` maps a run label to (RunResult, directory holding its CSVs).
    """
    if name in SWEEPS:
        sweep = hl.harness.epsilon_sweep(cfg, out_dir=out)
        runs = {"hydro": (sweep.hydro, os.path.join(out, "hydro"))}
        for eps, res in sweep.aniso.items():
            runs[f"aniso_eps{eps:g}"] = (res, os.path.join(out, f"aniso_eps{eps:g}"))
        residuals = None
        if name == "snapshot_certify":
            residuals = hl.diagnostics.weak_residual(sweep.hydro.history)
        return runs, sweep, residuals
    # tensor_hydro: the run writes no files; persist its two certificates
    # with the harness writer, as the CLI would.
    res = hl.harness.run_simulation(cfg, cfg.run.eps_list[0], "hydro", out_dir=None)
    hl.harness.write_csv(os.path.join(out, "energy.csv"), ENERGY_HEADER, res.energy.rows())
    hl.harness.write_csv(
        os.path.join(out, "norms.csv"),
        ["quantity", "value"],
        [(k, res.norms[k]) for k in hl.diagnostics.APRIORI_NORM_NAMES],
    )
    return {"hydro": (res, out)}, None, None


def read_norms(path, hl, findings):
    """norms.csv through harness.read_csv; its name column makes that raise."""
    try:
        _, rows = hl.harness.read_csv(path)
        return rows
    except ValueError as exc:
        findings["read_csv_rejects_norms_csv"] = str(exc)
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln][1:]
    return [(name, float(value)) for name, value in (ln.split(",") for ln in lines)]


def check(name, cfg, runs, sweep, residuals, steps, hl):
    """Correctness checks; return (errors, findings)."""
    errors, findings = [], {}
    for label, (res, d) in runs.items():
        hist = res.history
        if not all(s.is_finite() for s in hist.states):
            errors.append(f"{label}: non-finite state")
        limit = 1e-12 if hist.mode == "hydro" else 10.0 * cfg.run.tol
        if not res.max_div <= limit:
            errors.append(f"{label}: max|div| {res.max_div:.3e} > {limit:.1e}")
        if res.n_steps != steps:
            errors.append(f"{label}: {res.n_steps} steps, expected {steps}")
        header, rows = hl.harness.read_csv(os.path.join(d, "energy.csv"))
        if header != ENERGY_HEADER or rows != [[float(v) for v in r] for r in res.energy.rows()]:
            errors.append(f"{label}: energy.csv does not round-trip")
        norms = read_norms(os.path.join(d, "norms.csv"), hl, findings)
        if [tuple(r) for r in norms] != [(k, res.norms[k]) for k in hl.diagnostics.APRIORI_NORM_NAMES]:
            errors.append(f"{label}: norms.csv does not round-trip")
        slack_rel = float(min(res.energy.slack) / res.energy.E[0])
        if sweep is not None and not slack_rel >= -1e-12:
            errors.append(f"{label}: ledger slack {slack_rel:.3e} E0 < -1e-12 E0")

    if sweep is not None:
        rows = sweep.report.rows
        err_uh = [r.err_uH for r in rows]
        if not all(a > b for a, b in zip(err_uh, err_uh[1:])):
            errors.append(f"err_uH does not decrease with eps: {err_uh}")
        expect = [
            [r.eps, r.err_uH, r.err_u3, r.err_C,
             float(min(sweep.aniso[r.eps].energy.slack)), sweep.aniso[r.eps].runtime_s]
            for r in rows
        ]
        _, got = hl.harness.read_csv(os.path.join(sweep.out_dir, "sweep.csv"))
        if got != expect:
            errors.append("sweep.csv does not round-trip")
    if name == "snapshot_certify":
        tr = sweep.translation
        if tr is None or not (math.isfinite(tr.exponent) and all(map(math.isfinite, tr.modulus))):
            errors.append("no finite translation modulus")
        if not residuals or not all(math.isfinite(r.residual) for r in residuals):
            errors.append("no finite weak residuals")
    return errors, findings


def payload_digest(out):
    """sha256 of every energy.csv, norms.csv and sweep.csv, runtime_s dropped."""
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(out)):
        dirs.sort()
        for f in sorted(files):
            if f not in ("energy.csv", "norms.csv", "sweep.csv"):
                continue
            path = os.path.join(root, f)
            with open(path, encoding="utf-8") as fh:
                lines = [ln.split(",") for ln in fh.read().split("\n") if ln]
            if f == "sweep.csv":
                drop = lines[0].index("runtime_s")
                lines = [ln[:drop] + ln[drop + 1:] for ln in lines]
            h.update(os.path.relpath(path, out).encode())
            h.update("\n".join(",".join(ln) for ln in lines).encode())
    return h.hexdigest()


def output_counts(out):
    files = [os.path.join(r, f) for r, _, fs in os.walk(out) for f in fs]
    vtk = [f for f in files if f.endswith(".vtk")]
    return {
        "snapshots": len(vtk),
        "vtk_bytes": sum(os.path.getsize(f) for f in vtk),
        "output_bytes": sum(os.path.getsize(f) for f in files),
    }


def layer_metrics(tr, runs, counts, wall_s, remainder):
    """Per-layer metrics from the spans; times are self time per call in ms."""
    own = tr.self_times()
    stats = {}
    for lab, mode, s in zip(tr.label, tr.mode, own):
        st = stats.setdefault((lab, mode), [0, 0.0])
        st[0] += 1
        st[1] += s

    def ms(*labels, modes=None):
        n, t = 0, 0.0
        for (lab, mode), (c, s) in stats.items():
            if lab in labels and (modes is None or mode in modes):
                n += c
                t += s
        return 1e3 * t / n if n else 0.0

    def spans(label):
        return [i for i, lab in enumerate(tr.label) if lab == label]

    def ratio(a, b):
        return a / b if b else 0.0

    aniso_p = spans("aniso.pressure_projection_anisotropic")
    hydro_p = spans("hydro.surface_pressure_projection")
    a_iters = [tr.info[i][0] for i in aniso_p]
    h_iters = [tr.info[i][0] for i in hydro_p]
    stepped = [
        i for i in aniso_p if tr.mode[i] == "aniso" and "harness._project_initial" not in tr.ancestors(i)
    ]
    csteps = sum(1 for i in spans("operators.advect_scalar") if tr.mode[i] == "aniso")
    revalidations = sum(
        1
        for i in spans("core.coercivity_constant")
        if tr.mode[i] is not None and not any(a.startswith("diagnostics.") for a in tr.ancestors(i))
    )
    steps = sum(res.n_steps for res, _ in runs.values())
    return {
        "aniso.projection_ms": ms("aniso.pressure_projection_anisotropic"),
        "aniso.projection_calls": len(aniso_p),
        "aniso.projection_iters_mean": ratio(sum(a_iters), len(a_iters)),
        "aniso.projection_iters_max": max(a_iters, default=0),
        "aniso.projection_max_div": max((tr.info[i][1] for i in aniso_p), default=0.0),
        "aniso.step_self_ms": ms("aniso.step_anisotropic"),
        "aniso.stable_dt_ms": ms("aniso.stable_dt", modes=("aniso",)),
        "aniso.projections_per_cstep": ratio(len(stepped), csteps),
        "hydro.projection_ms": ms("hydro.surface_pressure_projection"),
        "hydro.projection_iters_mean": ratio(sum(h_iters), len(h_iters)),
        "hydro.step_self_ms": ms("hydro.step_hydrostatic"),
        "hydro.stable_dt_ms": ms("aniso.stable_dt", modes=("hydro",)),
        "hydro.diagnose_w_ms": ms("hydro.diagnose_w"),
        "operators.advect_velocity_ms": ms("operators.advect_velocity"),
        "operators.anisotropic_laplacian_ms": ms("operators.anisotropic_laplacian"),
        "operators.bcs_ms": ms("operators.apply_velocity_bcs", "operators.extend_velocity"),
        "operators.advect_scalar_ms": ms("operators.advect_scalar"),
        "operators.diffuse_concentration_ms": ms("operators.diffuse_concentration"),
        "operators.divergence_ms": ms("operators.divergence"),
        "core.coercivity_constant_ms": ms("core.coercivity_constant"),
        "core.coercivity_calls_per_step": ratio(revalidations, steps),
        "core.coriolis_at_ms": ms("core.coriolis_at"),
        "sources.evaluate_source_ms": ms("sources.evaluate_source"),
        "diagnostics.energy_balance_ms": ms("diagnostics.energy_balance"),
        "diagnostics.apriori_norms_ms": ms("diagnostics.apriori_norms"),
        "diagnostics.translation_modulus_ms": ms("diagnostics.translation_modulus"),
        "diagnostics.spacetime_errors_ms": ms("diagnostics.spacetime_errors"),
        "diagnostics.weak_residual_ms": ms("diagnostics.weak_residual"),
        "diagnostics.ledger_slack_min_rel": ledger_slack_min_rel(runs),
        "harness.write_vtk_ms": ms("harness.write_vtk"),
        "harness.snapshots": counts["snapshots"],
        "harness.vtk_bytes_per_snapshot": ratio(counts["vtk_bytes"], counts["snapshots"]),
        "harness.write_csv_ms": ms("harness.write_csv"),
        "harness.project_initial_ms": ms("harness._project_initial"),
        "harness.run_self_ms": ms("harness.run_simulation"),
        "config.parse_ms": ms("config.parse_config"),
        "trace.remainder_pct": 100.0 * remainder / wall_s,
    }


def ledger_slack_min_rel(runs):
    return min(float(min(res.energy.slack) / res.energy.E[0]) for res, _ in runs.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("config")
    ap.add_argument("out")
    ap.add_argument("steps", type=int)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_setup = time.perf_counter()
    sys.path.insert(0, SRC)
    import hydrolimit
    import hydrolimit.config
    import hydrolimit.diagnostics
    import hydrolimit.harness

    if os.path.dirname(os.path.abspath(hydrolimit.__file__)) != os.path.join(SRC, "hydrolimit"):
        raise SystemExit(f"imported hydrolimit from {hydrolimit.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = hydrolimit.config.load_config(args.config)
    setup_s = time.perf_counter() - t_setup

    if args.setup_only:
        print(json.dumps({"ok": True, "errors": [], "setup_s": setup_s}))
        return
    record = {"ok": False, "errors": [], "findings": {}, "setup_s": setup_s}
    os.makedirs(args.out, exist_ok=True)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        runs, sweep, residuals = run_workload(args.workload, cfg, args.out, hydrolimit)
    except Exception:  # an abort is a measured failure, not a crash
        record["errors"].append(traceback.format_exc(limit=3))
        runs = None
    wall_s = time.perf_counter() - t0
    record["wall_s"] = wall_s
    record["cpu_s"] = time.process_time() - c0

    if tracer is not None:
        left = tracer.uninstall()
        if left:
            record["errors"].append(f"trace left wrapped: {left}")
        remainder, problems = tracer.check(t0, wall_s)
        record["errors"].extend(f"trace: {p}" for p in problems)
        tracer.write_csv(args.trace)
    if runs is not None:
        errors, findings = check(args.workload, cfg, runs, sweep, residuals, args.steps, hydrolimit)
        record["errors"].extend(errors)
        record["findings"] = findings
        counts = output_counts(args.out)
        counts["runs"] = len(runs)
        counts["steps"] = sum(res.n_steps for res, _ in runs.values())
        if tracer is not None:
            for mode, label in (("aniso", "aniso.pressure_projection_anisotropic"),
                                ("hydro", "hydro.surface_pressure_projection")):
                its = [tr_it for i, (tr_it, _) in tracer.info.items() if tracer.label[i] == label]
                counts[f"{mode}_projection_calls"] = len(its)
                counts[f"{mode}_projection_iterations"] = sum(its)
            record["layers"] = layer_metrics(tracer, runs, counts, wall_s, remainder)
        record["counts"] = counts
        record["digest"] = payload_digest(args.out)
        record["findings"]["ledger_slack_min_rel"] = ledger_slack_min_rel(runs)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["ok"] = not record["errors"]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
