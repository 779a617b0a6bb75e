#!/usr/bin/env python3
"""hydrolimit benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the workload's
inputs (config files, and a tensor file for tensor_hydro) under
``.bench_work/``.  The workload then runs again and again, each time in a
fresh Python process with BLAS threads capped at 1, until S seconds have
passed.  Every execution checks its outputs; a failure counts against
``failed``.  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics, each the median over executions;
* ``--trace 1``: traced and untraced executions alternate, and the per-layer
  metrics are medians over the traced ones.  The last traced execution's
  spans are written to ``.bench_out/trace-<workload>.csv``.

Earlier lines record the machine, the load and steal ticks around each
execution, the payload digest with the exact counts, and any findings.
Metric names and units are read from ``BENCHMARK.json``.
"""

import os

THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 1  # extra set-up-only processes per execution, for setup_s

# Steps per run.  default_sweep and snapshot_certify shorten T to this many
# steps; tensor_hydro sets T from its generated tensor so that every seed
# takes the same number of steps.
STEPS = {"default_sweep": 64, "tensor_hydro": 200, "snapshot_certify": 40}

# Where the sweeps' source switches on, as a share of the shortened window.
# Switched on earlier, the hydrostatic run's ledger slack goes negative (see
# the findings in README.md) and the ledger check fails at the seed.
SWITCH_ON = 0.75


def edit_config(text, overrides):
    """Replace ``key = value`` lines of an INI-style config; append missing keys."""
    out, seen, section = [], set(), None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
        elif "=" in body:
            key = (section, body.split("=", 1)[0].strip())
            if key in overrides:
                line = f"{key[1]} = {overrides[key]}"
                seen.add(key)
        out.append(line)
    for (section, key), value in overrides.items():
        if (section, key) not in seen:
            out += [f"[{section}]", f"{key} = {value}"]
    return "\n".join(out) + "\n"


def fmt(v):
    if isinstance(v, (tuple, list, np.ndarray)):
        return ", ".join(fmt(x) for x in v)
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def concentration_dt(rows, spacing, cfl):
    """Explicit concentration-diffusion step limit, as hydrolimit's stable_dt."""
    return cfl / (2.0 * sum(r / h**2 for r, h in zip(rows, spacing)))


def random_spd_tensor(rng, shape):
    """Per-cell SPD tensors with eigenvalues in [0.5, 1.5] and random axes."""
    q, _ = np.linalg.qr(rng.standard_normal(shape + (3, 3)))
    lam = rng.uniform(0.5, 1.5, shape + (3,))
    m = np.einsum("...ij,...j,...kj->...ik", q, lam, q)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def make_inputs(workload, seed, steps, work):
    """Write the workload's config (and tensor file) under ``work``; return its path."""
    rng = np.random.default_rng(seed)
    x_s = rng.uniform(0.35, 0.65, 3)
    if workload in ("default_sweep", "snapshot_certify"):
        with open(os.path.join(ROOT, "scripts", "sweep.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        base = _parse_numbers(text)
        cfl = base[("time", "cfl")]
        overrides = {("source", "x_s"): fmt(x_s)}
        if workload == "snapshot_certify":
            overrides.update({
                ("grid", "nx"): 16, ("grid", "ny"): 16, ("grid", "nz"): 8,
                ("run", "eps_list"): "0.5, 0.25, 0.125", ("time", "snapshot_every"): 1,
            })
        n = [int(overrides.get(("grid", k), base[("grid", k)])) for k in ("nx", "ny", "nz")]
        # identity tensor: every row sum is 1; half a step short of `steps`
        T = (steps - 0.5) * concentration_dt((1.0, 1.0, 1.0), (1 / n[0], 1 / n[1], 1 / n[2]), cfl)
        overrides.update({("time", "T"): fmt(T), ("source", "t_s"): fmt(SWITCH_ON * T)})
        text = edit_config(text, overrides)
    else:
        n = (32, 32, 16)
        m = random_spd_tensor(rng, n)
        iu = ([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])
        lines = [f"{n[0]} {n[1]} {n[2]}"]
        lines += [" ".join(repr(float(v)) for v in row) for row in m[..., iu[0], iu[1]].reshape(-1, 6)]
        with open(os.path.join(work, "tensor.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        rows = [float(np.max(np.sum(np.abs(m[..., d, :]), axis=-1))) for d in range(3)]
        cfl = 0.5
        T = (steps - 0.5) * concentration_dt(rows, (1 / n[0], 1 / n[1], 1 / n[2]), cfl)
        text = "\n".join([
            "[grid]", "nx = 32", "ny = 32", "nz = 16",
            "[phys]", "nu1 = 0.01", "nu2 = 0.01", "nu3 = 0.01", "f0 = 1.0",
            "coriolis_mode = beta_plane", "l0 = 0.7853981633974483", "l_slope = 1.0",
            "[diffusion]", "tensor_file = tensor.txt",
            "[source]", "kind = lorentzian", "intensity = 1.0", "t_s = 0.0", f"x_s = {fmt(x_s)}",
            "[bc]", "theta_mode = constant", "theta1 = 0.01", "theta2 = -0.005",
            "[init]", "velocity = taylor_green_h", "concentration = gaussian_blob",
            f"blob_center = {fmt(rng.uniform(0.35, 0.65, 3))}", "blob_width = 0.15",
            "[time]", f"T = {fmt(T)}", f"cfl = {cfl}", "snapshot_every = 64",
            "[run]", "mode = hydro", "eps_list = 0.5", "tol = 1e-8",
        ]) + "\n"
    path = os.path.join(work, f"{workload}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _parse_numbers(text):
    """Numeric ``(section, key) -> value`` pairs of a config text."""
    values, section = {}, None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("["):
            section = body.strip("[]").strip()
        elif "=" in body:
            key, raw = (p.strip() for p in body.split("=", 1))
            try:
                values[(section, key)] = float(raw)
            except ValueError:
                pass
    # hydrolimit's defaults for the keys the benchmark needs
    for key, default in ((("grid", "nx"), 32), (("grid", "ny"), 32), (("grid", "nz"), 16),
                         (("time", "cfl"), 0.5)):
        values.setdefault(key, default)
    return values


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": THREAD_CAPS,
    }


def load_and_steal():
    """1-minute load average and the machine's total steal ticks."""
    steal = None
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        steal = int(fields[8])
    except (OSError, IndexError, ValueError):
        pass
    return os.getloadavg()[0], steal


def run_child(workload, cfg_path, out, steps, timeout, *flags):
    cmd = [sys.executable, CHILD, workload, cfg_path, out, str(steps), *flags]
    load0, steal0 = load_and_steal()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        rec = {"ok": False, "errors": [f"timed out after {timeout:.0f} s"]}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, ValueError):
            rec = {"ok": False, "errors": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    load1, steal1 = load_and_steal()
    rec["load1"] = (load0, load1)
    rec["steal_ticks"] = None if steal0 is None else steal1 - steal0
    shutil.rmtree(out, ignore_errors=True)
    return rec


def median(values):
    return statistics.median(values) if values else math.nan


def main(argv=None):
    ap = argparse.ArgumentParser(description="hydrolimit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(STEPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, help="override the step count (smoke tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hydrolimit", "__init__.py")):
        print(f"no hydrolimit sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.perf_counter()
    steps = args.steps or STEPS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        trace_file = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}.csv")
    try:
        cfg_path = make_inputs(args.workload, args.seed, steps, work)
        print("machine", json.dumps(machine()))
        records, setups = [], []
        while True:
            t_exec = time.perf_counter()
            traced = bool(args.trace) and len(records) % 2 == 1
            out = os.path.join(work, f"out{len(records)}")
            if not args.trace:
                for _ in range(SETUP_PROBES):
                    probe = run_child(args.workload, cfg_path, out, steps, 60.0, "--setup-only")
                    if probe["ok"]:
                        setups.append(probe["setup_s"])
                    else:
                        print(f"  set-up error: {probe['errors']}")
            left = max(RUN_LIMIT_S - (time.perf_counter() - started), 1.0)
            rec = run_child(args.workload, cfg_path, out, steps, left,
                            *(["--trace", trace_file] if traced else []))
            rec["traced"] = traced
            records.append(rec)
            times = " ".join(f"{k}={rec.get(k, math.nan):.4f}" for k in ("wall_s", "cpu_s", "setup_s"))
            print(
                f"execution {len(records)} traced={int(traced)} ok={int(rec['ok'])} {times} "
                f"load1={rec['load1'][0]:.2f}->{rec['load1'][1]:.2f} steal_ticks={rec['steal_ticks']}"
            )
            for err in rec["errors"]:
                print(f"  error: {err}")
            # stop before an execution that would end past --seconds
            now = time.perf_counter()
            done = now + (now - t_exec) - started > args.seconds
            if done and len(records) >= (2 if args.trace else 1):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in records if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    failed = len(records) - len(good)
    # Every execution must give the same payload and exact counts.  Only
    # traced ones count projections; output_bytes includes sweep.csv, whose
    # runtime_s column is wall-clock time.
    signatures = {
        (r["digest"], json.dumps({k: v for k, v in r["counts"].items()
                                  if "projection" not in k and k != "output_bytes"}))
        for r in good
    }
    consistent = len(signatures) <= 1
    if good:
        first = (traced or good)[0]
        print(f"payload sha256={first['digest']} " + " ".join(f"{k}={v}" for k, v in sorted(first["counts"].items())))
        for key, value in sorted(good[0]["findings"].items()):
            print(f"finding {key}={value}")
    if not consistent:
        print("error: executions disagree on the payload digest or exact counts")

    values = {}
    if plain:
        values = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "setup_s": median(setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "output_mb": median([r["counts"]["output_bytes"] for r in plain]) / 2**20,
        }
    print(
        f"summary workload={args.workload} seed={args.seed} executions={len(records)} "
        + " ".join(f"{k}={v:.6g}" for k, v in values.items())
        + f" failure_rate={failed}/{len(records)}"
    )
    if args.trace and traced and plain:
        values = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        values["trace.overhead_pct"] = 100.0 * (
            median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in plain]) - 1.0
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    complete = len(metrics) == len(wanted)
    if not complete:
        print("error: missing metrics " + ", ".join(m["name"] for m in wanted if m["name"] not in values))
    print(json.dumps({
        "correct": failed == 0 and consistent and complete,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
