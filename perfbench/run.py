"""coxfield benchmark: end-to-end and per-layer timings of three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload rs_path --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all    # every workload, untraced and traced

One process runs one workload as a closed loop with a single caller: it
repeats the workload's unit of work until ``--seconds`` would be exceeded,
then checks every unit's outputs against the reference recorded in
``perfbench/reference`` (``record_reference.py`` rewrites it).  The last
stdout line is the JSON result; the line before it, prefixed ``REPORT``,
holds the run metadata, per-unit samples, failure counts and checks.

Workloads (parameters in workloads.py):

- rs_path: one solve_rs_path call, pop 5000, over the first three points
  of the p=1000 acceptance grid.  RS layer and Lambert kernel; no solver.
- fit_path: repetition 0 of the p=500 acceptance experiment without RS:
  AMP and CD paths (max_epochs 800), estimates, true overlaps, RSCV and
  test concordance.  The seed permutes the observation order.
- experiment: one run_experiment call (p=200, 3 repetitions, RS pop 1000,
  three grid points, both solvers): repetitions, RS at a small
  population, aggregation and the table.csv / report.json writes.

With ``--trace 0`` the result holds the end-to-end metrics:

- solve_rel: the median over units of the unit's own time divided by the
  pass time of a fixed calibration kernel run in short bursts spread
  through the unit (calib.py; unit "calib").  The host's
  speed drifts by 15-30% within seconds, which spreads raw per-run
  medians by 6-34% (IQR/median over 10 runs); the ratio cancels most of
  that drift.  The raw median is in the REPORT line as solve_s, and in
  traced runs as the per-layer wall.solve_s.  Bursts are skipped while
  the unit runs other threads or processes (see calib.py); the REPORT
  line counts such units as concurrent_units.
- setup_s: the median wall time of five fresh processes that import
  coxfield and build the workload's inputs.
- peak_rss_mb: peak resident memory of the measuring process.

With ``--trace 1`` units alternate between untraced and traced; the traced
ones give the per-layer metrics (per unit of work, with the traced set-up
added once) and trace.overhead_frac.

BLAS threads are set to BLAS_THREADS before numpy loads, and
COXFIELD_THREADS is removed from the environment, so every commit is
measured with the same settings.  One thread, not the host's two: at
these sizes (n <= 250, p <= 500) a two-thread BLAS was no faster and had
2x slow bursts (fit_path units 3.0-6.0 s against 2.8-4.2 s with one
thread, interleaved runs on a 2-core Xeon).
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_REFERENCE = HERE / "reference"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_REPS = 5
CHILD_TIMEOUT_S = 180
WORKLOAD_NAMES = ("rs_path", "fit_path", "experiment")

END_TO_END_UNITS = {"solve_rel": "calib", "setup_s": "s", "peak_rss_mb": "MB"}

NOTES = (
    "solve_rel (unit time over calibration-kernel time) is the bounded "
    "end-to-end time; raw solve_s is printed beside it because host drift "
    "spreads raw per-run medians by 6-34%.",
    "solve_s_tail is not reported: a 30 s run holds 4-12 units, and no "
    "percentile above the median has ten samples beyond it.",
    "amp_path_s and cd_path_s (fit_path) are printed here and are the "
    "per-layer solvers.amp.path_s / solvers.cd.path_s: rs_path runs no "
    "solver, and every end-to-end metric must exist on every workload.",
    "failed_frac (non-converged fits, unsolved RS points, invalid estimates, "
    "RSCV/test-C errors, failed checks) is printed here and is the per-layer "
    "ops.failed_frac; it is 0 on rs_path, and an end-to-end metric must "
    "never be 0.",
    "sizes: rs_path solves the first 3 of the 10 points of the p=1000 grid, "
    "fit_path is p=500 instead of p=1000, experiment is p=200 with 3 grid "
    "points instead of p=500 with 10: units of 2.5-6 s give 4-12 units per "
    "run, where the full sizes (17 s, 10 s, 27 s per unit) give 1-3.",
    "left out of ROADMAP item 1: the RS path at pop 30000 (132 s) and the "
    "tier-1 wall time (9m23s) are too long for 22 runs per check, and the "
    "p=2000 repetition runs the same code as fit_path.",
    "BENCHMARK.json and perfbench/ replace ROADMAP item 1's bench/run.py and "
    "BENCH_baseline.json.",
)


def _per_layer_table():
    def self_s(n):
        return "s", lambda s: s["self"].get(n, 0.0)

    def total_s(n):
        return "s", lambda s: s["total"].get(n, 0.0)

    def calls(n):
        return "count", lambda s: s["calls"].get(n, 0)

    def count(n):
        return "count", lambda s: s["counts"].get(n, 0)

    def stage(*children):
        return "s", lambda s: sum(
            s["child_total"].get(("experiment.run_experiment", c), 0.0)
            for c in children)

    return {
        "scalar.lambert_w0_exp.calls": calls("scalar.lambert_w0_exp"),
        "scalar.lambert_w0_exp.elems": count("scalar.lambert_w0_exp.elems"),
        "scalar.lambert_w0_exp.self_s": self_s("scalar.lambert_w0_exp"),
        "prox.prox_enet.calls": calls("prox.prox_enet"),
        "prox.prox_enet.self_s": self_s("prox.prox_enet"),
        "prox.cox_prox_bundle.calls": calls("prox.cox_prox_bundle"),
        "prox.cox_prox_bundle.self_s": self_s("prox.cox_prox_bundle"),
        "prox.prox_g.self_s": self_s("prox.prox_g"),
        "survival.nelson_aalen.calls": calls("survival.nelson_aalen"),
        "survival.nelson_aalen.self_s": self_s("survival.nelson_aalen"),
        "survival.harrell_c.calls": calls("survival.harrell_c"),
        "survival.harrell_c.self_s": self_s("survival.harrell_c"),
        "survival.rscv_c_index.self_s": self_s("survival.rscv_c_index"),
        "solvers.amp.epochs": count("solvers.amp.epochs"),
        "solvers.cd.epochs": count("solvers.cd.epochs"),
        "solvers.amp.unconverged": count("solvers.amp.unconverged"),
        "solvers.cd.unconverged": count("solvers.cd.unconverged"),
        "solvers.amp.self_s": self_s("solvers.amp.reg_path"),
        "solvers.cd.self_s": self_s("solvers.cd.reg_path"),
        "solvers.amp.path_s": total_s("solvers.amp.reg_path"),
        "solvers.cd.path_s": total_s("solvers.cd.reg_path"),
        "rs.outer_iters": calls("rs.rs_rhs_enet"),
        "rs.hazard_solves": calls("rs.solve_lambda"),
        "rs.hazard_maps": ("count", lambda s: s["hazard_maps"]),
        "rs.solve_lambda.self_s": self_s("rs.solve_lambda"),
        "rs.rs_rhs_enet.self_s": self_s("rs.rs_rhs_enet"),
        "rs.points_converged": count("rs.points_converged"),
        "observables.estimate.calls": calls("observables.estimate"),
        "observables.estimate.self_s": self_s("observables.estimate"),
        "observables.estimate.invalid": count("observables.estimate.invalid"),
        "synthgen.generate_dataset.self_s": self_s("synthgen.generate_dataset"),
        "experiment.fit_stage_s": stage(
            "solvers.amp.reg_path", "solvers.cd.reg_path", "observables.estimate",
            "survival.rscv_c_index", "survival.harrell_c"),
        "experiment.rs_stage_s": stage("rs.solve_rs_path"),
        "experiment.write_s": stage("experiment.write_table_csv"),
        "experiment.self_s": self_s("experiment.run_experiment"),
    }


PER_LAYER = _per_layer_table()
RUN_LEVEL_UNITS = {"host.calib_ms": "ms", "wall.solve_s": "s",
                   "trace.overhead_frac": "ratio",
                   "ops.attempted": "count", "ops.failed": "count",
                   "ops.failed_frac": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE,
                    help="directory holding reference.json (and .npz arrays)")
    ap.add_argument("--setup-only", action="store_true",
                    help="import coxfield, build the inputs and exit")
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and then traced, and "
                         "print one summary table")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("--workload is required unless --all is given")
    return args


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child_cmd(args, workload, trace=None, setup_only=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace if trace is None else trace),
           "--size", args.size,
           "--reference", str(args.reference)]
    return cmd + (["--setup-only"] if setup_only else [])


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip()


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coxfield").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _metadata(args, params, coxfield_threads):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "params": params,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS,
                 "env": {k: os.environ.get(k) for k in BLAS_ENV}},
        "coxfield_threads_in_caller_env": coxfield_threads,
        "coxfield_threads_in_run": os.environ.get("COXFIELD_THREADS"),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "closed_loop": "one process, one caller at a time",
    }


def load_reference(ref_dir, workload, params):
    """The recorded reference for `workload`, or None with a reason."""
    path = Path(ref_dir) / "reference.json"
    try:
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh).get(workload)
    except (OSError, ValueError) as exc:
        return None, f"cannot read {path}: {exc}"
    if ref is None:
        return None, f"no reference for {workload} in {path}"
    if ref.get("params") != json.loads(json.dumps(params)):
        return None, f"reference parameters {ref.get('params')} differ from {params}"
    ref["same_sources"] = ref.get("recorded_at", {}).get("src_sha256") == _src_digest()
    npz = Path(ref_dir) / f"{workload}.npz"
    if npz.exists():
        import numpy as np
        with np.load(npz) as data:
            ref["arrays"] = {k: data[k] for k in data.files}
    return ref, ""


def _measure_setup(args):
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(_child_cmd(args, args.workload, setup_only=True), cwd=ROOT,
                       env=os.environ, check=True, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(args):
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    coxfield_threads = os.environ.pop("COXFIELD_THREADS", None)
    src = ROOT / "src"
    if not (src / "coxfield" / "__init__.py").is_file():
        return _fail(f"no coxfield sources under {src}")
    sys.path.insert(0, str(src))
    import coxfield
    if Path(coxfield.__file__).resolve().parent != (src / "coxfield").resolve():
        return _fail(f"coxfield imported from {coxfield.__file__}, not {src}")
    import calib
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    params = wl.tiny if args.size == "tiny" else wl.full
    if args.setup_only:
        wl.prepare(params, args.seed, ROOT)
        return 0

    ref, ref_problem = load_reference(args.reference, wl.name, params)
    setup_times = _measure_setup(args)
    meta = _metadata(args, params, coxfield_threads)

    tr = tracing.Tracer() if args.trace else None
    if tr is not None:
        tr.begin_phase("setup")
        tr.install()
    try:
        inp = wl.prepare(params, args.seed, ROOT)
    finally:
        if tr is not None:
            tr.restore()

    unit_s, unit_rel, traced, outs, errors = [], [], [], [], []
    min_units = 2 if args.trace else 1
    t_loop = time.perf_counter()
    k = 0
    with calib.Sampler() as sampler:
        while True:
            is_traced = tr is not None and k % 2 == 1
            try:
                if is_traced:
                    # no calibration bursts inside traced spans
                    tr.begin_phase(f"unit{k}")
                    tr.install()
                    try:
                        t0 = time.perf_counter()
                        out = wl.run(inp, k)
                        dt = time.perf_counter() - t0
                    finally:
                        tr.restore()
                    rel = float("nan")
                else:
                    out, dt, pass_s = sampler.time_unit(wl.run, inp, k)
                    rel = dt / pass_s
            except Exception:
                errors.append(traceback.format_exc())
                break
            unit_s.append(dt)
            unit_rel.append(rel)
            traced.append(is_traced)
            outs.append(wl.collect(inp, out, sampler.paused))
            k += 1
            elapsed = time.perf_counter() - t_loop
            if k >= min_units and elapsed + max(unit_s) > args.seconds:
                break
    if not unit_s:
        return _fail("no unit of work completed\n" + "".join(errors))
    calib_ms = [t * 1e3 for t in sampler.pass_s]

    checks = []
    if ref is None:
        checks.append(("reference_available", False, ref_problem))
    elif outs:
        try:
            checks += wl.check(params, outs, ref)
        except Exception:
            checks.append(("check_completed", False, traceback.format_exc()))
    if tr is not None:
        checks.append(("trace.wrappers_restored", tr.restored(),
                       f"{len(tr.originals)} wrapped names checked"))
    failed_checks = [c for c in checks if not c[1]]

    unit_ops = [wl.ops(o) for o in outs]
    ops_attempted = sum(o.attempted for o in unit_ops) + len(checks)
    ops_failed = sum(o.failed for o in unit_ops) + len(failed_checks)
    failure_reasons = {}
    for o in unit_ops:
        for reason, n in o.failures.items():
            failure_reasons[reason] = failure_reasons.get(reason, 0) + n
    if failed_checks:
        failure_reasons["failed correctness check"] = len(failed_checks)

    untraced_s = [t for t, f in zip(unit_s, traced) if not f]
    traced_s = [t for t, f in zip(unit_s, traced) if f]
    untraced_rel = [r for r, f in zip(unit_rel, traced) if not f]
    report = {
        "metadata": meta,
        "units": {"seconds": unit_s, "traced": traced, "untraced_n": len(untraced_s),
                  "traced_n": len(traced_s)},
        "setup_s_samples": setup_times,
        "host_calib_ms_median": _median(calib_ms), "calib_bursts": len(sampler.bursts),
        "calib_bursts_skipped": sampler.skipped,
        "concurrent_units": sampler.concurrent_units,
        "solve_rel_samples": untraced_rel,
        "failed_frac": {
            "value": ops_failed / ops_attempted if ops_attempted else float("nan"),
            "failed": ops_failed, "attempted": ops_attempted,
            "first_unit": [{"attempted": o.attempted, "failed": o.failed,
                            "reasons": o.failures} for o in unit_ops[:1]],
            "reasons": failure_reasons,
            "reference_per_unit": (ref or {}).get("ops"),
        },
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "errors": errors,
    }
    if wl.name == "fit_path":
        for solver in ("amp", "cd"):
            vals = [o["path_s"][solver] for o, f in zip(outs, traced) if not f]
            report[f"{solver}_path_s"] = {"median": _median(vals), "n": len(vals),
                                          "unit": "s"}
    if wl.name == "experiment" and outs:
        report["table_sha256"] = sorted({hashlib.sha256(o["table"]).hexdigest()
                                         for o in outs})

    if tr is None:
        metrics = {
            "solve_rel": _median(untraced_rel),
            "setup_s": _median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        summaries = tr.phase_summaries()
        setup_summary, unit_summaries = summaries[0], summaries[1:]
        metrics = {}
        for name, (_, extract) in PER_LAYER.items():
            per_unit = [extract(s) for s in unit_summaries]
            metrics[name] = extract(setup_summary) + (_median(per_unit) if per_unit else 0.0)
        metrics["host.calib_ms"] = _median(calib_ms)
        metrics["wall.solve_s"] = _median(untraced_s)
        metrics["trace.overhead_frac"] = _median(traced_s) / _median(untraced_s) - 1.0
        metrics["ops.attempted"] = ops_attempted
        metrics["ops.failed"] = ops_failed
        metrics["ops.failed_frac"] = report["failed_frac"]["value"]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        units.update(RUN_LEVEL_UNITS)
        report["trace"] = {"missing_sites": tr.missing,
                           "hook_errors": tr.hook_errors,
                           "spans": len(tr.name_id),
                           "traced_units": len(unit_summaries)}
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.npz"
        tr.dump(dump)
        report["trace"]["span_file"] = str(dump.relative_to(ROOT))

    report["solve_s"] = {"median": _median(untraced_s), "n": len(untraced_s), "unit": "s"}
    report["samples"] = {"solve_rel": len(untraced_s), "setup_s": len(setup_times),
                         "peak_rss_mb": 1, "host.calib_ms": len(calib_ms),
                         "per_layer": len(traced_s)}
    report["process_s"] = time.perf_counter() - _T_START
    print(f"{wl.name}: {len(unit_s)} units, median {_median(untraced_s):.4f} s "
          f"untraced; checks {len(checks) - len(failed_checks)}/{len(checks)} ok; "
          f"failed_frac {ops_failed}/{ops_attempted}")
    for name, ok, detail in failed_checks:
        print(f"  FAILED CHECK {name}: {detail}")
    for err in errors:
        print(err, file=sys.stderr)
    print("REPORT " + json.dumps(report, default=float))
    result = {
        "correct": not failed_checks and not errors,
        "attempted": len(unit_s) + len(errors) + len(checks),
        "failed": len(errors) + len(failed_checks),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in metrics},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run each workload in its own process and print one summary table."""
    rows = []
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(_child_cmd(args, workload, trace=trace), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            report = json.loads(next(l for l in lines if l.startswith("REPORT "))[7:])
            samples = report["samples"]
            for name, m in result["metrics"].items():
                n = samples.get(name, samples["per_layer"])
                rows.append((workload, name, m["value"], m["unit"], n))
            if trace == 0:
                for name in ("solve_s", "amp_path_s", "cd_path_s"):
                    if name in report:
                        m = report[name]
                        rows.append((workload, name, m["median"], "s", m["n"]))
                ff = report["failed_frac"]
                rows.append((workload, "failed_frac", ff["value"],
                             f"{ff['failed']}/{ff['attempted']}", len(report["units"]["seconds"])))
            if not result["correct"]:
                status = 1
                print(f"{workload}: correctness checks failed")
    print(f"{'workload':<11} {'metric':<34} {'value':>14} {'unit':<10} samples")
    for workload, name, value, unit, n in rows:
        print(f"{workload:<11} {name:<34} {value:>14.6g} {unit:<10} {n}")
    print("dropped workloads: none")
    for note in NOTES:
        print(f"note: {note}")
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
