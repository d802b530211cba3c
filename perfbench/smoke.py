"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Not part of the test suite and without any time gate.  For each workload
it checks that

- an untraced and a traced run emit exactly the metrics BENCHMARK.json
  names, with correct = true against a freshly recorded tiny reference;
- a traced unit leaves every wrapped name bound to its original, and a
  wrap site that does not exist is reported as missing instead of failing;
- calibration bursts run inside a single-threaded unit and are skipped
  inside a unit that works in a thread pool;
- a perturbed reference makes each perturbed correctness check fail.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out" / "smoke"

from run import BLAS_ENV, BLAS_THREADS, WORKLOAD_NAMES  # noqa: E402

for _key in BLAS_ENV:
    os.environ[_key] = str(BLAS_THREADS)
os.environ.pop("COXFIELD_THREADS", None)
sys.path.insert(0, str(ROOT / "src"))

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench_run(workload, trace, ref_dir):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--reference", str(ref_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    report = json.loads(next(line for line in lines if line.startswith("REPORT "))[7:])
    return json.loads(lines[-1]), report


def check_metrics(ref_dir):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result, report = bench_run(workload, trace, ref_dir)
            tag = f"{workload} trace={trace}"
            if result is None:
                expect(False, f"{tag}: run exited with an error\n{report}")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result has exactly the four keys")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{tag}: correct against its own reference")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{tag}: emits every named metric with its unit"
                   + ("" if got == wanted[trace] else
                      f" (missing {sorted(set(wanted[trace]) - set(got))},"
                      f" extra {sorted(set(got) - set(wanted[trace]))})"))
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{tag}: every metric value is a number")


def check_wrappers():
    import importlib

    import tracer
    import workloads

    before = {}
    for mod, attr, *_ in tracer.SITES:
        before[(mod, attr)] = getattr(importlib.import_module(mod), attr)
    bogus = (("coxfield.rs", "no_such_function", "rs.none", None, None),
             ("coxfield.no_such_module", "f", "none.f", None, None))
    tr = tracer.Tracer(tracer.SITES + bogus)
    tr.begin_phase("unit0")
    tr.install()
    try:
        wrapped = sum(getattr(importlib.import_module(m), a) is not before[(m, a)]
                      for m, a, *_ in tracer.SITES)
        expect(wrapped == len(tracer.SITES), f"tracer wraps all {len(tracer.SITES)} sites")
        for name in WORKLOAD_NAMES:
            wl = workloads.WORKLOADS[name]
            inp = wl.prepare(wl.tiny, 7, ROOT)
            wl.collect(inp, wl.run(inp, 0))
    finally:
        tr.restore()
    expect(sorted(tr.missing) == ["coxfield.no_such_module.f", "coxfield.rs.no_such_function"],
           f"missing sites are reported, not fatal: {tr.missing}")
    gone = all(getattr(importlib.import_module(m), a) is before[(m, a)]
               for m, a, *_ in tracer.SITES)
    expect(gone and tr.restored(), "every wrapper is gone after the traced unit")
    expect(len(tr.name_id) > 0, f"spans recorded: {len(tr.name_id)}")


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(1000))


def _pooled(seconds):
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(_spin, (seconds, seconds)))


def check_sampler():
    import calib

    with calib.Sampler() as sampler:
        _, plain_s, _ = sampler.time_unit(_spin, 0.5)
        inside = sampler.bursts[len(sampler.parts):-len(sampler.parts)]
        expect(inside and sampler.concurrent_units == 0 and plain_s < 0.5,
               f"single-threaded unit: {len(inside)} bursts inside, excluded from "
               f"its {plain_s:.3f} s")
        before = len(sampler.bursts)
        _, pooled_s, _ = sampler.time_unit(_pooled, 0.5)
        ran = len(sampler.bursts) - before
        expect(sampler.skipped > 0 and sampler.concurrent_units == 1
               and ran == 2 * len(sampler.parts) and pooled_s >= 0.5,
               f"thread-pool unit: {sampler.skipped} bursts skipped, only the "
               f"{ran} at its ends ran")


def perturb(ref_dir, bad_dir):
    import numpy as np

    shutil.rmtree(bad_dir, ignore_errors=True)
    shutil.copytree(ref_dir, bad_dir)
    refs = json.loads((bad_dir / "reference.json").read_text())
    refs["rs_path"]["points"][0][0] += 1e-3
    exp = refs["experiment"]
    exp["rs"][0][0] += 1e-3
    exp["raw"][0]["cd"][0]["test_c"] += 1e-3
    exp["table_sha256"] = "0" * 64
    (bad_dir / "reference.json").write_text(json.dumps(refs))
    with np.load(bad_dir / "fit_path.npz") as data:
        arrays = {k: data[k] for k in data.files}
    arrays["beta"] = arrays["beta"] * 1.01
    np.savez_compressed(bad_dir / "fit_path.npz", **arrays)


# the checks that perturb() breaks, by workload
PERTURBED = {
    "rs_path": {"unit0.scalars_match_reference"},
    "fit_path": {"unit0.beta_matches_reference"},
    "experiment": {"unit0.rs_columns_match_reference", "unit0.fits_match_reference",
                   "table_matches_recorded"},
}


def check_perturbed(ref_dir):
    bad_dir = WORK / "perturbed"
    perturb(ref_dir, bad_dir)
    for workload in WORKLOAD_NAMES:
        result, report = bench_run(workload, 0, bad_dir)
        expect(result is not None and result["correct"] is False and result["failed"] > 0,
               f"{workload}: a perturbed reference fails the correctness check")
        if result is not None:
            failed = {c["name"] for c in report["checks"] if not c["ok"]}
            expect(PERTURBED[workload] <= failed,
                   f"{workload}: the perturbed checks fail: {sorted(failed)}")


def main():
    ref_dir = WORK / "reference"
    shutil.rmtree(WORK, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "record_reference.py"), "--size", "tiny",
                    "--out", str(ref_dir)], cwd=ROOT, check=True, timeout=300)
    check_metrics(ref_dir)
    check_wrappers()
    check_sampler()
    check_perturbed(ref_dir)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
