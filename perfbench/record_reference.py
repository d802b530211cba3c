"""Record the reference outputs that run.py checks every unit against.

    python3 perfbench/record_reference.py                  # full size
    python3 perfbench/record_reference.py --size tiny --out DIR

Runs one unit of each workload on unpermuted inputs and writes
DIR/reference.json (RS scalars, converged sets, the experiment's per-fit
records and table digest, per-unit failure counts, the parameters and the
source digest) and DIR/<workload>.npz for array data (the fit_path
coefficients).  Record only at a commit whose
results are the accepted ones: a later commit is checked against them.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from run import BLAS_ENV, BLAS_THREADS, ROOT, WORKLOAD_NAMES, _git_commit, _src_digest

HERE = Path(__file__).resolve().parent


def record(size, out_dir):
    import numpy as np

    import workloads

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = {}
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        params = wl.tiny if size == "tiny" else wl.full
        inp = wl.prepare(params, None, ROOT)
        out = wl.collect(inp, wl.run(inp, 0))
        ref = wl.record(params, out)
        arrays = ref.pop("arrays", None)
        ops = wl.ops(out)
        ref.update(params=params, ops={"attempted": ops.attempted,
                                       "failed": ops.failed,
                                       "reasons": ops.failures},
                   recorded_at={"git_commit": _git_commit(),
                                "src_sha256": _src_digest()})
        refs[name] = ref
        if arrays is not None:
            np.savez_compressed(out_dir / f"{name}.npz", **arrays)
        print(f"{name}: recorded; failures per unit {ops.failed}/{ops.attempted} "
              f"{ops.failures}")
    (out_dir / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True)
                                            + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, default=HERE / "reference")
    args = ap.parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    os.environ.pop("COXFIELD_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    record(args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
