"""The benchmark's tracer (perfbench/tracer.py) wraps coxfield functions
where callers look them up; a renamed or bypassed name would silently
drop out of its per-layer counts."""

import importlib
import importlib.util
from pathlib import Path

from coxfield import prox
from coxfield.prox import ElasticNetPenalty
from coxfield.solvers import fit_amp
from coxfield.synthgen import GeneratorSpec, SignalSpec, generate_dataset

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


def test_benchmark_trace_sites_resolve(monkeypatch):
    missing = [f"{module}.{attr}" for module, attr, *_ in _tracer_sites()
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    # AMP's Lambert evaluations go through the traced prox.lambert_w0_exp:
    # three per epoch and one for the returned coefficients
    calls = 0
    lambert = prox.lambert_w0_exp

    def counted(y):
        nonlocal calls
        calls += 1
        return lambert(y)

    monkeypatch.setattr(prox, "lambert_w0_exp", counted)
    sig = SignalSpec(p=80, nu=0.05, theta0=1.0, seed=12)
    data, _ = generate_dataset(sig, GeneratorSpec(zeta=2.0), seed=12)
    fit = fit_amp(data, ElasticNetPenalty.from_strength(0.3, 0.75))
    assert fit.converged
    assert calls == 3 * fit.epochs + 1
