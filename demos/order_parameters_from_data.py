"""Estimate the RS order parameters from data alone.

The headline capability: recover all six order parameters
(w, v, tau, w_hat, v_hat, tau_hat) from one fitted model without knowing
the data-generating process.  The message-passing route reads its own
step sizes; the coordinate-descent route infers them from the active-set
fraction and the curvature average.  Both are checked against the RS
fixed point (which *does* use the generating law) and the ground truth.
"""

import numpy as np

from coxfield import (ElasticNetPenalty, GeneratorSpec, OrderParameters,
                      SignalSpec, SolverConfig, estimate_from_amp,
                      estimate_from_cd, fit_amp, fit_cd, generate_dataset,
                      sample_population, solve_rs, true_overlaps)

zeta, nu, theta0 = 2.0, 0.005, 1.0
p = 2000
gen = GeneratorSpec(zeta=zeta)
pen = ElasticNetPenalty.from_strength(0.3 / 0.75, 0.75)

sig = SignalSpec(p=p, nu=nu, theta0=theta0, seed=100)
data, beta0 = generate_dataset(sig, gen, seed=100)
print(f"one dataset at p={p}, n={data.n}; fitting both solvers ...")
amp = fit_amp(data, pen)
cd = fit_cd(data, pen, cfg=SolverConfig(max_epochs=400))

est_amp = estimate_from_amp(data, amp, zeta)
est_cd = estimate_from_cd(data, cd, pen, zeta)

print("solving the RS equations (uses the generating law; the estimates "
      "above do not) ...")
pop = sample_population(gen, theta0, n_pop=30000, seed=0)
rs, _ = solve_rs(pen, nu, zeta, pop)

w_true, v_true = true_overlaps(amp.beta_hat, beta0)
print(f"\n{'':>8} {'AMP est':>9} {'CD est':>9} {'RS solve':>9}")
# the estimates and the RS solution are all OrderParameters
for name in OrderParameters.NAMES:
    print(f"{name:>8} {getattr(est_amp, name):9.4f} "
          f"{getattr(est_cd, name):9.4f} {getattr(rs, name):9.4f}")
print(f"\nground truth (needs beta0): w = {w_true:.4f}, v = {v_true:.4f}")
print("estimated signal/noise ratio from data alone: "
      f"{est_amp.w / est_amp.v:.3f} (true {w_true / v_true:.3f})")
