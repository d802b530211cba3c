"""Synthetic data generation: sparse spherical signal, Gaussian design,
log-logistic proportional-hazards latent times, uniform censoring.

Reproducibility: every sampler takes an explicit 64-bit seed and uses an
independent numpy PCG64 generator; vector draws happen in a fixed order
(uniforms for the latent times first, then the censoring times), so equal
seeds give identical output.  Composite generation splits one seed into
per-stage streams with SeedSequence.spawn.
"""

from dataclasses import dataclass

import numpy as np

from .prox import check_fields
from .survival import SurvivalDataset


@dataclass(frozen=True)
class SignalSpec:
    """Sparse spherical signal: s = round(nu*p) active entries (at least 1),
    uniformly distributed on the sphere of radius theta0 * sqrt(p)."""

    p: int
    nu: float
    theta0: float
    seed: int

    def __post_init__(self):
        check_fields(self)
        # the checks are written so that NaN fails them
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("nu must lie in (0, 1]")
        if not 0.0 < self.theta0 < np.inf:
            raise ValueError("theta0 must be finite and positive")
        if self.p < 1:
            raise ValueError("p must be positive")

    @property
    def s(self):
        return max(1, int(round(self.nu * self.p)))


@dataclass(frozen=True)
class GeneratorSpec:
    """Log-logistic PH model Lambda0(t) = log(1 + e^{phi0} t^{rho0}) with
    censoring uniform on [tau1, tau2]; zeta = p/n fixes the sample size."""

    phi0: float = -np.log(2.0)
    rho0: float = 2.0
    tau1: float = 1.0
    tau2: float = 2.0
    zeta: float = 2.0

    def __post_init__(self):
        check_fields(self)
        # the checks are written so that NaN fails them
        if not 0.0 < self.tau1 < self.tau2 < np.inf:
            raise ValueError("need 0 < tau1 < tau2 < inf")
        if not (0.0 < self.rho0 < np.inf and 0.0 < self.zeta < np.inf):
            raise ValueError("rho0 and zeta must be finite and positive")
        if not np.isfinite(self.phi0):
            raise ValueError("phi0 must be finite")

    def cumulative_hazard(self, t):
        """Baseline cumulative hazard Lambda0(t)."""
        return np.log1p(np.exp(self.phi0) * np.asarray(t, dtype=float) ** self.rho0)


def sample_signal(spec):
    """Draw the true coefficient vector: theta0*sqrt(p) times a uniform
    point on the unit (s-1)-sphere in the first s coordinates, zero after.

    The squared norm satisfies ||beta0||^2 / p = theta0^2 exactly (up to
    float rounding)."""
    rng = np.random.default_rng(spec.seed)
    raw = rng.standard_normal(spec.s)
    beta0 = np.zeros(spec.p)
    beta0[:spec.s] = spec.theta0 * np.sqrt(spec.p) * raw / np.linalg.norm(raw)
    return beta0


def sample_design(n, p, seed):
    """i.i.d. Gaussian design with entry variance 1/p."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))


def _sample_times_given_eta(eta, gen, rng):
    # invert Lambda0(Y) * e^eta = -log U analytically:
    # Y = (e^{-phi0} (e^{m} - 1))^{1/rho0} with m = -log(U) e^{-eta}
    eta = np.asarray(eta, dtype=float)
    n = eta.shape[0]
    u = rng.uniform(size=n)
    with np.errstate(over="ignore"):
        m = -np.log(u) * np.exp(-eta)
        y = (np.exp(-gen.phi0) * np.expm1(m)) ** (1.0 / gen.rho0)
    c = rng.uniform(gen.tau1, gen.tau2, size=n)
    delta = (y < c).astype(float)
    t = np.minimum(y, c)
    return t, delta


def sample_observations(design, beta0, gen, seed):
    """Sample (times, events) from the log-logistic PH model.

    For each subject the latent event time solves
    Lambda0(Y) = -log(U) * exp(-x'beta0) with U uniform, censoring is
    uniform on [tau1, tau2], and Delta = 1[Y < C], T = min(Y, C).
    """
    rng = np.random.default_rng(seed)
    return _sample_times_given_eta(design @ beta0, gen, rng)


def generate_dataset(signal_spec, gen, seed):
    """Generate a full SurvivalDataset plus its true signal.

    n = round(p / zeta).  The seed is split into independent streams for
    the design and the observations; the signal uses signal_spec.seed.
    """
    n = int(round(signal_spec.p / gen.zeta))
    if n < 1:
        raise ValueError("zeta too large for this p: empty sample")
    beta0 = sample_signal(signal_spec)
    design_seed, obs_seed = np.random.SeedSequence(seed).spawn(2)
    design = sample_design(n, signal_spec.p, design_seed)
    times, events = sample_observations(design, beta0, gen, obs_seed)
    return SurvivalDataset(times, events, design), beta0
