import numpy as np
import pytest

from coxfield.prox import ElasticNetPenalty
from coxfield.survival import (RiskSets, StepHazard, SurvivalDataset,
                               harrell_c, nelson_aalen,
                               penalized_partial_likelihood, rscv_c_index,
                               rscv_predictors)
from oracles import CumsumRiskSets, harrell_c_loop, prox_gradient_minimizer


def _toy_dataset(seed=0, n=40, p=3, scale=0.6):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, scale / np.sqrt(p), (n, p))
    times = rng.uniform(0.2, 3.0, n)
    events = (rng.uniform(size=n) < 0.7).astype(float)
    if not events.any():
        events[0] = 1.0
    return SurvivalDataset(times, events, X)


def test_dataset_validation():
    with pytest.raises(ValueError):
        SurvivalDataset(np.array([1.0, -1.0]), np.array([1.0, 0.0]),
                        np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SurvivalDataset(np.array([1.0, 2.0]), np.array([1.0, 0.5]),
                        np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SurvivalDataset(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]),
                        np.zeros((2, 2)))
    with pytest.raises(ValueError, match="design must be finite"):
        SurvivalDataset(np.array([1.0, 2.0]), np.array([1.0, 0.0]),
                        np.array([[0.1, np.nan], [0.2, 0.3]]))
    with pytest.raises(ValueError, match="design must be a 2-d matrix"):
        SurvivalDataset(np.array([1.0, 2.0]), np.array([1.0, 0.0]),
                        np.array([0.1, 0.2]))


def test_csv_roundtrip(tmp_path):
    data = _toy_dataset(seed=5)
    path = tmp_path / "d.csv"
    data.to_csv(path)
    back = SurvivalDataset.from_csv(path)
    assert np.array_equal(back.times, data.times)
    assert np.array_equal(back.events, data.events)
    assert np.array_equal(back.design, data.design)
    with open(path) as fh:
        assert fh.readline().startswith("time,event,x1")


def test_step_hazard_evaluation_semantics():
    hz = StepHazard(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    assert hz.evaluate(0.999) == 0.0
    assert hz.evaluate(1.0) == 0.5      # knot included at t = knot
    assert hz.evaluate(1.5) == 0.5
    assert hz.evaluate(2.0) == 1.5
    assert hz.evaluate(10.0) == 1.5
    ts = np.linspace(0, 3, 301)
    vals = hz.evaluate(ts)
    assert np.all(np.diff(vals) >= 0)
    assert not callable(hz)             # evaluate is its one spelling
    with pytest.raises(ValueError):
        StepHazard(np.array([2.0, 1.0]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        StepHazard(np.array([1.0]), np.array([-0.1]))
    with pytest.raises(ValueError, match="1-d of equal length"):
        StepHazard(np.array([1.0, 2.0]), np.array([0.5]))
    # values are cumulative: decreasing ones are rejected, jumps derived
    assert np.array_equal(hz.jumps, [0.5, 1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        StepHazard(np.array([1.0, 2.0]), np.array([0.5, 0.4]))
    # NaN is neither nonnegative nor nondecreasing; +inf levels pass
    for bad in ([np.nan, 1.0], [0.5, np.nan]):
        with pytest.raises(ValueError, match="nondecreasing"):
            StepHazard(np.array([1.0, 2.0]), np.array(bad))
    StepHazard(np.array([1.0, 2.0, 3.0]), np.array([0.5, np.inf, np.inf]))


def test_risk_sets_any_order():
    # a shuffled sample gives the sorted sample's risk sums and hazard,
    # permuted, bit for bit (untied times), and the same step function
    rng = np.random.default_rng(21)
    n = 200
    times = np.sort(rng.uniform(0.1, 3.0, n))
    events = (rng.uniform(size=n) < 0.6).astype(float)
    lp = rng.normal(0, 1, n)
    perm = rng.permutation(n)
    srt = RiskSets(times, events)
    shuf = RiskSets(times[perm], events[perm])
    assert np.array_equal(shuf.risk_sums(np.exp(lp[perm])),
                          srt.risk_sums(np.exp(lp))[perm])
    levels = srt.hazard(lp)
    got = shuf.hazard(lp[perm])
    assert np.array_equal(got, levels[perm])
    a, b = srt.step_hazard(levels), shuf.step_hazard(got)
    assert np.array_equal(a.knots, b.knots)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("tied", [False, True])
def test_risk_sets_hessian_product(tied):
    # H u against the double sum H_jk = [j = k] w_j - e_j e_k sum over the
    # events i with T_i <= T_j, T_k >= T_i of 1/R_i^2 (Breslow ties), and
    # against central differences of the lp-gradient Lambda(T) e - Delta,
    # on a shuffled sample
    rng = np.random.default_rng(23)
    n = 40
    times = rng.uniform(0.1, 3.0, n)
    if tied:
        times = np.round(times, 0) + 0.5
    events = (rng.uniform(size=n) < 0.6).astype(float)
    lp = rng.normal(0, 1, n)
    u = rng.normal(0, 1, n)
    rs = RiskSets(times, events)
    e = np.exp(lp)
    lam = rs.hazard(lp)
    dense = np.diag(lam * e)
    for i in np.flatnonzero(events == 1.0):
        risk = times >= times[i]
        r_i = np.sum(e[risk])
        dense -= np.outer(e * (times >= times[i]), e * risk) / r_i**2
    # the terms share one pass: the hazard and weights are bit for bit
    # those of `hazard`
    lam_b, w_b, hess = rs.breslow(lp)
    assert np.array_equal(lam_b, lam) and np.array_equal(w_b, lam * e)
    got = hess(u)
    assert np.max(np.abs(got - dense @ u)) <= 1e-12 * np.max(np.abs(dense @ u))

    def grad(x):
        return rs.hazard(x) * np.exp(x) - events

    h = 1e-5
    fd = (grad(lp + h * u) - grad(lp - h * u)) / (2 * h)
    assert np.max(np.abs(got - fd)) <= 1e-8


def test_nelson_aalen_two_subject_oracle():
    # direct double sum: both at risk at T=1 (Theta(0)=1), one at T=2
    hz = nelson_aalen(np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.zeros(2))
    assert hz.evaluate(1.0) == pytest.approx(0.5, abs=0)
    assert hz.evaluate(2.0) == pytest.approx(1.5, abs=0)


def test_nelson_aalen_single_subject():
    hz = nelson_aalen(np.array([1.0]), np.array([1.0]), np.zeros(1))
    assert hz.evaluate(1.0) == 1.0


def test_nelson_aalen_all_censored_warns():
    with pytest.warns(UserWarning):
        hz = nelson_aalen(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2))
    assert hz.knots.size == 0
    assert hz.evaluate(5.0) == 0.0


def test_nelson_aalen_underflowed_risk_sets():
    # the latest risk sets' weights underflow to 0: their levels are +inf,
    # without a warning (pytest.ini turns a RuntimeWarning into an error)
    times = np.arange(1.0, 7.0)
    lp = np.array([0.0, 0.0, 0.0, 0.0, -800.0, -800.0])
    hz = nelson_aalen(times, np.ones(6), lp)
    assert np.all(np.isfinite(hz.values[:4]))
    assert np.array_equal(hz.values[4:], [np.inf, np.inf])
    # the first +inf level is an infinite jump, the repeated one none; the
    # finite jumps are the differences, bit for bit
    assert np.array_equal(hz.jumps[4:], [np.inf, 0.0])
    assert hz.jumps[:4].tolist() == np.diff(hz.values[:4], prepend=0.0).tolist()


def test_nelson_aalen_overflowed_weights():
    # the second weight overflows to inf, and so do the risk sums of the
    # first two events: their steps are 0, without a warning
    hz = nelson_aalen(np.arange(1.0, 4.0), np.ones(3),
                      np.array([0.0, 1000.0, 0.0]))
    assert np.array_equal(hz.values, [0.0, 0.0, 1.0])


def test_nelson_aalen_double_sum_oracle_random():
    data = _toy_dataset(seed=9, n=25)
    rng = np.random.default_rng(1)
    lp = rng.normal(0, 1, data.n)
    hz = nelson_aalen(data.times, data.events, lp)
    for t in [0.3, 0.9, 1.7, 2.9]:
        direct = sum(
            data.events[i] * (t >= data.times[i])
            / sum(np.exp(lp[j]) for j in range(data.n)
                  if data.times[j] >= data.times[i])
            for i in range(data.n))
        assert hz.evaluate(t) == pytest.approx(direct, rel=1e-12)


def test_nelson_aalen_tied_event_times():
    times = np.array([1.0, 1.0, 2.0])
    events = np.array([1.0, 1.0, 1.0])
    hz = nelson_aalen(times, events, np.zeros(3))
    # both subjects at t=1 see all three at risk
    assert hz.evaluate(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert hz.evaluate(2.0) == pytest.approx(2.0 / 3.0 + 1.0, rel=1e-15)


def test_risk_sets_hazard_where_weights_underflow():
    # e^-800 = 0: the censored subjects 7 and 8 have an empty risk sum
    # (0/0 if they were divided through) and must leave the hazard as is;
    # the first event with an empty risk sum gets an infinite jump
    times = np.arange(1.0, 9.0)
    events = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    rs = RiskSets(times, events)
    for cut in (5, 4):
        lp = np.where(np.arange(8) >= cut, -800.0, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = nelson_aalen(times, events, lp).evaluate(times)
            got = rs.hazard(lp)
        assert np.array_equal(got, want)
        assert not np.any(np.isnan(got)) and np.isinf(got[-1])


def _kernel_samples():
    # a shuffled untied sample, its times tied, its earliest time censored,
    # and weights that underflow to 0 over the latest times
    rng = np.random.default_rng(31)
    n = 60
    times = rng.uniform(0.1, 3.0, n)
    events = (rng.uniform(size=n) < 0.6).astype(float)
    lp = rng.normal(0, 1, n)
    censored_first = events.copy()
    censored_first[np.argmin(times)] = 0.0
    underflow = np.where(times > np.quantile(times, 0.7), -800.0, lp)
    return {"untied": (times, events, lp),
            "tied": (np.round(times, 0) + 0.5, events, lp),
            "earliest_censored": (times, censored_first, lp),
            "underflow": (times, events, underflow)}


@pytest.mark.parametrize("sample", sorted(_kernel_samples()))
def test_risk_sets_match_the_cumsum_kernel(sample):
    # the kernel's sums run over one descending order fixed at
    # construction; they are those of cumulative sums over reversed views,
    # bit for bit, in every product the solvers take
    times, events, lp = _kernel_samples()[sample]
    rng = np.random.default_rng(32)
    rs, old = RiskSets(times, events), CumsumRiskSets(times, events)
    beta = rng.normal(0, 1, 4)
    pen = ElasticNetPenalty.from_strength(0.3, 0.75)
    us = [rng.normal(0, 1, times.size), np.ones(times.size),
          np.eye(times.size)[np.argmin(times)]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pairs = [(rs.hazard(lp), old.hazard(lp)),
                 (rs.risk_sums(np.exp(lp)), old.risk_sums(np.exp(lp))),
                 (rs.penalized_loss(lp, beta, pen),
                  old.penalized_loss(lp, beta, pen))]
        (lam, w, hess), (lam0, w0, hess0) = rs.breslow(lp), old.breslow(lp)
        pairs += [(lam, lam0), (w, w0)] + [(hess(u), hess0(u)) for u in us]
        steps, steps0 = rs.step_hazard(lam), old.step_hazard(lam0)
    pairs += [(steps.knots, steps0.knots), (steps.values, steps0.values)]
    for got, want in pairs:
        assert np.array_equal(got, want, equal_nan=True)
    if sample == "underflow":
        assert np.isinf(lam).any()


def test_risk_sets_are_reentrant():
    # one RiskSets serves every fit of a dataset: hazards and Hessian
    # products interleaved on it give the bits of fresh instances
    rng = np.random.default_rng(33)
    n = 50
    times = np.round(rng.uniform(0.1, 3.0, n), 1)
    events = (rng.uniform(size=n) < 0.6).astype(float)
    lps = [rng.normal(0, 1, n) for _ in range(3)]
    us = [rng.normal(0, 1, n) for _ in range(2)]
    shared = RiskSets(times, events)
    lam_a, _, hess_a = shared.breslow(lps[0])
    lam_b, _, hess_b = shared.breslow(lps[1])
    got = [hess_a(us[0]), shared.hazard(lps[2]), hess_b(us[0]),
           hess_a(us[1]), shared.risk_sums(np.exp(lps[2])), hess_b(us[1]),
           lam_a, lam_b]

    def fresh():
        return RiskSets(times, events)

    want = [fresh().breslow(lps[0])[2](us[0]), fresh().hazard(lps[2]),
            fresh().breslow(lps[1])[2](us[0]), fresh().breslow(lps[0])[2](us[1]),
            fresh().risk_sums(np.exp(lps[2])), fresh().breslow(lps[1])[2](us[1]),
            fresh().hazard(lps[0]), fresh().hazard(lps[1])]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_nelson_aalen_shift_covariance():
    data = _toy_dataset(seed=2)
    rng = np.random.default_rng(2)
    lp = rng.normal(0, 1, data.n)
    h0 = nelson_aalen(data.times, data.events, lp)
    h1 = nelson_aalen(data.times, data.events, lp + 0.8)
    assert np.array_equal(h0.knots, h1.knots)
    assert np.allclose(h1.jumps, h0.jumps * np.exp(-0.8), rtol=1e-13, atol=0)


def test_ppl_trivials():
    data = _toy_dataset(seed=3, n=10, p=2)
    none = ElasticNetPenalty.from_weights(0.0, 0.0)
    n_at_risk = np.array([(data.times >= t).sum() for t in data.times])
    expect = float(np.sum(data.events * np.log(n_at_risk / data.n)))
    assert penalized_partial_likelihood(data, np.zeros(2), none) \
        == pytest.approx(expect, rel=1e-14)
    ridge = ElasticNetPenalty.from_weights(0.0, 2.0)
    assert penalized_partial_likelihood(data, np.zeros(2), ridge) \
        == pytest.approx(expect, rel=1e-14)


def test_ppl_value_at_oracle_minimizer():
    data = _toy_dataset(seed=4, n=10, p=2)
    pen = ElasticNetPenalty.from_strength(0.2, 0.5)
    beta_star = prox_gradient_minimizer(data, pen, tol=1e-13)
    f_star = penalized_partial_likelihood(data, beta_star, pen)
    rng = np.random.default_rng(8)
    for _ in range(30):
        other = beta_star + rng.normal(0, 0.05, 2)
        assert penalized_partial_likelihood(data, other, pen) >= f_star - 1e-12


def test_ppl_midpoint_convexity():
    data = _toy_dataset(seed=6)
    pen = ElasticNetPenalty.from_strength(0.1, 0.75)
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = rng.normal(0, 1, data.p)
        b = rng.normal(0, 1, data.p)
        mid = penalized_partial_likelihood(data, 0.5 * (a + b), pen)
        avg = 0.5 * (penalized_partial_likelihood(data, a, pen)
                     + penalized_partial_likelihood(data, b, pen))
        assert mid <= avg + 1e-10


def test_ppl_overflow_is_inf():
    data = _toy_dataset(seed=7, n=8, p=2)
    none = ElasticNetPenalty.from_weights(0.0, 0.0)
    val = penalized_partial_likelihood(data, np.array([5000.0, -5000.0]), none)
    assert np.isinf(val) or np.isfinite(val)  # never raises


def test_harrell_trivials_and_oracle():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.ones(4)
    assert harrell_c(times, events, -times) == 1.0       # perfect risk order
    assert harrell_c(times, events, times) == 0.0
    # 3-subject hand enumeration: pairs (1,2),(1,3),(2,3) with Delta=(1,1,0)
    t3 = np.array([1.0, 2.0, 3.0])
    e3 = np.array([1.0, 1.0, 0.0])
    s3 = np.array([5.0, 1.0, 3.0])
    # comparable: (1,2): 5>1 conc; (1,3): 5>3 conc; (2,3): 1<3 disc -> 2/3
    assert harrell_c(t3, e3, s3) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_harrell_rejects_nan():
    # a NaN has no order: it would count its pairs as comparable and
    # discordant (0.4 here); +-inf orders, and passes
    times, events = [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 0.0, 1.0]
    for bad_times, scores, name in (
            (times, [3.0, np.nan, 1.0, 0.0], "scores"),
            ([1.0, np.nan, 3.0, 4.0], [3.0, 2.0, 1.0, 0.0], "times")):
        with pytest.raises(ValueError, match=f"{name} holds NaN"):
            harrell_c(bad_times, events, scores)
    assert harrell_c(times, events, [np.inf, 2.0, 1.0, -np.inf]) == 1.0
    assert harrell_c([1.0, 2.0, np.inf, 4.0], events, [3.0, 2.0, 0.0, 1.0]) == 1.0


@pytest.mark.parametrize("bad", [np.nan, 0.5, 2.0])
def test_harrell_reads_events_by_the_dataset_rule(bad):
    # an event is 0 or 1, as SurvivalDataset requires; any other value
    # used to count as censored, giving 1.0 here
    times, events = [1.0, 2.0, 3.0, 4.0], [1.0, bad, 0.0, 1.0]
    with pytest.raises(ValueError, match="^events must be 0/1$"):
        harrell_c(times, events, [4.0, 3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="^events must be 0/1$"):
        SurvivalDataset(times, events, np.ones((4, 1)))


def test_harrell_random_scores_near_half():
    rng = np.random.default_rng(13)
    n = 4000
    times = rng.uniform(0.1, 2.0, n)
    events = (rng.uniform(size=n) < 0.5).astype(float)
    scores = rng.normal(size=n)
    assert harrell_c(times, events, scores) == pytest.approx(0.5, abs=0.02)


def test_harrell_tie_and_transform_invariance():
    rng = np.random.default_rng(14)
    times = rng.uniform(0.1, 2.0, 60)
    events = (rng.uniform(size=60) < 0.6).astype(float)
    scores = rng.normal(size=60)
    c = harrell_c(times, events, scores)
    assert harrell_c(times, events, 3.0 * scores + 7.0) == c
    assert harrell_c(times, events, np.exp(scores)) == c
    tied = np.zeros(60)
    assert harrell_c(times, events, tied) == 0.5


def test_harrell_blocks_equal_event_loop():
    # more events than one block; tied times and tied scores throughout
    rng = np.random.default_rng(15)
    n = 700
    times = np.round(rng.uniform(0.1, 2.0, n), 1)
    events = (rng.uniform(size=n) < 0.7).astype(float)
    assert np.count_nonzero(events) > 256
    for scores in (np.round(rng.normal(size=n), 1), rng.normal(size=n),
                   np.zeros(n)):
        assert harrell_c(times, events, scores) == harrell_c_loop(
            times, events, scores)


def test_harrell_no_comparable_pairs():
    with pytest.raises(ValueError):
        harrell_c(np.array([1.0, 2.0]), np.array([0.0, 0.0]),
                  np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        # only the latest subject has an event: no later time exists
        harrell_c(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                  np.array([1.0, 2.0]))


def test_design_layouts_are_cached_and_read_only():
    # each layout is built once per dataset, on first read, and cannot be
    # written: the float32 copy of X' is X'.astype(float32), the square
    # X * X, bit for bit
    data = _toy_dataset(seed=18, n=30, p=7)
    want = {"design_t32": data.design.T.astype(np.float32),
            "design_sq": data.design * data.design}
    for name, expected in want.items():
        layout = getattr(data, name)
        assert getattr(data, name) is layout
        assert layout.dtype == expected.dtype and layout.flags.c_contiguous
        assert np.array_equal(layout, expected)
        with pytest.raises(ValueError, match="read-only"):
            layout[0, 0] = 1.0
    # a design with an entry beyond 2^32 either way has no float32 copy
    for sign in (1.0, -1.0):
        design = data.design.copy()
        design[3, 2] = sign * 2.0**33
        assert SurvivalDataset(data.times, data.events, design).design_t32 is None


def test_rscv_predictors_trivials():
    data = _toy_dataset(seed=15)
    beta = np.array([0.5, -0.2, 0.1])
    hz = nelson_aalen(data.times, data.events, data.design @ beta)
    lp = data.design @ beta
    assert np.allclose(rscv_predictors(data, beta, hz, 1e-300), lp, atol=1e-12)
    empty = StepHazard(np.empty(0), np.empty(0))
    no_event = SurvivalDataset(data.times, np.zeros(data.n), data.design)
    assert np.allclose(rscv_predictors(no_event, beta, empty, 2.0),
                       no_event.design @ beta)


def test_rscv_score_equation_at_unpenalized_optimum():
    # at an unpenalized stationary point, X' g_dot(X beta, L(T), D) = 0
    data = _toy_dataset(seed=16, n=30, p=2)
    pen = ElasticNetPenalty.from_weights(0.0, 0.0)
    beta_star = prox_gradient_minimizer(data, pen, tol=1e-13)
    lp = data.design @ beta_star
    hz = nelson_aalen(data.times, data.events, lp)
    gd = hz.evaluate(data.times) * np.exp(lp) - data.events
    assert np.max(np.abs(data.design.T @ gd)) <= 1e-8


def test_rscv_c_index_matches_harrell_at_zero_tau():
    data = _toy_dataset(seed=17)
    beta = np.array([0.4, 0.3, -0.6])
    hz = nelson_aalen(data.times, data.events, data.design @ beta)
    c_direct = harrell_c(data.times, data.events, data.design @ beta)
    assert rscv_c_index(data, beta, hz, 1e-300) == pytest.approx(c_direct, abs=1e-12)
