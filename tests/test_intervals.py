"""Credible intervals as border arrays: the conformal adjustment, the map to
the data scale, `infer_one`'s interval tables and the coverage hits of
`evaluate_dataset` reproduce the per-component oracle bit for bit; the
weighted quantiles under them are monotone, bounded and blind to
zero-weight draws."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import intervals_oracle as oracle
from mixedflow import simulate as sim
from mixedflow.draws import PosteriorDraws, weighted_quantile
from mixedflow.metrics import evaluate_dataset
from mixedflow.model import ModelConfig, PosteriorModel
from mixedflow.pipeline import infer_one, intervals_to_data_scale
from mixedflow.refine import ALPHA_GRID, apply_calibration, build_conformal_table
from mixedflow.seeding import substream
from mixedflow.standardize import standardize_data, standardize_params

SMALL = dict(width=16, summary_blocks=1, heads=2, flow_blocks=2, flow_hidden=16)
# 0.32 is missing from the table: those borders take the nearest entry
TABLE_ALPHAS = (0.05, 0.1, 0.2, 0.5)


def _same(new, old):
    """Equal shapes and bytes: no rounding difference, no sign of zero."""
    new, old = np.asarray(new, dtype=np.float64), np.asarray(old, dtype=np.float64)
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def _table(seed):
    rng = np.random.default_rng(seed)
    return build_conformal_table(
        {r: [(rng.normal(size=120) * 0.3).tolist() for _ in TABLE_ALPHAS]
         for r in ("fixed", "variance", "random")}, TABLE_ALPHAS, n_calibration=120)


def _draws_near_truth(q, weighted, seed=0, k=300):
    """Standardized draws scattered around the dataset's own truth, so that
    some intervals hold it and some do not."""
    rng = np.random.default_rng(seed)
    ds = sim.simulate_dataset(q + 1, q, rng, sim.SimConfig(toy=True))
    _, rec = standardize_data(ds)
    gp, lp = standardize_params(ds.truth.global_params, ds.truth.local_params, rec)
    truth = np.concatenate([gp.beta, gp.sigma_alpha, [gp.sigma_eps]])
    # a random offset per component moves the truth off the centre
    global_std = truth + rng.normal(size=(k + 1, truth.size)) * 0.3 * (1 + np.abs(truth))
    global_std = global_std[1:] + global_std[:1] - truth
    global_std[:, ds.d:] = np.abs(global_std[:, ds.d:])
    local_std = lp.alpha + rng.normal(size=(k + 1, ds.m, q)) * 0.4
    local_std = local_std[1:] + local_std[:1] - lp.alpha
    draws = PosteriorDraws(global_std=global_std, log_q_global=np.zeros(k), d=ds.d, q=q,
                           infer_noise=True, rec=rec, local_std=local_std,
                           log_q_local=np.zeros((k, ds.m)))
    if weighted:
        w = rng.exponential(size=k)
        w[::7] = 0.0
        lw = rng.exponential(size=(k, ds.m))
        lw[::5] = 0.0
        draws = replace(draws, weights=w / w.mean(), local_weights=lw / lw.mean(axis=0))
    return ds, draws


@pytest.mark.parametrize("with_table", [False, True], ids=["raw", "table"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_borders_match_oracle(q, weighted, with_table):
    _, draws = _draws_near_truth(q, weighted, seed=q)
    table = _table(q) if with_table else None
    std = apply_calibration(draws, table, ALPHA_GRID)
    data = intervals_to_data_scale(draws, std)
    old = oracle.apply_calibration(draws, table, ALPHA_GRID)
    for a, alpha in enumerate(ALPHA_GRID):
        old_data = oracle.intervals_to_data_scale(draws, old[alpha])
        _same(std[0][a], old[alpha]["global"])
        _same(std[1][a], old[alpha]["local"])
        _same(data[0][a], old_data["global"])
        _same(data[1][a], old_data["local"])


def test_without_local_draws_local_is_none():
    _, draws = _draws_near_truth(1, weighted=True)
    draws = replace(draws, local_std=None, log_q_local=None, local_weights=None)
    std = apply_calibration(draws, _table(5), ALPHA_GRID)
    data = intervals_to_data_scale(draws, std)
    assert std[1] is None and data[1] is None
    old = oracle.apply_calibration(draws, _table(5), ALPHA_GRID)
    for a, alpha in enumerate(ALPHA_GRID):
        assert old[alpha]["local"] is None
        _same(data[0][a], oracle.intervals_to_data_scale(draws, old[alpha])["global"])


@pytest.mark.parametrize("with_table", [False, True], ids=["raw", "table"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_evaluation_hits_match_oracle(q, weighted, with_table):
    ds, draws = _draws_near_truth(q, weighted, seed=10 + q)
    table = _table(q) if with_table else None
    hits = evaluate_dataset(ds, draws, table, ALPHA_GRID).hits
    old = oracle.coverage_hits(ds, draws, table, ALPHA_GRID)
    assert hits.keys() == old.keys()
    for key, h in old.items():
        assert hits[key].dtype == bool
        np.testing.assert_array_equal(hits[key], h)
    pooled = np.concatenate(list(old.values()))
    assert pooled.any() and not pooled.all()


@pytest.mark.parametrize("refine", ["none", "is", "conformal", "both"])
@pytest.mark.parametrize("q", [1, 2])
def test_infer_one_intervals_match_oracle(q, refine):
    model = PosteriorModel(ModelConfig(d=q + 1, q=q, **SMALL), np.random.default_rng(q))
    ds = sim.simulate_dataset(q + 1, q, np.random.default_rng(40 + q), sim.SimConfig(toy=True))
    table = _table(q)
    draws, intervals = infer_one(model, ds, k=64, rng=substream(41, "iv", q),
                                 refine=refine, table=table)
    used = table if refine in ("conformal", "both") else None
    assert json.dumps(intervals) == json.dumps(oracle.infer_intervals(draws, used, ALPHA_GRID))
    assert list(intervals[0.05]) == ["global_std", "global", "local_std", "local"]


def test_dense_alpha_grid_matches_oracle():
    # x * x differs from the scalar form's pow(x, 2) in about 1 of 1000
    # squares, so the random-intercept std dev needs thousands of borders
    _, draws = _draws_near_truth(2, weighted=True, seed=7)
    alphas = tuple(np.linspace(0.001, 0.999, 3000))
    data = intervals_to_data_scale(draws, apply_calibration(draws, None, alphas))
    old = oracle.apply_calibration(draws, None, alphas)
    for a, alpha in enumerate(alphas):
        _same(data[0][a], oracle.intervals_to_data_scale(draws, old[alpha])["global"])


# weighted_quantile properties ------------------------------------------------

_VALUES = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30)


@st.composite
def _weighted_values(draw):
    """Values with nonnegative weights, at least one of them positive."""
    values = np.array(draw(_VALUES))
    weights = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                                     min_size=len(values), max_size=len(values))))
    weights[draw(st.integers(0, len(values) - 1))] = draw(st.floats(1e-3, 1e3))
    return values, weights


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vw=_weighted_values(), probs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
def test_weighted_quantile_monotone_and_within_positive_weight_range(vw, probs):
    values, weights = vw
    probs = np.sort(probs)
    q = weighted_quantile(values, probs, weights)
    assert np.all(np.diff(q) >= 0)
    kept = values[weights > 0]
    assert np.all((q >= kept.min()) & (q <= kept.max()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vw=_weighted_values(), extra=_VALUES, probs=st.lists(st.floats(0.0, 1.0), min_size=1,
                                                            max_size=10))
def test_weighted_quantile_ignores_zero_weight_values(vw, extra, probs):
    values, weights = vw
    padded = np.concatenate([values, extra])
    padded_w = np.concatenate([weights, np.zeros(len(extra))])
    _same(weighted_quantile(padded, probs, padded_w), weighted_quantile(values, probs, weights))
