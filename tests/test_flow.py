"""Flow contracts: identity at initialization, exact invertibility, the
log-determinant against a numerically differentiated Jacobian, density
normalization by quadrature, base-distribution behavior and sampling
round trips."""

import numpy as np
import pytest
from scipy import stats

import flow_oracle
from mixedflow.flow import CouplingFlow, StudentTBase, _Conditioner
from mixedflow.nn.tensor import Tensor


def make_flow(dim, cond_dim, seed=0, randomize=True, blocks=4, hidden=32, dtype=np.float64):
    rng = np.random.default_rng(seed)
    flow = CouplingFlow(dim, cond_dim, rng, blocks=blocks, hidden=hidden, dtype=dtype)
    if randomize:
        # heads are zero-initialized; give them weight so the map is not identity
        for net in flow.conditioners:
            for head, sd in ((net.shift.w, 0.3), (net.shift.b, 0.1),
                             (net.scale.w, 0.3), (net.scale.b, 0.1)):
                head.data = rng.normal(0, sd, size=head.data.shape).astype(dtype)
    return flow


def test_identity_at_initialization():
    flow = make_flow(4, 3, randomize=False)
    rng = np.random.default_rng(1)
    theta = Tensor(rng.normal(size=(6, 4)))
    cond = Tensor(rng.normal(size=(6, 3)))
    z, logdet = flow.forward(theta, cond)
    np.testing.assert_allclose(z.data, theta.data, atol=1e-12)
    np.testing.assert_allclose(logdet.data, 0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_invertibility(dim):
    flow = make_flow(dim, 4, seed=dim)
    rng = np.random.default_rng(2)
    theta = Tensor(rng.normal(size=(64, dim)))
    cond = Tensor(rng.normal(size=(64, 4)))
    z, logdet_f = flow.forward(theta, cond)
    back, logdet_i = flow.inverse(z, cond)
    assert np.abs(back.data - theta.data).max() < 1e-6
    np.testing.assert_allclose(logdet_f.data, -logdet_i.data, atol=1e-8)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_logdet_matches_numerical_jacobian(dim):
    flow = make_flow(dim, 3, seed=10 + dim)
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.normal(size=dim)
        cond = Tensor(rng.normal(size=(1, 3)))
        _, logdet = flow.forward(Tensor(theta[None]), cond)
        h = 1e-5
        J = np.zeros((dim, dim))
        for j in range(dim):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            zu, _ = flow.forward(Tensor(up[None]), cond)
            zd, _ = flow.forward(Tensor(down[None]), cond)
            J[:, j] = (zu.data[0] - zd.data[0]) / (2 * h)
        _, ref = np.linalg.slogdet(J)
        assert abs(logdet.data[0] - ref) / max(abs(ref), 1.0) < 1e-4


def test_log_prob_near_gaussian_base():
    # identity flow, df pushed to 1e6: density must match a standard normal
    flow = make_flow(3, 2, randomize=False)
    flow.base.log_df.data = np.full(3, np.log(1e6))
    rng = np.random.default_rng(4)
    theta = rng.normal(size=(20, 3))
    cond = Tensor(np.zeros((20, 2)))
    lp = flow.log_prob(Tensor(theta), cond).data
    ref = stats.norm.logpdf(theta).sum(axis=1)
    np.testing.assert_allclose(lp, ref, atol=1e-4)


def test_density_integrates_to_one():
    flow = make_flow(1, 2, seed=5)
    cond = np.full((1, 2), 0.3)
    grid = np.linspace(-60.0, 60.0, 20001)
    lp = flow.log_prob(Tensor(grid[:, None]), Tensor(np.repeat(cond, grid.size, axis=0))).data
    total = np.trapezoid(np.exp(lp), grid)
    assert abs(total - 1.0) < 1e-3


def test_log_prob_monotone_in_base_density():
    flow = make_flow(2, 2, randomize=False)
    cond = Tensor(np.zeros((2, 2)))
    theta = Tensor(np.array([[0.0, 0.0], [3.0, 3.0]]))
    lp = flow.log_prob(theta, cond).data
    assert lp[0] > lp[1]


class TestSampling:
    def test_samples_match_base_for_identity_flow(self):
        flow = make_flow(2, 1, randomize=False)
        flow.base.loc.data = np.array([1.0, -2.0])
        rng = np.random.default_rng(6)
        draws, _ = flow.sample(np.zeros(1), 100_000, rng)
        df, scale = 30.0, 1.0
        se = scale * np.sqrt(df / (df - 2.0)) / np.sqrt(100_000)
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, -2.0], atol=3 * se)

    def test_forward_recovers_base_draws(self):
        flow = make_flow(3, 2, seed=7)
        rng = np.random.default_rng(8)
        k = 256
        base = flow.base.sample(k, np.random.default_rng(9))
        cond = rng.normal(size=(k, 2))
        theta, _ = flow.inverse(Tensor(base), Tensor(cond))
        z, _ = flow.forward(theta, Tensor(cond))
        assert np.abs(z.data - base).max() < 1e-6

    def test_sample_log_q_matches_log_prob(self):
        flow = make_flow(3, 2, seed=11)
        rng = np.random.default_rng(12)
        cond = rng.normal(size=(50, 2))
        draws, log_q = flow.sample(cond, 50, rng)
        lp = flow.log_prob(Tensor(draws), Tensor(cond)).data
        np.testing.assert_allclose(log_q, lp, atol=1e-8)

    def test_distinct_conditions_give_distinct_densities(self):
        flow = make_flow(2, 2, seed=13)
        theta = Tensor(np.array([[0.4, -0.2]]))
        lp1 = flow.log_prob(theta, Tensor(np.array([[1.0, 0.0]]))).data
        lp2 = flow.log_prob(theta, Tensor(np.array([[-1.0, 2.0]]))).data
        assert abs(lp1 - lp2) > 1e-6

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sample_grouped_matches_flat_path(self, dim):
        flow = make_flow(dim, 3, seed=14 + dim)
        rng = np.random.default_rng(15)
        cond = rng.normal(size=(5, 3))
        g_draws, g_logq = flow.sample_grouped(cond, 20, np.random.default_rng(16))
        f_draws, f_logq = flow.sample(np.repeat(cond, 20, axis=0), 100,
                                      np.random.default_rng(16))
        np.testing.assert_allclose(g_draws.reshape(100, dim), f_draws, atol=1e-12)
        np.testing.assert_allclose(g_logq.reshape(100), f_logq, atol=1e-10)


def _counting_conditioner_rows(monkeypatch):
    """Patch every conditioner to log the rows it projects: (condition
    rows, passive rows), a zero-width passive half counting none."""
    rows = []
    call = _Conditioner.__call__

    def counted(self, passive, cond, rng=None):
        n_passive = int(np.prod(passive.shape[:-1])) if passive.shape[-1] else 0
        rows.append((int(np.prod(cond.shape[:-1])), n_passive))
        return call(self, passive, cond, rng)

    monkeypatch.setattr(_Conditioner, "__call__", counted)
    return rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_samplers_match_reference_bytes_and_conditioner_rows(dim, dtype, monkeypatch):
    # the shapes inference uses: one shared row, one row per draw, and g
    # groups; each condition row is projected once, the passive half once
    # per draw, and a one-dimensional flow has no passive half
    flow = make_flow(dim, 3, seed=20 + dim, dtype=dtype)
    k, g = 7, 5
    cond = np.random.default_rng(21).normal(size=(k, 3))
    cases = [("sample", cond[0], 1, k), ("sample", cond, k, k),
             ("sample_grouped", cond[:g], g, g * k)]
    rows = _counting_conditioner_rows(monkeypatch)
    for method, c, cond_rows, draws in cases:
        got = getattr(flow, method)(c, k, np.random.default_rng(22))
        assert rows == [(cond_rows, draws if dim > 1 else 0)] * len(flow.conditioners), \
            (method, c.shape)
        rows.clear()
        want = getattr(flow_oracle, method)(flow, c, k, np.random.default_rng(22))
        rows.clear()
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, method
            assert a.tobytes() == b.tobytes(), (method, c.shape)


def test_student_t_base_log_prob_matches_scipy():
    base = StudentTBase(2, dtype=np.float64)
    base.loc.data = np.array([0.5, -1.0])
    base.log_scale.data = np.log(np.array([1.5, 0.7]))
    base.log_df.data = np.log(np.array([5.0, 12.0]))
    rng = np.random.default_rng(14)
    z = rng.normal(size=(40, 2))
    lp = base.log_prob(Tensor(z)).data
    ref = (stats.t.logpdf(z[:, 0], df=5.0, loc=0.5, scale=1.5)
           + stats.t.logpdf(z[:, 1], df=12.0, loc=-1.0, scale=0.7))
    np.testing.assert_allclose(lp, ref, atol=1e-10)
