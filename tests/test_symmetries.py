"""The equations' symmetries as reference-free checks of the steppers.

On the torus the Euler-Poisson and Keller-Segel flows commute with the
reflection x -> -x (rho(-x), -w(-x)) and with shifts by whole cells, the
members of an epsilon batch do not see each other, and the mass of rho - M
is conserved, at gamma = 2, where the pressure is linear and added in
Fourier space, and at gamma = 1.5, where its row is transformed.  Each holds exactly in the equations; the code keeps the
first, second and fourth to roundoff, bound here at 1e-13 times the data's
amplitude, and the batch order bit for bit.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from frictionlab.core import Field, Grid, ParamSet
from frictionlab.euler_poisson import simulate_ep_rows
from frictionlab.keller_segel import simulate_ks

M = 1.0
TIMES = [0.0, 0.05, 0.1]
ROUNDOFF = 1e-13   # agreement bound, relative to the data's amplitude
MODES = 3


@st.composite
def torus_cases(draw):
    """Trig-polynomial data rho0 = M + sum a_k cos(kx + phi_k),
    w0 = sum b_k sin(kx + psi_k) on a torus of n cells, with a batch of
    1-3 epsilons sharing one alpha and one gamma."""
    n = draw(st.sampled_from([32, 64]))
    x = Grid.torus(n).x
    sign = draw(st.sampled_from([-1.0, 1.0]))
    a = [sign * draw(st.floats(0.05, 0.2))] + \
        [draw(st.floats(-0.1, 0.1)) for _ in range(MODES - 1)]
    b = [draw(st.floats(-0.05, 0.05)) for _ in range(MODES)]
    phase = st.floats(0.0, 2.0 * np.pi)
    rho = M + sum(a[k] * np.cos((k + 1) * x + draw(phase))
                  for k in range(MODES))
    w = sum(b[k] * np.sin((k + 1) * x + draw(phase)) for k in range(MODES))
    alpha = draw(st.floats(0.5, 1.5))
    gamma = draw(st.sampled_from([1.5, 2.0]))
    ps = [ParamSet(epsilon=eps, alpha=alpha, gamma=gamma, mass_level=M,
                   rho_lower=0.25, rho_upper=2.0, grid=Grid.torus(n))
          for eps in draw(st.lists(st.floats(0.05, 0.3), min_size=1,
                                   max_size=3))]
    return ps, rho, w


def _amplitude(rho, w):
    return max(np.abs(rho - M).max(), np.abs(w).max())


def _ep(ps, rho, w):
    grid = ps[0].grid
    results = simulate_ep_rows(Field(grid, rho, tag="density"),
                               Field(grid, w), ps, TIMES, records=False)
    assert all(r.ok for r in results)
    return [[(s.rho.values, s.w.values) for s, _ in r.samples]
            for r in results]


def _ks(p, sigma):
    result = simulate_ks(Field(p.grid, sigma, tag="density"), p, TIMES,
                         records=False)
    assert result.ok
    return [s.sigma.values for s, _ in result.samples]


def _reflect(values):
    """values at -x: node j reads node (n - j) mod n."""
    return values[(-np.arange(values.size)) % values.size]


@settings(max_examples=25, deadline=None)
@given(case=torus_cases())
def test_reflection_gives_the_reflected_trajectory(case):
    ps, rho, w = case
    bound = ROUNDOFF * _amplitude(rho, w)
    plain = _ep(ps, rho, w)
    mirrored = _ep(ps, _reflect(rho), -_reflect(w))
    for member, image in zip(plain, mirrored):
        for (r, v), (r_m, v_m) in zip(member, image, strict=True):
            assert np.abs(r_m - _reflect(r)).max() <= bound
            assert np.abs(v_m + _reflect(v)).max() <= bound
    for s, s_m in zip(_ks(ps[0], rho), _ks(ps[0], _reflect(rho)),
                      strict=True):
        assert np.abs(s_m - _reflect(s)).max() <= bound


@settings(max_examples=25, deadline=None)
@given(case=torus_cases(), cells=st.integers(1, 63))
def test_shift_by_whole_cells_gives_the_shifted_trajectory(case, cells):
    ps, rho, w = case
    bound = ROUNDOFF * _amplitude(rho, w)
    plain = _ep(ps, rho, w)
    moved = _ep(ps, np.roll(rho, cells), np.roll(w, cells))
    for member, image in zip(plain, moved):
        for (r, v), (r_m, v_m) in zip(member, image, strict=True):
            assert np.abs(r_m - np.roll(r, cells)).max() <= bound
            assert np.abs(v_m - np.roll(v, cells)).max() <= bound
    for s, s_m in zip(_ks(ps[0], rho), _ks(ps[0], np.roll(rho, cells)),
                      strict=True):
        assert np.abs(s_m - np.roll(s, cells)).max() <= bound


@settings(max_examples=25, deadline=None)
@given(case=torus_cases(), data=st.data())
def test_permuted_batch_gives_the_permuted_rows(case, data):
    ps, rho, w = case
    order = data.draw(st.permutations(range(len(ps))))
    plain = _ep(ps, rho, w)
    permuted = _ep([ps[i] for i in order], rho, w)
    for i, member in zip(order, permuted):
        assert len(member) == len(plain[i])
        for (r, v), (r_p, v_p) in zip(plain[i], member):
            assert np.array_equal(r, r_p) and np.array_equal(v, v_p)


@settings(max_examples=25, deadline=None)
@given(case=torus_cases())
def test_mean_of_rho_minus_m_stays_at_roundoff(case):
    ps, rho, w = case
    bound = ROUNDOFF * _amplitude(rho, w)
    for member in _ep(ps, rho, w):
        for r, _ in member:
            assert abs(np.mean(r - M)) <= bound
    for s in _ks(ps[0], rho):
        assert abs(np.mean(s - M)) <= bound
