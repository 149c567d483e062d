"""The radial core: the one-lane run and the trajectory, their runner,
scipy's compiled DOP853, and the DOP853 step that reads between the steps
a run records."""

import gc
import math
import warnings

import numpy as np
import pytest
from scipy.integrate._ivp.rk import RungeKutta
from scipy.optimize import brentq

import pullin
from pullin import (BracketError, NoCrossingError, exponential, mems_inverse_power,
                    power_growth)
from pullin import branch, radial, spectral


def _count_python_steps(monkeypatch):
    sizes = []
    real = RungeKutta.step

    def counting(self):
        sizes.append(self.n)
        return real(self)

    monkeypatch.setattr(RungeKutta, "step", counting)
    return sizes


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("N", [1.0, 2.5, 5.0])
@pytest.mark.parametrize("F, m, partner", [(exponential(), 1.0, 3.0),
                                           (mems_inverse_power(2.0), 0.4, 0.8),
                                           (power_growth(3.0), 1.0, 2.0)])
def test_one_lane_run_matches_its_lane_in_a_pair(monkeypatch, F, m, partner, N, alpha):
    # the one-lane run at m against the branch point at m on a schedule that
    # holds m and its partner, read off the trajectory of the reduced problem
    tol = 1e-10
    sizes = _count_python_steps(monkeypatch)
    shot = branch.shoot(F, N, m, tol, alpha)
    R, slope = shot.first_zero, shot.dlam_dm
    b = pullin.solve_branch(pullin.ProblemSpec(N, F, alpha), [0.5 * m, m, partner], tol)
    # neither run took a step of scipy's Python stepper
    assert sizes == []
    lam1, lam2 = R ** (2.0 + alpha), b.points[1].lam
    assert abs(lam1 - lam2) <= tol * max(1.0, lam2)
    tr = pullin.dim_transform(N, alpha)
    levels = F.scaling_law().level(np.array([m, partner]))
    point = radial.trajectory(F, tr.N_eff, levels, tol, radial.solve_ivp)
    _, slope2 = point(math.log(levels[0]))
    slope2 *= tr.voltage_factor
    assert abs(slope - slope2) <= tol * max(1.0, abs(slope2))


def test_a_plain_run_sets_its_steps_on_every_row():
    # a five-row run of `solve_ivp` is a plain run: its norm takes in the
    # fifth row, here the integral ∫ r^(N-1) z² dr of the lane's tangent,
    # as it is, so a large one shortens the steps
    F, m, tol = mems_inverse_power(2.0), 0.5, 1e-8
    tau0, y0, *_ = radial.lane_seed(F, 2.0, m, tol)
    lane = radial.lane_rhs(F, 2.0, m)

    def rhs(tau, y):
        rows = lane(tau, y[:4])
        return (*rows, y[0] * y[2] * y[2] * rows[0])

    def run(row):
        return radial.solve_ivp(rhs, (tau0, 1.0), np.append(y0, row), rtol=tol,
                                atol=tol * 1e-2)

    small, large = run(1e-9), run(1e60)
    assert small.success and large.success
    assert len(small.t) < len(large.t)


def _blowup(*_, **__):
    # y₀' = 10⁶(1 + y₀²) blows up within π·10⁻⁶ of any start, before the end
    def rhs(t, y):
        r = float(y[0])
        return (1e6 * (1.0 + r * r), 0.0, 0.0, 0.0, 0.0)[:len(y)]
    return rhs


def test_a_failing_run_raises_the_package_error(monkeypatch):
    F = mems_inverse_power(2.0)
    monkeypatch.setattr(branch, "lane_rhs", _blowup)
    monkeypatch.setattr(radial, "trajectory_rhs", _blowup)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoCrossingError, match="step size"):
            branch.shoot(F, 2.0, 0.3, 1e-8)
        with pytest.raises(NoCrossingError, match="trajectory run failed.*step size"):
            pullin.solve_branch(pullin.ProblemSpec(2.0, F), [0.1, 0.2, 0.3], 1e-8)
        with pytest.raises(BracketError, match="profile run failed.*step size"):
            spectral.mu1(2.0, F, 0.72, pullin.BranchPoint(m=0.3, lam=0.72), 1e-8)


@pytest.mark.parametrize("size", [4, 5])
def test_an_exception_in_the_rhs_arrives_as_itself(size):
    def overflowing(t, y):
        if t > 0.5:
            raise OverflowError("the right-hand side left double range")
        return (1.0,) * size

    y0 = np.zeros(size)
    with pytest.raises(OverflowError, match="left double range"):
        radial.solve_ivp(overflowing, (0.0, 1.0), y0, rtol=1e-8, atol=1e-10)
    # and the next run on the same solver is a clean one
    sol = radial.solve_ivp(lambda t, y: (1.0,) * size, (0.0, 1.0), y0, rtol=1e-8,
                           atol=1e-10)
    assert sol.success and sol.y[0, -1] == pytest.approx(1.0, rel=1e-12)


def test_one_lane_runs_keep_no_objects_alive():
    F, nine = mems_inverse_power(2.0), np.linspace(0.2, 0.4, 9)
    prob = pullin.ProblemSpec(2.0, F)
    u = pullin.shoot(F, 2.0, 0.3)
    runs = [(2000, lambda: branch.shoot(F, 2.0, 0.3, 1e-6)),
            (200, lambda: pullin.solve_branch(prob, nine, 1e-6)),
            (200, lambda: spectral.mu1(2.0, F, u.lam, u, 1e-4))]
    for count, run in runs:
        run()
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(count):
            run()
        gc.collect()
        assert len(gc.get_objects()) - before <= 50
    assert math.isfinite(branch.shoot(F, 2.0, 0.3, 1e-6).first_zero)


FAMILIES = [exponential(), mems_inverse_power(2.0), power_growth(3.0)]


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.label())
def test_the_lane_that_sets_the_start_has_its_one_lane_seed(F, alpha):
    # each one-lane run starts where its center series' remainder rule puts
    # it, with the state of the series there
    tol, k = 1e-10, 2.0 + alpha
    for m in branch.default_m_grid(F, 61):
        tau0, y0, eps, a = radial.lane_seed(F, 2.5, m, tol, alpha)
        a_ref, b = radial.center_series(F, 2.5, k, m)
        assert a == a_ref
        s = eps ** k
        # the last terms of w and z stay below tol (w relative to m), and
        # one of the three bounds on s binds
        terms = (abs(a[2]) * s ** 3 / (tol * m), abs(b[2]) * s ** 3 / tol,
                 s * abs(a[0]) / (0.1 * m))
        assert max(terms) == pytest.approx(1.0, rel=1e-12)
        assert m * (1.0 - tau0 ** 2) == pytest.approx(radial.series_value(a, m, s), rel=1e-15)
        w_r = radial.series_state(a, m, s, k, eps)[1]
        np.testing.assert_allclose(y0, [eps, w_r, *radial.series_state(b, 1.0, s, k, eps)],
                                   rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.label())
def test_a_lane_of_the_rhs_is_its_one_lane_rhs(F, alpha):
    # the scalar right-hand side of a lane against its equations on arrays,
    # with the domain-checked F and F'
    N, ms = 2.5, branch.default_m_grid(F, 61)
    states = [radial.lane_seed(F, N, m, 1e-10, alpha)[:2] for m in ms]
    for tau in (None, 0.5, 0.9):
        rows = np.array([radial.lane_rhs(F, N, m, alpha)(tau0 if tau is None else tau, y0)
                         for m, (tau0, y0) in zip(ms, states)]).T
        taus = np.array([tau0 if tau is None else tau for tau0, _ in states])
        r, dw, z, dz = np.array([y0 for _, y0 in states]).T
        w = ms * (1.0 - taus ** 2)
        dr = -2.0 * taus * ms / dw
        weight = r ** alpha
        terms = ((dr,), (weight * F.value(w) * dr, (N - 1.0) / r * dw * dr), (dz * dr,),
                 (weight * F.deriv(w) * z * dr, (N - 1.0) / r * dz * dr))
        # C `pow` of a float and numpy's vectorized power may differ in the
        # last bit (F, F' and r^α), and the two terms of a row may cancel
        for row, sign, parts in zip(rows, (1.0, -1.0, 1.0, -1.0), terms):
            bound = 4e-15 * sum(np.abs(p) for p in parts)
            assert np.all(np.abs(row - sign * sum(parts)) <= bound)


@pytest.mark.parametrize("tol", [0.0, -1e-8, 1.0, 2.0, 5.0, math.inf, math.nan])
def test_a_tol_outside_the_unit_interval_is_refused_before_any_run(tol):
    F = mems_inverse_power(2.0)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        radial.lane_seed(F, 2.0, 0.3, tol)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        radial.trajectory(F, 2.0, np.array([0.1, 0.2]), tol, radial.solve_ivp)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        pullin.shoot(F, 2.0, 0.3, tol=tol)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        pullin.solve_branch(pullin.ProblemSpec(2.0, F), np.geomspace(0.1, 0.9, 5), tol=tol)
    u = pullin.shoot(F, 2.0, 0.3)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        spectral.mu1(2.0, F, u.lam, u, tol)
    # at center value 0, mu1 returns λ₁ without a run
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        spectral.mu1(2.0, F, 0.0, pullin.BranchPoint(m=0.0, lam=0.0), tol)


def test_the_center_series_refuses_a_center_value_outside_the_domain():
    with pytest.raises(pullin.DomainValidationError, match="outside"):
        radial.center_series(mems_inverse_power(2.0), 2.0, 2.0, -0.1)


def _levels(F, N, n, tol):
    """The log-levels of the n-point default grid and their reader."""
    levels = F.scaling_law().level(branch.default_m_grid(F, n))
    return np.log(levels), radial.trajectory(F, N, levels, tol, radial.solve_ivp)


@pytest.mark.parametrize("F, N", [(exponential(), 3.0), (mems_inverse_power(2.0), 2.0),
                                  (exponential(), 10.0)], ids=["exp-3", "mems-2", "exp-10"])
def test_a_level_reads_the_same_bits_alone_and_in_any_batch(F, N):
    ts, point = _levels(F, N, 400, 1e-10)
    rng = np.random.default_rng(0)
    whole = point(ts)
    for i, t in enumerate(ts.tolist()):
        # alone on floats, alone in an array, and at each place of a triple
        alone = [point(t), [v[0] for v in point(ts[i:i + 1])]]
        others = rng.choice(len(ts), 2, replace=False)
        for place in range(3):
            triple = np.insert(ts[others], place, t)
            alone.append([v[place] for v in point(triple)])
        for lam, slope in alone:
            assert (float(lam), float(slope)) == (whole[0][i], whole[1][i])


def _record_norms(monkeypatch):
    norms = []
    real = radial._dop853_step

    def recording(*args):
        new, norm = real(*args)
        norms.extend(np.ravel(norm).tolist())
        return new, norm

    monkeypatch.setattr(radial, "_dop853_step", recording)
    return norms


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("F, N", [(exponential(), 1.0), (exponential(), 2.0),
                                  (exponential(), 3.0), (exponential(), 10.0),
                                  (mems_inverse_power(2.0), 2.0), (mems_inverse_power(2.0), 5.0),
                                  (mems_inverse_power(2.0), 9.0), (power_growth(3.0), 3.0)],
                         ids=lambda v: getattr(v, "label", lambda: v)())
def test_every_read_is_a_step_the_compiled_code_accepts(monkeypatch, F, N, tol):
    # the levels and the fold of a default 400-point grid, and the profiles
    # of shots across it
    norms = _record_norms(monkeypatch)
    b = pullin.solve_branch(pullin.ProblemSpec(N, F), tol=tol)
    grid_reads = len(norms)
    for m in b.m_values[::57]:
        pullin.shoot(F, N, m, tol).solution().at(np.linspace(0.0, 1.0, 101))
    assert grid_reads >= 400 and len(norms) > grid_reads + 7 * 101
    assert max(norms) <= 1.0


def test_a_rejected_read_is_redone_as_a_compiled_run(monkeypatch):
    F, N, tol = exponential(), 2.0, 1e-8
    ts, point = _levels(F, N, 61, tol)
    norms = _record_norms(monkeypatch)
    lam, slope = point(ts)
    worst, second = sorted(norms)[-2:][::-1]
    runs = []
    real = radial._CompiledDOP853.run

    def counting(self, fun, t_span, *args):
        runs.append(t_span)
        return real(self, fun, t_span, *args)

    monkeypatch.setattr(radial._CompiledDOP853, "run", counting)
    # a threshold between the two largest norms rejects one read of the grid
    monkeypatch.setattr(radial, "_READ_NORM_MAX", 0.5 * (worst + second))
    lam2, slope2 = _levels(F, N, 61, tol)[1](ts)
    assert len(runs) == 2  # the main run and the one read
    i = norms.index(worst)
    assert runs[1][1] == ts[i]
    changed = np.flatnonzero((lam2 != lam) | (slope2 != slope))
    assert changed.tolist() in ([], [i])
    assert abs(lam2[i] - lam[i]) <= tol * max(1.0, lam[i])
    assert abs(slope2[i] - slope[i]) <= tol * max(1.0, abs(slope[i]))
    # a float read, rejected by a threshold below every norm
    monkeypatch.setattr(radial, "_READ_NORM_MAX", -1.0)
    runs.clear()
    t = 0.5 * (ts[20] + ts[21])
    lam3, slope3 = point(t)
    assert len(runs) == 1
    monkeypatch.setattr(radial, "_READ_NORM_MAX", 1.0)
    lam4, slope4 = point(t)
    assert abs(lam3 - lam4) <= tol * max(1.0, lam4)
    assert abs(slope3 - slope4) <= tol * max(1.0, abs(slope4))


@pytest.mark.parametrize("F, N, top", [(exponential(), 3.0, 100.0), (exponential(), 5.0, 35.0),
                                       (mems_inverse_power(2.0), 3.0, 15.0),
                                       (mems_inverse_power(2.0), 5.0, 8.0),
                                       (power_growth(3.0), 8.0, 12.0)],
                         ids=["exp-3", "exp-5", "mems-3", "mems-5", "power3-8"])
def test_the_folds_spiral_into_the_singular_point_at_the_rate_of_its_jacobian(F, N, top):
    # below the Joseph-Lundgren dimension J is a spiral, with eigenvalues
    # (trace ± i sqrt(-disc))/2: successive folds lie half a turn apart in
    # a = log ρ, so their distances |λ_k - λ_s| shrink by
    # exp(π trace / sqrt(-disc)), which has no closed form in N.  The top
    # level reaches |λ_k - λ_s| ≈ 1e-10 λ_s; folds closer than 1e-9 λ_s
    # are left out, since their distances near the rounding of λ
    q_star, c, trace, disc = F.scaling_law().singular_point(N)
    assert c > 0.0 and disc < 0.0
    lam_s, rate = q_star * c, math.exp(math.pi * trace / math.sqrt(-disc))
    levels = np.geomspace(1e-2, top, 2000)
    point = radial.trajectory(F, N, levels, 1e-12, radial.solve_ivp)
    ts = np.log(levels)
    slope = point(ts)[1]
    distances = []
    for i in np.flatnonzero(np.sign(slope[:-1]) != np.sign(slope[1:])):
        t = brentq(lambda s: point(s)[1], ts[i], ts[i + 1], xtol=1e-15, rtol=1e-15)
        distances.append(abs(point(t)[0] - lam_s))
    assert min(distances) < 1e-10 * lam_s
    kept = np.array([d for d in distances if d > 1e-9 * lam_s])
    ratios = kept[1:] / kept[:-1]
    assert len(ratios) >= 3
    assert abs(ratios[-1] / rate - 1.0) < 1e-6
