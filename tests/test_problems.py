import dataclasses
import math

import numpy as np
import pytest

from pintbench.integrators import ThetaSettings, make_propagator
from pintbench.linalg import NewtonSettings
from pintbench.problems import (
    PROBLEMS,
    GaussianBump,
    MeshDegenerate,
    SineMode,
    Zero,
    advection1d,
    ale_piston,
    dahlquist,
    forcing_s,
    heat1d,
    initial_state,
    reference_solution,
    rhs,
    rhs_values,
)
from pintbench.state import State

TIGHT = NewtonSettings(abs_tol=1e-13)


class TestForcing:
    def test_zero_at_start(self):
        assert forcing_s(0.0) == 0.0

    def test_one_at_half_cycle(self):
        assert forcing_s(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_back_to_zero_after_full_cycle(self):
        assert forcing_s(2.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_period_scaling(self):
        assert forcing_s(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            forcing_s(1.0, 0.0)


class TestSpecsAndInitialStates:
    def test_dahlquist_initial(self):
        s = initial_state(dahlquist(y0=1.0))
        assert s.values.tolist() == [1.0]
        assert s.time == 0.0
        assert s.layout == {"y": (0, 1)}

    def test_heat_zero_initial(self):
        s = initial_state(heat1d(mesh_n=9, init=Zero()))
        assert np.array_equal(s.values, np.zeros(9))

    def test_heat_sine_initial_formula(self):
        problem = heat1d(mesh_n=9, length=2.0, init=SineMode(2))
        s = initial_state(problem)
        x = problem.grid()
        assert np.allclose(s.values, np.sin(2.0 * np.pi * x / 2.0), rtol=0, atol=1e-15)

    def test_advection_gaussian_initial_formula(self):
        problem = advection1d(mesh_n=9, init=GaussianBump(0.5, 0.1))
        s = initial_state(problem)
        x = problem.grid()
        assert np.allclose(s.values, np.exp(-(((x - 0.5) / 0.1) ** 2)), rtol=0, atol=1e-15)

    def test_piston_starts_from_rest(self):
        problem = ale_piston(mesh_n=7)
        s = initial_state(problem)
        assert not s.values.any()
        assert s.layout == {"v": (0, 7), "u": (7, 1), "w": (8, 1)}

    def test_mesh_n_minimum_for_pde(self):
        with pytest.raises(ValueError):
            heat1d(mesh_n=2)

    def test_parameter_positivity(self):
        with pytest.raises(ValueError):
            heat1d(nu=0.0)
        with pytest.raises(ValueError):
            advection1d(speed=0.0)
        with pytest.raises(ValueError):
            ale_piston(kappa=-1.0)
        with pytest.raises(ValueError):
            ale_piston(v_in=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cls,name", [
        (cls, f.name) for cls in (*PROBLEMS.values(), GaussianBump) for f in dataclasses.fields(cls)
        if isinstance(getattr(cls(), f.name), float)
    ], ids=lambda x: x if isinstance(x, str) else x.__name__)
    def test_non_finite_parameter_rejected(self, cls, name, value):
        # NaN passes every ordered comparison check and +inf every positivity check
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**{name: value})


class TestRhs:
    def test_heat_zero_state_is_steady(self):
        problem = heat1d(mesh_n=9, init=Zero())
        s = initial_state(problem)
        assert not rhs(problem, s, 0.0).any()

    def test_heat_sine_is_discrete_eigenvector(self):
        # verified against explicit multiplication by the stencil matrix
        n, nu = 15, 1.0
        problem = heat1d(mesh_n=n, nu=nu, length=1.0, init=SineMode(1))
        s = initial_state(problem)
        h = 1.0 / (n + 1)
        stencil = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) * nu / h**2
        matvec = stencil @ s.values
        out = rhs(problem, s, 0.0)
        assert np.allclose(out, matvec, rtol=1e-13, atol=1e-12)
        mu = -(2.0 * nu / h**2) * (1.0 - math.cos(math.pi * h))
        assert np.allclose(out, mu * s.values, rtol=1e-10, atol=1e-10)

    def test_heat_dirichlet_injection(self):
        problem = heat1d(mesh_n=3, nu=1.0, length=1.0, left_bc=2.0, right_bc=-1.0, init=Zero())
        s = initial_state(problem)
        out = rhs(problem, s, 0.0)
        h2 = (1.0 / 4.0) ** 2
        assert out[0] == pytest.approx(2.0 / h2)
        assert out[1] == 0.0
        assert out[2] == pytest.approx(-1.0 / h2)

    def test_advection_periodic_matches_loop_oracle(self):
        problem = advection1d(mesh_n=8, speed=2.0, length=1.0)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8)
        s = State(v, 0.0, problem.layout())
        out = rhs(problem, s, 0.0)
        h = 1.0 / 8.0
        expected = np.array([
            -2.0 * (v[(i + 1) % 8] - v[(i - 1) % 8]) / (2.0 * h) for i in range(8)
        ])
        assert np.allclose(out, expected, rtol=1e-14, atol=0)

    def test_piston_rest_is_exact_fixed_point(self):
        problem = ale_piston(mesh_n=9, v_in=0.0)
        s = initial_state(problem)
        assert np.max(np.abs(rhs(problem, s, 0.0))) == 0.0

    def test_piston_rest_with_forcing_off_at_any_time(self):
        problem = ale_piston(mesh_n=9, v_in=0.0)
        s = initial_state(problem)
        assert np.max(np.abs(rhs(problem, s, 3.7))) == 0.0

    def test_piston_traction_exact_on_linear_profile(self):
        # one-sided second-order stencil differentiates a linear profile
        # exactly, so the interface force magnitude is rho_f*nu*w/L0
        problem = ale_piston(mesh_n=15, rho_f=2.0, nu=0.05, L0=1.0, m_s=1.0, kappa=3.0, v_in=0.0)
        w = 0.7
        x = problem.grid()
        values = np.concatenate([x * w, [0.0], [w]])
        out = rhs_values(problem, values, 0.0)
        traction = 2.0 * 0.05 * w / 1.0
        assert out[15] == w
        assert out[16] == pytest.approx(-(traction + 3.0 * 0.0) / 1.0, rel=1e-12)

    def test_piston_mesh_velocity_term(self):
        # with u=0, w!=0 and a linear profile the convection coefficient at
        # node i is (adv - x_i*w), exact for the central stencil on linear data
        problem = ale_piston(mesh_n=15, rho_f=1.0, nu=1e-12, L0=1.0, adv=0.3, m_s=1.0, kappa=1.0, v_in=0.0)
        w = 0.5
        x = problem.grid()
        values = np.concatenate([x * w, [0.0], [w]])
        out = rhs_values(problem, values, 0.0)
        # second differences of linear data vanish, so only transport remains
        expected = -(0.3 - x * w) * w
        assert np.allclose(out[:15], expected, rtol=1e-12, atol=1e-14)

    def test_mesh_degeneracy_detected(self):
        problem = ale_piston(mesh_n=7, L0=1.0)
        values = np.zeros(9)
        values[7] = 0.95
        with pytest.raises(MeshDegenerate):
            rhs_values(problem, values, 0.0)


class TestInvariants:
    def test_heat_l2_norm_non_increasing(self):
        problem = heat1d(mesh_n=15, nu=0.1, init=SineMode(3))
        prop = make_propagator(problem, ThetaSettings(step=0.05, newton=TIGHT))
        s = initial_state(problem)
        norm = float(np.linalg.norm(s.values))
        for _ in range(20):
            s = prop.advance(s, s.time + 0.05)
            new_norm = float(np.linalg.norm(s.values))
            assert new_norm <= norm * (1.0 + 1e-12)
            norm = new_norm

    def test_advection_spatial_operator_conserves_l2(self):
        problem = advection1d(mesh_n=64, init=GaussianBump(0.5, 0.1))
        s = initial_state(problem)
        deriv = rhs(problem, s, 0.0)
        assert abs(2.0 * float(np.dot(s.values, deriv))) <= 1e-12

    def test_piston_energy_dissipative_at_rest_forcing(self):
        problem = ale_piston(mesh_n=31, rho_f=1.0, nu=0.05, L0=1.0, adv=0.0,
                             m_s=2.0, kappa=1.0, v_in=0.0)
        n = problem.mesh_n
        h = problem.h
        values = np.zeros(n + 2)
        values[:n] = 0.02 * np.sin(np.pi * problem.grid())
        values[n] = 0.05
        values[n + 1] = 0.03
        s = State(values, 0.0, problem.layout())

        def energy(state):
            v = state.values[:n]
            u = state.values[n]
            w = state.values[n + 1]
            return (0.5 * problem.m_s * w**2 + 0.5 * problem.kappa * u**2
                    + 0.5 * problem.rho_f * (problem.L0 + u) * h * float(np.sum(v**2)))

        prop = make_propagator(problem, ThetaSettings(step=0.005, newton=NewtonSettings(abs_tol=1e-12)))
        e0 = energy(s)
        for _ in range(100):
            s = prop.advance(s, s.time + 0.005)
            assert energy(s) <= e0 * (1.0 + 1e-6)


class TestReferenceSolution:
    def test_dahlquist_analytic(self):
        ref = reference_solution(dahlquist(lam=-1.0, y0=1.0), 1.0)
        assert ref.values[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert ref.time == 1.0

    def test_time_zero_returns_initial_state(self):
        problem = heat1d(mesh_n=7)
        ref = reference_solution(problem, 0.0, base_step=0.1)
        assert np.array_equal(ref.values, initial_state(problem).values)

    def test_heat_reference_matches_semidiscrete_decay(self):
        # independent oracle: the semi-discrete solution of the sine mode is
        # exp(mu_h * t) times the initial data
        n, nu, t = 15, 0.1, 1.0
        problem = heat1d(mesh_n=n, nu=nu, init=SineMode(1))
        h = 1.0 / (n + 1)
        mu = -(2.0 * nu / h**2) * (1.0 - math.cos(math.pi * h))
        ref = reference_solution(problem, t, fine_factor=8, base_step=0.02)
        exact = math.exp(mu * t) * initial_state(problem).values
        assert np.allclose(ref.values, exact, rtol=5e-6, atol=1e-12)

    def test_pde_requires_base_step(self):
        with pytest.raises(ValueError):
            reference_solution(heat1d(mesh_n=7), 1.0)

    def test_fine_factor_minimum(self):
        with pytest.raises(ValueError):
            reference_solution(dahlquist(), 1.0, fine_factor=1)
