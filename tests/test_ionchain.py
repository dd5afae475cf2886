import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import constants as sc

from ionqsim.constants import AMU, YB171, Species
from ionqsim.ionchain import (ChainModes, ConvergenceError, CouplingMatrix,
                              NotAMinimumError, TrapConfig, breit_rabi_energy,
                              chi_parameter, coupling_matrix, equilibrium_positions,
                              field_for_chi, ground_state_width, lamb_dicke,
                              length_scale, normal_modes,
                              qubit_frequency_gradient, required_gradient,
                              spacing_estimate, spin_spin_couplings)
from oracles import epsilon_coupling_oracle, epsilon_oracle, inverse_hessian_coupling_oracle

NU1 = 2 * math.pi * 100e3
MU_B_SC = sc.physical_constants["Bohr magneton"][0]


def chain_potential(u):
    """Test-side potential V(u); the package never calls this."""
    v = 0.5 * np.sum(u**2)
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            v += 1.0 / abs(u[i] - u[j])
    return v


def numeric_gradient(u, h=1e-6):
    g = np.zeros_like(u)
    for k in range(u.size):
        up, dn = u.copy(), u.copy()
        up[k] += h
        dn[k] -= h
        g[k] = (chain_potential(up) - chain_potential(dn)) / (2 * h)
    return g


def numeric_hessian(u, h=1e-5):
    n = u.size
    hess = np.zeros((n, n))
    for k in range(n):
        up, dn = u.copy(), u.copy()
        up[k] += h
        dn[k] -= h
        hess[:, k] = (numeric_gradient(up) - numeric_gradient(dn)) / (2 * h)
    return hess


class TestLengthScale:
    def test_yb171_value_against_scipy_constants(self):
        zeta = length_scale(YB171, NU1)
        want = (sc.e**2 / (4 * math.pi * sc.epsilon_0 * YB171.mass * NU1**2)) ** (1 / 3)
        assert zeta == pytest.approx(want, rel=1e-9)
        assert zeta == pytest.approx(12.72e-6, rel=0.01)

    def test_frequency_power_law(self):
        assert length_scale(YB171, 4 * NU1) == pytest.approx(
            length_scale(YB171, NU1) / 4 ** (2 / 3), rel=1e-12)

    def test_mass_power_law(self):
        heavy = Species(mass=8 * YB171.mass, g_j=2.0, g_i=0.1, e_hfs=YB171.e_hfs, i_nuc=0.5)
        assert length_scale(heavy, NU1) == pytest.approx(
            length_scale(YB171, NU1) / 2.0, rel=1e-12)

    # m nu1^2 underflows to 0; e^2 / (m nu1^2) underflows to 0 (zeta would be
    # 0); m nu1^2 overflows to inf (zeta would be 0 too)
    @pytest.mark.parametrize("nu1", [1e-160, 1e161, 1e170])
    def test_out_of_float_range_raises(self, nu1):
        with pytest.raises(OverflowError, match="out of range"):
            length_scale(YB171, nu1)

    @pytest.mark.parametrize("nu1", [1e-130, 1e150])
    def test_extreme_but_representable_is_kept(self, nu1):
        assert length_scale(YB171, nu1) == pytest.approx(
            length_scale(YB171, NU1) * (NU1 / nu1) ** (2 / 3), rel=1e-12)


class TestSpacing:
    def test_ten_ion_spacing_near_seven_microns(self):
        dz = spacing_estimate(10, length_scale(YB171, NU1))
        assert dz == pytest.approx(7e-6, rel=0.05)

    def test_two_ion_fit_versus_exact(self):
        zeta = 1.0
        fit = spacing_estimate(2, zeta)
        exact = 2.0 * (0.5) ** (2 / 3)        # from the analytic N=2 equilibrium
        assert fit == pytest.approx(2 * 2 ** (-0.56), rel=1e-12)
        assert exact == pytest.approx(2 ** (1 / 3), rel=1e-12)
        assert 0.05 < (fit - exact) / exact < 0.10    # documented ~8% overshoot

    def test_monotone_decreasing(self):
        values = [spacing_estimate(n, 1.0) for n in range(2, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_ion_rejected(self):
        with pytest.raises(ValueError):
            spacing_estimate(1, 1.0)


class TestEquilibrium:
    def test_single_ion_at_center(self):
        np.testing.assert_array_equal(equilibrium_positions(1), [0.0])

    def test_two_ions_analytic(self):
        u = equilibrium_positions(2)
        want = (0.5) ** (2 / 3)     # stationarity: 2u = 1/(2u)^2
        np.testing.assert_allclose(u, [-want, want], atol=1e-12)

    def test_three_ions_analytic(self):
        u = equilibrium_positions(3)
        want = (1.25) ** (1 / 3)    # cubic equilibrium condition
        np.testing.assert_allclose(u, [-want, 0.0, want], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 30])
    def test_gradient_residual_and_symmetry(self, n):
        u = equilibrium_positions(n)
        assert np.max(np.abs(numeric_gradient(u))) < 1e-5   # finite-difference oracle
        assert np.all(np.diff(u) > 0)
        np.testing.assert_allclose(u, -u[::-1], atol=1e-10)
        assert abs(np.sum(u)) < 1e-12

    def test_exact_stationarity(self):
        # tighter residual via the analytic force balance per ion
        for n in (4, 10):
            u = equilibrium_positions(n)
            for m in range(n):
                d = u[m] - np.delete(u, m)
                force = u[m] - np.sum(np.sign(d) / d**2)
                assert abs(force) < 1e-12

    def test_stalled_solver_reports_residual(self, monkeypatch):
        monkeypatch.setattr("ionqsim.ionchain._MAX_ITER", 0)
        with pytest.raises(ConvergenceError, match="grad"):
            equilibrium_positions(5)


def fresh_gradient(u):
    """The solver's gradient written with fresh arrays, operation by operation."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / d**2, axis=1)


def fresh_hessian(u):
    """The solver's Hessian written with fresh arrays, operation by operation."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    off = -2.0 / np.abs(d) ** 3
    h = off.copy()
    np.fill_diagonal(h, 1.0 - np.sum(off, axis=1))
    return h


class TestSharedWorkArrays:
    """Every gradient and Hessian of one solve is written into one pair of
    (N, N) work arrays; that must not change a single bit."""

    @pytest.fixture(scope="class", params=[2, 10, 60, 150])
    def points(self, request):
        n = request.param
        start = (np.arange(n) - 0.5 * (n - 1)) * spacing_estimate(n, 1.0)
        return {"start": start, "equilibrium": equilibrium_positions(n)}

    @pytest.mark.parametrize("where", ["start", "equilibrium"])
    def test_bits_equal_fresh_arrays(self, points, where):
        import ionqsim.ionchain as ic
        u = points[where]
        work = ic._work_arrays(u.size)
        for a in work:
            a.fill(np.nan)      # whatever an earlier call left behind
        # alternate as the solver does, so each call starts from the other's leftovers
        for _ in range(2):
            np.testing.assert_array_equal(ic._hessian(u, work), fresh_hessian(u))
            np.testing.assert_array_equal(ic._gradient(u, work), fresh_gradient(u))
        np.testing.assert_array_equal(ic._hessian(u), fresh_hessian(u))
        np.testing.assert_array_equal(ic._gradient(u), fresh_gradient(u))

    def test_gradient_is_a_fresh_vector(self, points):
        import ionqsim.ionchain as ic
        u = points["start"]
        work = ic._work_arrays(u.size)
        first = ic._gradient(u, work)
        kept = first.copy()
        assert not any(np.shares_memory(first, a) for a in work)
        ic._gradient(points["equilibrium"], work)
        ic._hessian(points["equilibrium"], work)
        np.testing.assert_array_equal(first, kept)


class TestNormalModes:
    def test_two_ion_frequencies(self):
        modes = normal_modes(equilibrium_positions(2), NU1)
        np.testing.assert_allclose(modes.nu / NU1, [1.0, math.sqrt(3)], atol=1e-12)

    def test_three_ion_frequencies_brute_force(self):
        u = equilibrium_positions(3)
        modes = normal_modes(u, NU1)
        np.testing.assert_allclose(modes.nu / NU1,
                                   [1.0, math.sqrt(3), math.sqrt(29 / 5)], atol=1e-10)
        # brute-force oracle: eigenvalues of the finite-difference Hessian
        fd = np.sort(np.linalg.eigvalsh(numeric_hessian(u)))
        np.testing.assert_allclose((modes.nu / NU1) ** 2, fd, atol=1e-4)

    @pytest.mark.parametrize("n", [2, 3, 7, 10])
    def test_com_mode_and_orthonormality(self, n):
        modes = normal_modes(equilibrium_positions(n), NU1)
        assert modes.nu[0] == pytest.approx(NU1, rel=1e-12)
        np.testing.assert_allclose(modes.s_matrix[0], np.full(n, 1 / math.sqrt(n)),
                                   atol=1e-10)
        np.testing.assert_allclose(modes.s_matrix @ modes.s_matrix.T, np.eye(n),
                                   atol=1e-10)

    @pytest.mark.parametrize("n", [60, 150])
    def test_com_and_breathing_to_roundoff(self, n):
        # A 1 = 1 for any u and the breathing mode has lam = 3 at the
        # equilibrium; eigh alone misses both by ~2e-13 at N = 150
        lam = (normal_modes(equilibrium_positions(n), NU1).nu / NU1) ** 2
        assert abs(lam[0] - 1.0) <= 4e-16
        assert abs(lam[1] - 3.0) <= 1e-14

    def test_mode_decomposition_reconstructs_hessian(self):
        u = equilibrium_positions(8)
        modes = normal_modes(u, NU1)
        lam = (modes.nu / NU1) ** 2
        rebuilt = modes.s_matrix.T @ np.diag(lam) @ modes.s_matrix
        fd = numeric_hessian(u)
        assert np.max(np.abs(rebuilt - fd)) / np.max(np.abs(fd)) < 1e-4
        # and to full precision against itself applied to vectors
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        np.testing.assert_allclose(rebuilt @ x, rebuilt.T @ x, atol=1e-9)

    def test_sign_convention(self):
        modes = normal_modes(equilibrium_positions(6), NU1)
        for row in modes.s_matrix:
            first = row[np.flatnonzero(np.abs(row) > 1e-8)[0]]
            assert first > 0

    def test_sign_convention_matches_the_row_loop(self):
        import ionqsim.ionchain as ic
        for n in (2, 3, 7, 20, 60):
            u = equilibrium_positions(n)
            want = np.linalg.eigh(ic._hessian(u))[1].T.copy()
            for row in want:
                nz = np.flatnonzero(np.abs(row) > 1e-8)
                if nz.size and row[nz[0]] < 0:
                    row *= -1.0
            np.testing.assert_array_equal(normal_modes(u, NU1).s_matrix, want)

    def test_sign_convention_skips_vanishing_leading_entries(self, monkeypatch):
        # a row's sign is set by its first entry above 1e-8, not by entry 0
        import ionqsim.ionchain as ic
        rows = np.array([[1e-12, -0.6, 0.8], [0.0, 0.8, 0.6], [-1.0, 0.0, 0.0]])
        monkeypatch.setattr(ic.np.linalg, "eigh", lambda h: (np.array([1.0, 2.0, 3.0]), rows.T))
        got = ic.normal_modes(np.array([-1.0, 0.0, 1.0]), NU1).s_matrix
        np.testing.assert_array_equal(got, [[-1e-12, 0.6, -0.8], [0.0, 0.8, 0.6], [1.0, 0.0, 0.0]])

    def test_invalid_positions_rejected(self):
        with pytest.raises(ValueError):
            normal_modes(np.array([0.3, 0.3]), NU1)

    def test_non_minimum_detected(self, monkeypatch):
        import ionqsim.ionchain as ic
        monkeypatch.setattr(ic, "_hessian", lambda u: -np.eye(u.size))
        with pytest.raises(NotAMinimumError):
            ic.normal_modes(np.array([-0.6, 0.6]), NU1)


class TestLambDicke:
    def test_ground_state_width_17nm(self):
        dz = ground_state_width(YB171, NU1)
        assert dz == pytest.approx(17e-9, rel=0.03)
        assert dz == pytest.approx(math.sqrt(sc.hbar / (2 * YB171.mass * NU1)), rel=1e-9)

    def test_uv_lamb_dicke(self):
        eta, dz, dp = lamb_dicke(369e-9, YB171, NU1)
        assert eta == pytest.approx(2 * math.pi * dz / 369e-9, rel=1e-12)
        assert eta == pytest.approx(0.2928, rel=1e-3)
        assert dz * dp == pytest.approx(sc.hbar / 2, rel=1e-9)   # minimum uncertainty

    def test_microwave_lamb_dicke_essentially_zero(self):
        eta, _, _ = lamb_dicke(0.024, YB171, NU1)
        assert eta == pytest.approx(4.5e-6, rel=0.01)
        assert eta < 1e-5

    def test_wavelength_validated(self):
        with pytest.raises(ValueError):
            lamb_dicke(0.0, YB171, NU1)


class TestBreitRabi:
    def test_zero_field_splitting(self):
        e_plus = breit_rabi_energy(YB171, 0.0, 0.0, +1)
        e_minus = breit_rabi_energy(YB171, 0.0, 0.0, -1)
        assert e_plus - e_minus == pytest.approx(YB171.e_hfs, rel=1e-12)

    def test_chi_unity_field(self):
        b = field_for_chi(YB171, 1.0)
        assert chi_parameter(YB171, b) == pytest.approx(1.0, rel=1e-12)
        assert b == pytest.approx(0.45, rel=0.02)

    @pytest.mark.parametrize("b_field", [1e308, -1e308, np.array([0.1, 1e308])])
    def test_chi_overflow_names_the_field(self, b_field):
        # chi = 2.21 B/T for 171Yb+ leaves the float range above ~8.1e307 T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="field B = 1e\\+308 T"):
                chi_parameter(YB171, b_field)

    def test_energy_finite_up_to_chi_overflow(self):
        # E ~ B mu_B is finite, without a warning, up to chi's own limit (~8e307 T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energies = {b: breit_rabi_energy(YB171, b, 0.0, +1) for b in (1e150, 1e154, 1e300)}
        assert all(math.isfinite(e) for e in energies.values())
        assert energies[1e300] / energies[1e150] == pytest.approx(1e150, rel=1e-12)

    @pytest.mark.parametrize("b_field", [1e-4, 0.2, 5.0])
    @pytest.mark.parametrize("branch, m_q", [(+1, -1.0), (+1, 0.0), (+1, 1.0), (-1, 0.0)])
    def test_negative_field_mirrors_m_q(self, branch, m_q, b_field):
        # E(-B, m_q) = E(B, -m_q): chi takes B's sign, as the nuclear term does
        assert (breit_rabi_energy(YB171, -b_field, m_q, branch)
                == breit_rabi_energy(YB171, b_field, -m_q, branch))

    def test_strong_field_asymptote(self):
        # slope of the m_q = 0 levels approaches +/- g_J mu_B / 2
        b = 50.0
        h = 1e-4
        for branch in (+1, -1):
            slope = (breit_rabi_energy(YB171, b + h, 0.0, branch)
                     - breit_rabi_energy(YB171, b - h, 0.0, branch)) / (2 * h)
            want = branch * 0.5 * YB171.g_j * MU_B_SC
            assert slope == pytest.approx(want, rel=1e-3)

    def test_splitting_derivative_matches_finite_difference(self):
        b, h = 5e-4, 1e-9
        def splitting(field):
            return (breit_rabi_energy(YB171, field, 0.0, +1)
                    - breit_rabi_energy(YB171, field, 0.0, -1))
        fd = (splitting(b + h) - splitting(b - h)) / (2 * h)
        chi = chi_parameter(YB171, b)
        chi_slope = chi / b
        analytic = YB171.e_hfs * chi * chi_slope / math.sqrt(1 + chi**2)
        assert fd == pytest.approx(analytic, rel=1e-6)

    def test_stretched_state_is_linear(self):
        # m_q = I + 1/2 on the + branch: radicand is a perfect square
        e1 = breit_rabi_energy(YB171, 0.2, 1.0, +1)
        chi = chi_parameter(YB171, 0.2)
        want = (YB171.e_hfs / 4 - YB171.g_i * sc.physical_constants[
            "nuclear magneton"][0] * 0.2 + 0.5 * YB171.e_hfs * (1 + chi))
        assert e1 == pytest.approx(want, rel=1e-9)

    def test_quantum_number_validation(self):
        with pytest.raises(ValueError):
            breit_rabi_energy(YB171, 0.1, 1.0, -1)    # F=0 has only m_q=0
        with pytest.raises(ValueError):
            breit_rabi_energy(YB171, 0.1, 2.0, +1)
        with pytest.raises(ValueError):
            breit_rabi_energy(YB171, 0.1, 0.3, +1)
        with pytest.raises(ValueError):
            breit_rabi_energy(YB171, 0.1, 0.0, 2)


class TestFrequencyGradient:
    def test_weak_field_value(self):
        got = qubit_frequency_gradient(YB171, 0.0, 25.0)
        # scipy may carry a newer CODATA release; agreement to 1e-6 is
        # far below every experimental tolerance in use here
        assert got == pytest.approx(MU_B_SC * 25.0 / sc.hbar, rel=1e-6)
        assert got == pytest.approx(2.199e12, rel=1e-3)

    def test_strong_field_doubles(self):
        # chi^2 used to overflow from B ~ 1e155 T, which made the factor 1 again
        weak = qubit_frequency_gradient(YB171, 0.0, 25.0)
        for b0 in (500.0, 1e100, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                strong = qubit_frequency_gradient(YB171, b0, 25.0)
            assert strong / weak == pytest.approx(2.0, abs=1e-4)

    def test_zero_gradient(self):
        assert qubit_frequency_gradient(YB171, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("b_at_ion", [0.0, 0.1, np.array([0.0, 1e300])])
    def test_overflow_raises(self, b_at_ion):
        with pytest.raises(OverflowError, match="gradient b = 1e\\+300"):
            qubit_frequency_gradient(YB171, b_at_ion, 1e300)


class TestRequiredGradient:
    def test_ten_ions_near_ten_tesla_per_meter(self):
        assert required_gradient(YB171, NU1, 10) == pytest.approx(10.0, rel=0.10)

    def test_frequency_scaling(self):
        ratio = required_gradient(YB171, 2 * NU1, 10) / required_gradient(YB171, NU1, 10)
        assert ratio == pytest.approx(2 ** (5 / 3), rel=1e-12)

    def test_two_ion_shift_exceeds_sideband_requirement(self):
        # combine the spacing fit, the weak-field shift and the exact
        # mode spectrum: at N=2 the gradient formula satisfies o_diff
        # outright (the formula is an order-of-magnitude estimate and
        # falls short of the exact 2 nu_N + nu_1 for long chains)
        b_min = required_gradient(YB171, NU1, 2)
        dz = spacing_estimate(2, length_scale(YB171, NU1))
        shift = qubit_frequency_gradient(YB171, 0.0, b_min) * dz
        modes = normal_modes(equilibrium_positions(2), NU1)
        assert shift >= 2 * modes.nu[-1] + NU1

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_formula_encodes_linear_shift(self, n):
        # the closed form is exactly shift(b_min) * dz = nu1 (4.7 + N/2)
        b_min = required_gradient(YB171, NU1, n)
        dz = spacing_estimate(n, length_scale(YB171, NU1))
        shift = qubit_frequency_gradient(YB171, 0.0, b_min) * dz
        assert shift == pytest.approx(NU1 * (4.7 + 0.5 * n), rel=1e-9)

    def test_single_ion_rejected(self):
        with pytest.raises(ValueError):
            required_gradient(YB171, NU1, 1)


class TestCouplings:
    def test_zero_gradient_gives_zero(self):
        trap = TrapConfig(nu1=NU1, n_ions=4, b=0.0)
        _, j = spin_spin_couplings(YB171, trap)
        np.testing.assert_array_equal(j.j, np.zeros((4, 4)))

    def test_com_epsilon_value(self):
        trap = TrapConfig(nu1=NU1, n_ions=10, b=25.0)
        modes = normal_modes(equilibrium_positions(trap.n_ions), trap.nu1)
        grad = qubit_frequency_gradient(YB171, 0.0, 25.0)
        eps = epsilon_oracle(modes, grad, YB171)
        want = (1 / math.sqrt(10)) * ground_state_width(YB171, NU1) * grad / NU1
        np.testing.assert_allclose(eps[0], np.full(10, want), atol=1e-6)
        assert want == pytest.approx(0.019, rel=0.01)
        # the weak-field J is sum_n nu_n eps_ni eps_nj
        j = spin_spin_couplings(YB171, trap)[1].j
        assert np.max(np.abs(j - epsilon_coupling_oracle(modes, eps))) <= 1e-14 * np.max(np.abs(j))

    def test_microwave_epsilon_dominates(self):
        # the photon-recoil part coupling_matrix leaves out is < 1e-3 of eps
        modes = normal_modes(equilibrium_positions(5), NU1)
        grad = qubit_frequency_gradient(YB171, 0.0, 25.0)
        eps = epsilon_oracle(modes, grad, YB171)
        recoil_part = np.abs(lamb_dicke(0.024, YB171, modes.nu)[0][:, None]
                             * modes.s_matrix)
        assert np.max(recoil_part / np.abs(eps)) < 1e-3

    def test_huge_offset_field_gives_the_saturated_j(self):
        # with b0 >> the field where chi = 1, dw01/dz is twice its weak-field value
        traps = [TrapConfig(nu1=NU1, n_ions=2, b=25.0, b0=b0) for b0 in (1e100, 1e200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j100, j200 = (spin_spin_couplings(YB171, t, weak_field=False)[1].j for t in traps)
        np.testing.assert_array_equal(j200, j100)
        assert j100[0, 1] / (2 * math.pi) == pytest.approx(482.64, abs=0.01)

    def test_table_one_spot_values(self):
        trap = TrapConfig(nu1=NU1, n_ions=10, b=25.0)
        _, j = spin_spin_couplings(YB171, trap)
        j_hz = j.in_hz()
        assert j_hz[1, 0] == pytest.approx(54.61, rel=0.01)
        assert j_hz[9, 0] == pytest.approx(17.04, rel=0.01)

    def test_symmetry_and_palindrome(self):
        trap = TrapConfig(nu1=NU1, n_ions=10, b=25.0)
        _, j = spin_spin_couplings(YB171, trap)
        m = j.j
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.array_equal(np.diag(m), np.zeros(10))
        n = 10
        for i in range(n):
            for k in range(n):
                if i != k:
                    assert m[i, k] == pytest.approx(m[n - 1 - k, n - 1 - i], rel=1e-9)

    def test_gradient_squared_scaling(self):
        t1 = TrapConfig(nu1=NU1, n_ions=6, b=10.0)
        t2 = TrapConfig(nu1=NU1, n_ions=6, b=20.0)
        _, j1 = spin_spin_couplings(YB171, t1)
        _, j2 = spin_spin_couplings(YB171, t2)
        mask = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(j2.j[mask] / j1.j[mask], 4.0, rtol=1e-12)

    def test_amu_versus_kg_identical(self):
        # the registry's 171Yb+ is given as 170.936 u
        direct = Species(mass=170.936 * AMU, g_j=2.0, g_i=0.98734,
                         e_hfs=YB171.e_hfs, i_nuc=0.5)
        assert direct.mass == YB171.mass
        trap = TrapConfig(nu1=NU1, n_ions=5, b=25.0)
        _, j1 = spin_spin_couplings(direct, trap)
        _, j2 = spin_spin_couplings(YB171, trap)
        mask = ~np.eye(5, dtype=bool)
        np.testing.assert_allclose(j1.j[mask], j2.j[mask], rtol=1e-12)

    def test_inverse_hessian_oracle(self):
        # uniform gradient: J = (hbar grad^2 / 2 m nu1^2) [A^-1]_ij,
        # an independent route through the inverse dynamical matrix
        n = 7
        trap = TrapConfig(nu1=NU1, n_ions=n, b=25.0)
        _, j = spin_spin_couplings(YB171, trap)
        grad = qubit_frequency_gradient(YB171, 0.0, 25.0)
        a_inv = np.linalg.inv(numeric_hessian(equilibrium_positions(n)))
        want = sc.hbar * grad**2 / (2 * YB171.mass * NU1**2) * a_inv
        mask = ~np.eye(n, dtype=bool)
        np.testing.assert_allclose(j.j[mask], want[mask], rtol=1e-3)

    @pytest.mark.parametrize("n, weak_field, route", [
        *(pytest.param(n, weak, "inverse", id=f"{n}-{weak}")
          for n, weak in [(2, True), (10, True), (60, True), (150, True), (10, False)]),
        *(pytest.param(n, True, "mode_sum", id=f"{n}-True-mode_sum") for n in (2, 10, 60, 150))])
    def test_closed_form_inverse_hessian_oracle(self, n, weak_field, route):
        # J = hbar g_i g_j [A^-1]_ij / (2 m nu1^2) with the analytic Hessian A,
        # against the inverse oracle (no mode decomposition) and against the
        # paper's mode sum over nu_n eps_ni eps_nj, which under some BLAS kernels
        # is itself 1.1e-13 off at N = 150.  Off the weak-field limit the 0.3 T
        # offset field gives each ion its own g
        trap = TrapConfig(nu1=NU1, n_ions=n, b=25.0, b0=0.3)
        modes, j = spin_spin_couplings(YB171, trap, weak_field)
        b_at_ion = 0.0 if weak_field else 0.3 + 25.0 * modes.u * length_scale(YB171, NU1)
        grad = qubit_frequency_gradient(YB171, b_at_ion, 25.0)
        want = (inverse_hessian_coupling_oracle(modes.u, grad, YB171, NU1) if route == "inverse"
                else epsilon_coupling_oracle(modes, epsilon_oracle(modes, grad, YB171)))
        assert np.max(np.abs(j.j - want)) <= 1e-13 * np.max(np.abs(j.j))
        assert np.array_equal(j.j, j.j.T)
        assert np.array_equal(np.diag(j.j), np.zeros(n))

    def test_coupling_matrix_validation(self):
        with pytest.raises(ValueError):
            CouplingMatrix(j=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            CouplingMatrix(j=np.full((2, 2), np.nan))

    # the symmetry check is relative to max|J|, whatever its size in rad/s:
    # a 1e-3 rad/s J asymmetric by 5e-7 of its size is not symmetric, though
    # its entries are only 5e-10 rad/s apart
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("asymmetry, symmetric", [(0.5e-9, True), (2e-9, False),
                                                      (5e-7, False)])
    def test_coupling_matrix_symmetry_is_relative(self, scale, asymmetry, symmetric):
        j = scale * np.array([[0.0, 1.0], [1.0 + asymmetry, 0.0]])
        if symmetric:
            CouplingMatrix(j=j)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                CouplingMatrix(j=j)

    def test_coupling_matrix_all_zero_is_symmetric(self):
        np.testing.assert_array_equal(CouplingMatrix(j=np.zeros((3, 3))).j, np.zeros((3, 3)))

    @pytest.mark.parametrize("scale, message", [(1e200, "overflow"), (np.inf, "invalid")])
    def test_coupling_matrix_overflow_raises(self, scale, message):
        # a gradient 1e200 times too large overflows J; an infinite one
        # meets the zeros above L^-1's diagonal, 0 * inf
        u = equilibrium_positions(3)
        grad = qubit_frequency_gradient(YB171, 0.0, 25.0)
        with pytest.raises(FloatingPointError, match=message):
            coupling_matrix(u, grad * scale, YB171, NU1)

    def test_coupling_matrix_copies_the_callers_array(self):
        j = np.array([[0.0, 1.0], [1.0, 0.0]])
        coupling = CouplingMatrix(j=j)
        assert j.flags.writeable
        j[0, 1] = 9.0
        np.testing.assert_array_equal(coupling.j, [[0.0, 1.0], [1.0, 0.0]])


class TestConfigTypes:
    def test_trap_validation(self):
        with pytest.raises(ValueError):
            TrapConfig(nu1=0.0, n_ions=2)
        with pytest.raises(ValueError):
            TrapConfig(nu1=NU1, n_ions=0)
        with pytest.raises(ValueError):
            TrapConfig(nu1=NU1, n_ions=2, b=-1.0)

    def test_species_validation(self):
        with pytest.raises(ValueError):
            Species(mass=-1.0, g_j=2.0, g_i=0.0, e_hfs=0.0, i_nuc=0.5)
        with pytest.raises(ValueError):
            Species(mass=1.0, g_j=2.0, g_i=0.0, e_hfs=-1.0, i_nuc=0.5)

    def test_normal_modes_carry_physical_positions(self):
        # positions are kept in units of zeta only: u * zeta is in meters
        modes = normal_modes(equilibrium_positions(2), NU1)
        assert isinstance(modes, ChainModes)
        assert [f.name for f in dataclasses.fields(modes)] == ["u", "nu", "s_matrix"]
        zeta = length_scale(YB171, NU1)
        np.testing.assert_allclose(np.diff(modes.u * zeta), 2 ** (1 / 3) * zeta, rtol=1e-12)
