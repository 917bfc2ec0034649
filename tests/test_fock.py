import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwave import fock
from entwave.ccwt import forward
from entwave.errors import ConvergenceError, EntwaveError
from entwave.fock import (
    TwoModeFockState,
    coherent_state_eta,
    _basis_table,
    completeness_gram,
    number_state_eta,
    parse_state_descriptor,
    state_field,
    u2_matrix_element,
    unit_norm_field,
    xi_eta_overlap,
    xi_eta_overlap_fock,
)
from entwave.grid import ComplexPlaneGrid, Field, ScaleGrid, integrate, sample
from entwave.specfun import HERMITE_ORDER_CAP, OrderOverflowError, hermite2, hermite_functions
from entwave.wavelets import emhw


def number_state_multinomial_oracle(m, n, eta):
    """Coefficient of |m,n> in the series expansion of the eigenket.

    Expands exp(eta a1+ - eta* a2+ + a1+ a2+)|00> over the three exponent
    terms directly: indices (i, j, k) with i + k = m, j + k = n contribute
    eta^i (-eta*)^j / (i! j! k!) sqrt(m! n!).  Conjugated to give <eta|m,n>.
    """
    total = 0.0j
    for k in range(min(m, n) + 1):
        i, j = m - k, n - k
        total += eta**i * (-np.conj(eta)) ** j / (
            math.factorial(i) * math.factorial(j) * math.factorial(k)
        )
    coeff = math.exp(-0.5 * abs(eta) ** 2) * math.sqrt(
        math.factorial(m) * math.factorial(n)
    ) * total
    return np.conj(coeff)


def test_number_state_vacuum():
    for eta in (0.0, 1.2 - 0.7j, 2.5j):
        assert number_state_eta(0, 0, eta) == pytest.approx(
            math.exp(-0.5 * abs(complex(eta)) ** 2)
        )


def test_number_state_1_1():
    for eta in (0.3 + 0.1j, 1.5, -2.0j):
        t = abs(complex(eta)) ** 2
        expected = math.exp(-0.5 * t) * (1 - t)
        assert number_state_eta(1, 1, eta) == pytest.approx(expected, rel=1e-12)


def test_number_state_matches_multinomial_expansion():
    rng = np.random.default_rng(21)
    for m in range(7):
        for n in range(7):
            for _ in range(10):
                eta = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                lhs = number_state_eta(m, n, eta)
                rhs = number_state_multinomial_oracle(m, n, eta)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-12)


def test_number_state_normalization():
    grid = ComplexPlaneGrid.centered(256, 8.0)
    for m in range(4):
        for n in range(4):
            f = sample(lambda e: number_state_eta(m, n, e), grid)
            norm = integrate(Field(grid, np.abs(f.values) ** 2), "d2_over_pi")
            assert abs(norm - 1.0) <= 1e-6


def test_diagonal_states_radial():
    radii = (0.5, 1.8)
    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
    for n in (1, 2, 4):
        for r in radii:
            mags = np.abs(number_state_eta(n, n, r * phases))
            assert mags.max() - mags.min() <= 1e-12


def test_coherent_vacuum_limit():
    for eta in (0.0, 0.9 + 0.4j):
        assert coherent_state_eta(0.0, 0.0, eta) == pytest.approx(
            math.exp(-0.5 * abs(complex(eta)) ** 2), rel=1e-12
        )


def test_coherent_series_matches_closed_form():
    # closed form from normal ordering:
    # exp(-|eta|^2/2 - (|z1|^2+|z2|^2)/2 + eta* z1 - eta z2 + z1 z2)
    rng = np.random.default_rng(12)
    for _ in range(12):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        series = coherent_state_eta(z1, z2, eta)
        closed = np.exp(
            -0.5 * abs(eta) ** 2
            - 0.5 * (abs(z1) ** 2 + abs(z2) ** 2)
            + np.conj(eta) * z1
            - eta * z2
            + z1 * z2
        )
        assert abs(series - closed) <= 1e-9


def test_coherent_origin_magnitude():
    rng = np.random.default_rng(13)
    for _ in range(6):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        expected = math.exp(
            -0.5 * (abs(z1) ** 2 + abs(z2) ** 2) + (z1 * z2).real
        )
        assert abs(coherent_state_eta(z1, z2, 0.0)) == pytest.approx(expected, rel=1e-10)


def test_coherent_series_cap():
    with pytest.raises(ConvergenceError):
        coherent_state_eta(9.0, 0.0, 0.0)
    with pytest.raises(ConvergenceError):
        parse_state_descriptor("coherent:9,0,0,0")


def _unguarded_coherent_order(a1, a2, tol):
    """The series order as chosen before overflowing terms were caught."""
    a = max(a1, a2, 1e-6)
    for order in range(8, fock._SERIES_ORDER_CAP + 1):
        if a**order / math.sqrt(math.factorial(order)) < 0.01 * tol:
            return order
    raise ConvergenceError("cap")


def test_coherent_order_is_unchanged_wherever_no_term_overflows():
    # an overflowing term counts as not converged, so the call ends in
    # ConvergenceError; every other amplitude keeps its order, or its error
    amplitudes = np.concatenate([np.geomspace(1e-9, 1e300, 601), [0.0, 5.0, 7.5, 9.0, 30.0,
                                                                   1.3e5, 1e200, 1e308]])
    overflowed = 0
    for a in amplitudes.tolist():
        for tol in (1e-10, 1e-6):
            try:
                expected = _unguarded_coherent_order(a, 0.5 * a, tol)
            except (ConvergenceError, OverflowError) as exc:
                overflowed += isinstance(exc, OverflowError)
                with pytest.raises(ConvergenceError, match="series cap"):
                    fock._coherent_order(a, 0.5 * a, tol)
            else:
                assert fock._coherent_order(a, 0.5 * a, tol) == expected
                assert fock._coherent_order(0.5 * a, a, tol) == expected
    assert overflowed > 0
    with pytest.raises(ConvergenceError):
        parse_state_descriptor("coherent:1e200,0,0,0")


def test_xi_eta_overlap_values():
    assert xi_eta_overlap(0.0, 0.0) == 0.5
    rng = np.random.default_rng(14)
    for _ in range(10):
        xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        eta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        val = xi_eta_overlap(xi, eta)
        assert abs(abs(val) - 0.5) <= 1e-14
        assert val == pytest.approx(np.conj(xi_eta_overlap(eta, xi)), rel=1e-14)
        phase = (xi.real * eta.imag - xi.imag * eta.real)
        assert val == pytest.approx(0.5 * np.exp(1j * phase), rel=1e-13)


def test_xi_eta_fock_resummation_converges():
    rng = np.random.default_rng(15)
    pts = [(0.0 + 0.0j, 0.0 + 0.0j), (2.0 + 0.0j, -2.0j), (2.0 + 0.0j, 2.0 + 0.0j)]
    for _ in range(8):
        pts.append(
            (
                complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)),
                complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)),
            )
        )
    for xi, eta in pts:
        err = abs(xi_eta_overlap_fock(xi, eta, 40, 16) - xi_eta_overlap(xi, eta))
        assert err <= 1e-6


def test_xi_eta_fock_raw_sum_oscillates():
    # the eigenkets are non-normalizable: at xi = eta = 0 the raw square
    # partial sums alternate between 1 and 0, which is why the averaged
    # resummation exists
    assert xi_eta_overlap_fock(0.0, 0.0, 40, 0) == pytest.approx(1.0)
    assert xi_eta_overlap_fock(0.0, 0.0, 39, 0) == pytest.approx(0.0, abs=1e-15)


def test_xi_eta_fock_guards():
    with pytest.raises(ValueError):
        xi_eta_overlap_fock(0.0, 0.0, 0)
    with pytest.raises(ValueError):
        xi_eta_overlap_fock(0.0, 0.0, 10, 11)


def _basis_mpmath(eta, cutoff):
    """<eta|m,n> for m, n <= cutoff from the raising recurrence of H_{m,n}(conj(eta), eta).

    H_{0,n} = y^n and H_{m+1,n} = x H_{m,n} - n H_{m,n-1}, run at the working
    precision of mpmath; it cancels badly in double precision.
    """
    e = mpmath.mpc(eta)
    x = mpmath.conj(e)
    h = [[e**n for n in range(cutoff + 1)]]
    for _ in range(cutoff):
        h.append([x * h[-1][n] - (n * h[-1][n - 1] if n else 0) for n in range(cutoff + 1)])
    gauss = mpmath.exp(-abs(e) ** 2 / 2)
    root = [mpmath.sqrt(mpmath.factorial(k)) for k in range(cutoff + 1)]
    return [[gauss * (-1) ** n * h[m][n] / (root[m] * root[n]) for n in range(cutoff + 1)]
            for m in range(cutoff + 1)]


def _xi_eta_resummation_mpmath(xi, eta, cutoff, averaging, dps=60):
    """The square partial sums and iterated means of xi_eta_overlap_fock, in mpmath."""
    with mpmath.workdps(dps):
        bx, be = _basis_mpmath(xi, cutoff), _basis_mpmath(eta, cutoff)

        def term(m, n):
            return (-1) ** n * bx[m][n] * mpmath.conj(be[m][n])

        partial, total = [], mpmath.mpc(0)
        for size in range(cutoff + 1):
            total += term(size, size) + mpmath.fsum(term(m, size) + term(size, m)
                                                    for m in range(size))
            partial.append(total)
        for _ in range(averaging):
            partial = [(a + b) / 2 for a, b in zip(partial[1:], partial[:-1])]
        return complex(partial[-1])


def _radial_draws(seed, count, radius):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, radius, count) * np.exp(2j * np.pi * rng.uniform(size=count))


def test_basis_table_matches_high_precision_reference():
    etas = _radial_draws(3, 6, 4.5)
    table = _basis_table(etas, 60)
    assert table.shape == (61, 61, 6)
    for p, eta in enumerate(etas):
        with mpmath.workdps(60):
            ref = np.array([[complex(v) for v in row] for row in _basis_mpmath(eta, 60)])
        assert np.abs(table[..., p] - ref).max() <= 1e-13


def test_xi_eta_fock_resummation_matches_high_precision_reference():
    # the raw H_{m,n} tables the resummation used to multiply lost up to
    # 1e-7 of the truncated, averaged sum to cancellation at these radii
    xis, etas = _radial_draws(0, 4, 4.5), _radial_draws(1, 4, 4.5)
    pairs = [*zip(xis, etas), (4.2 * np.exp(0.3j), 3.9 * np.exp(2.1j))]
    for xi, eta in pairs:
        ref = _xi_eta_resummation_mpmath(xi, eta, 60, 24)
        assert abs(xi_eta_overlap_fock(xi, eta, 60, 24) - ref) <= 1e-13


def test_u2_matrix_element_values():
    grid = ComplexPlaneGrid.centered(128, 8.0)
    vac = sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2), grid)
    assert u2_matrix_element(emhw(), vac, 1.0, 0.0) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        u2_matrix_element(emhw(), vac, -1.0, 0.0)


def test_u2_equals_forward_at_nodes():
    square = ComplexPlaneGrid.centered(64, 8.0)
    vac = sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2), square)
    # off-centre and asymmetric under x <-> y on a rectangular, offset grid
    rect = ComplexPlaneGrid(40, 56, -8.0, -9.0, 17.0 / 39, 17.0 / 55)
    skew = sample(lambda e: (1 + 0.3 * e) * np.exp(-0.5 * np.abs(e - (1.2 - 0.7j)) ** 2), rect)
    rng = np.random.default_rng(16)
    scales = ScaleGrid(np.geomspace(0.5, 4.0, 4))
    for g in (vac, skew):
        coeffs = forward(g, emhw(), scales)
        nodes = g.grid.nodes()
        plane_scale = np.abs(coeffs.values).max(axis=(1, 2))
        for _ in range(100):
            s = rng.integers(0, 4)
            i = rng.integers(0, g.grid.nx)
            j = rng.integers(0, g.grid.ny)
            direct = u2_matrix_element(emhw(), g, scales.mu_values[s], nodes[i, j])
            engine = coeffs.values[s, i, j]
            assert abs(direct - engine) <= 1e-14 * plane_scale[s]


def test_u2_large_scale_dilution():
    grid = ComplexPlaneGrid.centered(128, 8.0)
    vac = sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2), grid)
    v4 = abs(u2_matrix_element(emhw(), vac, 4.0, 0.0))
    v8 = abs(u2_matrix_element(emhw(), vac, 8.0, 0.0))
    assert v8 < v4


def test_completeness_gram_cutoff3():
    gram = completeness_gram(3, ComplexPlaneGrid.centered(256, 8.0))
    assert gram.shape == (16, 16)
    assert np.abs(gram - np.eye(16)).max() <= 1e-6
    assert np.abs(np.diag(gram) - 1.0).max() <= 1e-6
    # (0,0) state against (1,1) state sits at flat index 5
    assert abs(gram[0, 5]) <= 1e-6


def test_completeness_gram_order_cap():
    # cutoff 61 reaches m + n = 122 > HERMITE_ORDER_CAP; it is refused before any grid work
    with pytest.raises(OrderOverflowError):
        completeness_gram(61, ComplexPlaneGrid.centered(9, 4.0))
    with pytest.raises(ValueError):
        completeness_gram(-1, ComplexPlaneGrid.centered(9, 4.0))


def test_two_mode_state_validation():
    good = TwoModeFockState.number(1, 1, cutoff=2)
    assert good.coeffs[1, 1] == 1.0
    with pytest.raises(ValueError):
        TwoModeFockState(1, np.full((2, 2), 1.0, dtype=complex))
    with pytest.raises(ValueError):
        TwoModeFockState(2, np.zeros((2, 2), dtype=complex))


@pytest.mark.parametrize("make", [
    lambda: TwoModeFockState.number(-1, 0),  # c[-1, 0] used to wrap round to the vacuum
    lambda: TwoModeFockState.number(0, -2, cutoff=3),
    lambda: TwoModeFockState.number(2, 3, cutoff=1),  # used to raise IndexError
    lambda: TwoModeFockState.number(0, 0, cutoff=-1),
    lambda: TwoModeFockState.coherent(0.5, 0.3, cutoff=-1),  # used to be an empty state
    lambda: TwoModeFockState(-1, np.zeros((0, 0))),
    # non-finite amplitudes used to be reported as too large for the series cap
    lambda: TwoModeFockState.coherent(math.nan, 0.3),
    lambda: TwoModeFockState.coherent(0.5, complex(0, -math.inf), cutoff=4),
], ids=["negative-m", "negative-n", "above-cutoff", "number-cutoff", "coherent-cutoff",
        "bare-cutoff", "nan-amplitude", "inf-amplitude"])
def test_two_mode_state_rejects_bad_indices_and_cutoffs(make):
    with pytest.raises(ValueError, match="cutoff|indices|amplitudes must be finite"):
        make()


def test_two_mode_number_state_at_the_cutoff_edge():
    state = TwoModeFockState.number(0, 3, cutoff=3)
    assert state.coeffs.shape == (4, 4) and state.coeffs[0, 3] == 1.0


def test_two_mode_state_eta_field():
    grid = ComplexPlaneGrid.centered(48, 8.0)
    state = TwoModeFockState.coherent(0.4, -0.2 + 0.1j)
    f = state.eta_field(grid)
    direct = sample(lambda e: coherent_state_eta(0.4, -0.2 + 0.1j, e), grid)
    assert np.abs(f.values - direct.values).max() <= 1e-9


def _random_state(cutoff, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(cutoff + 1,) * 2) + 1j * rng.normal(size=(cutoff + 1,) * 2)
    return TwoModeFockState(cutoff, c / np.linalg.norm(c))


def _eta_series_mpmath(coeffs, eta, dps=60):
    """sum c_mn <eta|m,n> from the H_{m,n} series, summed with ``dps`` digits."""
    size = coeffs.shape[0]
    fact = [math.factorial(k) for k in range(size)]
    with mpmath.workdps(dps):
        e = mpmath.mpc(eta.real, eta.imag)
        xp = [mpmath.conj(e) ** k for k in range(size)]
        yp = [e**k for k in range(size)]
        total = mpmath.mpc(0)
        for m in range(size):
            for n in range(size):
                h = mpmath.fsum((-1) ** k * math.comb(m, k) * math.comb(n, k) * fact[k]
                                * xp[m - k] * yp[n - k] for k in range(min(m, n) + 1))
                c = mpmath.mpc(coeffs[m, n].real, coeffs[m, n].imag)
                total += c * (-1) ** n * h / mpmath.sqrt(fact[m] * fact[n])
        return complex(mpmath.exp(-abs(e) ** 2 / 2) * total)


@pytest.mark.parametrize("cutoff", [20, 30])
def test_eta_field_matches_high_precision_reference(cutoff):
    # summed in double precision, the H_{m,n} monomial series loses 3e-9
    # (cutoff 20) and 3e-4 (cutoff 30) of max |g| to cancellation
    state = _random_state(cutoff, 1000 + cutoff)
    grid = ComplexPlaneGrid.centered(49, 6.0)
    picks = np.random.default_rng(cutoff).choice(grid.nx * grid.ny, 20, replace=False)
    got = state.eta_field(grid).values.ravel()[picks]
    ref = np.array([_eta_series_mpmath(state.coeffs, e) for e in grid.nodes().ravel()[picks]])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=25, deadline=None)
@given(cutoff=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_eta_field_is_sum_of_number_states(cutoff, seed):
    grid = ComplexPlaneGrid.centered(9, 5.0)
    nodes = grid.nodes()
    state = _random_state(cutoff, seed)
    total = np.zeros_like(nodes)
    for m in range(cutoff + 1):
        for n in range(cutoff + 1):
            basis = number_state_eta(m, n, nodes)
            definition = (np.exp(-0.5 * np.abs(nodes) ** 2) * (-1) ** n
                          * hermite2(m, n, np.conj(nodes), nodes)
                          / math.sqrt(math.factorial(m) * math.factorial(n)))
            assert np.abs(basis - definition).max() <= 1e-10
            total += state.coeffs[m, n] * basis
    assert np.abs(state.eta_field(grid).values - total).max() <= 1e-12


_amplitude = st.builds(lambda r, phase: r * np.exp(1j * phase),
                       st.floats(0.0, 3.0), st.floats(0.0, 2 * np.pi))


@settings(max_examples=20, deadline=None)
@given(z1=_amplitude, z2=_amplitude)
def test_coherent_fields_match_closed_form(z1, z2):
    # |z| <= 3 reaches series orders up to the cap of 60
    grid = ComplexPlaneGrid.centered(33, 8.0)
    nodes = grid.nodes()
    closed = np.exp(z1 * np.conj(nodes) - z2 * nodes + z1 * z2
                    - 0.5 * (np.abs(nodes) ** 2 + abs(z1) ** 2 + abs(z2) ** 2))
    assert np.abs(coherent_state_eta(z1, z2, nodes) - closed).max() <= 1e-12
    field = TwoModeFockState.coherent(z1, z2).eta_field(grid)
    assert np.abs(field.values - closed).max() <= 1e-12


def test_number_state_rejects_negative_indices():
    for m, n in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError):
            number_state_eta(m, n, 0.5)


def test_fock_orders_above_cap_rejected():
    # a library error (exit 3 through the CLI) that existing ValueError handlers still catch
    assert issubclass(OrderOverflowError, EntwaveError)
    assert issubclass(OrderOverflowError, ValueError)
    for m, n in ((HERMITE_ORDER_CAP + 1, 0), (0, 200), (5000, 5000)):
        with pytest.raises(OrderOverflowError):
            number_state_eta(m, n, 0.5)
    with pytest.raises(OrderOverflowError):  # before the 10^12-entry matrix is allocated
        TwoModeFockState.number(10**6, 0)
    # an explicit cutoff is checked too: it used to end in a MemoryError (14.6 TiB)
    # or, for a coherent state, a bare OverflowError; a chosen one is sized by the state
    cap = HERMITE_ORDER_CAP // 2
    for cutoff in (cap + 1, 200, 10**6):
        for make in (TwoModeFockState.number, TwoModeFockState.coherent):
            with pytest.raises(OrderOverflowError):
                make(0, 0, cutoff=cutoff)
    assert TwoModeFockState.coherent(0.5, 0.3, cutoff=cap).cutoff == cap
    assert TwoModeFockState.number(100, 0).cutoff == 100
    assert np.isfinite(number_state_eta(HERMITE_ORDER_CAP, 0, 0.5))
    # a wide coefficient matrix is evaluated on its support only
    grid = ComplexPlaneGrid.centered(17, 6.0)
    c = np.zeros((201, 201), dtype=complex)
    c[:4, :3] = np.arange(12).reshape(4, 3) / 30
    wide = TwoModeFockState(200, c).eta_field(grid).values
    assert np.array_equal(wide, TwoModeFockState(3, c[:4, :4]).eta_field(grid).values)
    c[150, 0] = 0.1
    with pytest.raises(OrderOverflowError):
        TwoModeFockState(200, c).eta_field(grid)


def test_state_descriptors():
    number = parse_state_descriptor("number:2,3")
    assert isinstance(number, TwoModeFockState) and number.cutoff == 3
    assert np.array_equal(number.coeffs, np.outer(np.eye(4)[2], np.eye(4)[3]))
    coherent = parse_state_descriptor("coherent:0.5,0,0.3,0")
    assert coherent.cutoff == TwoModeFockState.coherent(0.5, 0.3).cutoff
    size = coherent.cutoff + 1
    closed = [[math.exp(-0.17) * 0.5**m * 0.3**n / math.sqrt(math.factorial(m) * math.factorial(n))
               for n in range(size)] for m in range(size)]
    assert np.abs(coherent.coeffs - closed).max() <= 1e-15
    for bad in ("number:1", "number:a,b", "number:-1,0", "coherent:1,2",
                "squeezed:1,2", "number"):
        with pytest.raises(ValueError):
            parse_state_descriptor(bad)


def test_coherent_tail_checked_only_for_a_chosen_cutoff(monkeypatch):
    monkeypatch.setattr(fock, "_coherent_order", lambda a1, a2, tol: 2)
    with pytest.raises(ConvergenceError, match="series tail"):
        TwoModeFockState.coherent(0.5, 0.3)
    with pytest.raises(ConvergenceError, match="series tail"):
        coherent_state_eta(0.5, 0.3, 0.0)
    assert TwoModeFockState.coherent(0.5, 0.3, cutoff=2).cutoff == 2


def test_state_field_samples_the_parsed_state():
    grid = ComplexPlaneGrid.centered(33, 6.0)
    for descriptor in ("number:2,3", "coherent:0.31,-0.2,0.1,0.44"):
        state = parse_state_descriptor(descriptor)
        field = state_field(descriptor, grid)
        assert field.grid == grid
        assert np.array_equal(field.values, state.eta_field(grid).values)
    eta = grid.nodes()
    assert np.array_equal(number_state_eta(2, 3, eta),
                          TwoModeFockState.number(2, 3).eta_field(grid).values)
    assert np.array_equal(coherent_state_eta(0.5, 0.3, eta),
                          TwoModeFockState.coherent(0.5, 0.3).eta_field(grid).values)


def test_state_field_and_unit_norm():
    grid = ComplexPlaneGrid.centered(96, 8.0)
    vac = state_field("number:0,0", grid)
    direct = sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2), grid)
    assert np.abs(vac.values - direct.values).max() <= 1e-12
    unit = unit_norm_field("number:1,1", grid)
    norm = integrate(Field(grid, np.abs(unit.values) ** 2), "d2_over_pi")
    assert norm.real == pytest.approx(1.0, abs=1e-12)


def _shell_values(shell, m, eta):
    """sum_a T[a, m] h_a(x) h_(N-a)(y): the Cartesian form of <eta|m, N-m>."""
    a = np.arange(shell + 1)
    hx, hy = hermite_functions(eta.real, shell + 1), hermite_functions(eta.imag, shell + 1)
    return np.einsum("a,ap,ap->p", fock._shell_map(shell)[:, m], hx, hy[shell - a])


def test_shell_map_matches_basis_table():
    etas = _radial_draws(7, 12, 4.5)
    table = _basis_table(etas, 40)
    for m in range(41):
        for n in range(41 - m):
            assert np.abs(_shell_values(m + n, m, etas) - table[m, n]).max() <= 1e-14
    # high shells, where the radial table is the reference at random rows
    etas = _radial_draws(8, 8, 9.0)
    table = _basis_table(etas, 60)
    rng = np.random.default_rng(9)
    for shell in range(100, 121):
        rows = np.arange(shell - 60, 61)
        for m in rng.choice(rows, min(3, rows.size), replace=False):
            got = _shell_values(shell, m, etas)
            assert np.abs(got - table[m, shell - m]).max() <= 1e-13


def test_shell_map_is_exact_kravchuk():
    # K[a, m] against the alternating binomial sum, in exact integers; T^H T = pi I
    for shell in (0, 1, 7, 30, 120):
        t = fock._shell_map(shell)
        assert not t.flags.writeable
        for a in range(0, shell + 1, max(1, shell // 6)):
            for m in range(0, shell + 1, max(1, shell // 5)):
                k = sum((-1) ** (a - j) * math.comb(a, j) * math.comb(shell - a, m - j)
                        for j in range(max(0, m - shell + a), min(a, m) + 1))
                exact = Fraction(k * k * math.comb(shell, a), math.comb(shell, m) * 2**shell)
                assert abs(t[a, m]) ** 2 / math.pi == pytest.approx(float(exact), rel=1e-14,
                                                                   abs=1e-300)
                assert (t[a, m] == 0) == (k == 0)
        assert np.abs(t.conj().T @ t - math.pi * np.eye(shell + 1)).max() <= 1e-12


def test_shell_maps_are_built_lazily():
    code = ("import entwave.fock as f; assert f._shell_map.cache_info().currsize == 0; "
            "f.TwoModeFockState.number(2, 1).cartesian(); "
            "assert f._shell_map.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("cutoff", [0, 3, 12])
def test_cartesian_norm_and_support(cutoff):
    state = _random_state(cutoff, 40 + cutoff)
    g = state.cartesian()
    assert g.shape == (2 * cutoff + 1,) * 2
    assert np.sum(np.abs(g) ** 2) == pytest.approx(math.pi, rel=1e-14)
    # a state on shells 2 and 5 only: G is zero off them
    c = np.zeros((4, 4), dtype=complex)
    c[1, 1], c[2, 3], c[3, 2] = 0.6, 0.3j, -0.4
    g = TwoModeFockState(3, c).cartesian()
    a, b = np.indices(g.shape)
    assert g.shape == (6, 6)
    assert not g[(a + b != 2) & (a + b != 5)].any()
    assert np.sum(np.abs(g) ** 2) == pytest.approx(math.pi * np.sum(np.abs(c) ** 2), rel=1e-14)


@pytest.mark.parametrize("grid", [ComplexPlaneGrid.centered(41, 7.0),
                                  ComplexPlaneGrid(41, 29, -7.0, -5.5, 0.35, 0.4)],
                         ids=["square", "rectangular"])
def test_cartesian_reproduces_the_state_and_the_points(grid):
    for state in (_random_state(9, 3), TwoModeFockState.coherent(0.8 - 0.3j, 0.4j)):
        field = state.eta_field(grid).values
        table = _basis_table(grid.nodes(), state.cutoff)
        assert np.abs(field - np.einsum("mn,mnp->p", state.coeffs, table.reshape(
            *table.shape[:2], -1)).reshape(field.shape)).max() <= 1e-14
        # the point-by-point evaluation is the grid's, bit for bit
        assert np.array_equal(fock._state_points(state, grid.nodes()), field)


@pytest.mark.parametrize("n", range(11))
def test_diagonal_number_fields_are_exactly_real(n):
    grid = ComplexPlaneGrid.centered(64, 8.0)
    assert not TwoModeFockState.number(n, n).eta_field(grid).values.imag.any()
    assert not TwoModeFockState.number(n, n).cartesian().imag.any()
    # real coefficients on the diagonal give a real G and a real field by the Cartesian sum
    c = np.diag(np.linspace(1, 2, n + 2)) / 8
    state = TwoModeFockState(n + 1, c)
    assert not state.cartesian().imag.any()
    assert not state.eta_field(grid).values.imag.any()
