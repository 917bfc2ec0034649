import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwave.errors import (
    BoundaryDecayError,
    FileFormatError,
    NonAdmissibleError,
)
from entwave.fock import number_state_eta, xi_eta_overlap
from entwave.grid import ComplexPlaneGrid, integrate, sample
from entwave.specfun import hermite2, laguerre_series
from entwave.verify import oracle_gaussian_integral
from entwave.wavelets import (
    MotherWavelet,
    admissibility_defect,
    c_psi_prime,
    emhw,
    eval_wavelet,
    fourier_closed,
    is_admissible,
    laguerre_gaussian,
    mexican_hat,
    symplectic_fourier,
    wavelet_from_text,
    wavelet_to_text,
)


def random_admissible(rng, order):
    """Random K_n projected onto the admissibility constraint, unit energy."""
    v = np.array([(-1.0) ** n * math.factorial(n) for n in range(order + 1)])
    k = rng.uniform(-1, 1, size=order + 1)
    k -= v * (v @ k) / (v @ v)
    return laguerre_gaussian(k).normalized()


def test_emhw_values():
    w = emhw()
    assert eval_wavelet(w, 0.0) == pytest.approx(1.0)
    assert eval_wavelet(w, math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert eval_wavelet(w, 1j * math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-15)


def test_lg_half_half_equals_emhw():
    # (1/2) L_0 + (1/2) 1! L_1(t) = 1 - t/2; EMHW is summed by the same series path
    w_lg = laguerre_gaussian([0.5, 0.5])
    w_m = emhw()
    rng = np.random.default_rng(0)
    eta = rng.uniform(-3, 3, size=50) + 1j * rng.uniform(-3, 3, size=50)
    radial = np.sqrt(np.linspace(0.0, 50.0, 200_001))
    for points in (eta, radial):
        assert np.array_equal(eval_wavelet(w_lg, points), eval_wavelet(w_m, points))
    t = np.abs(radial) ** 2
    assert np.allclose(eval_wavelet(w_m, radial), np.exp(-0.5 * t) * (1.0 - 0.5 * t),
                       rtol=1e-13, atol=1e-16)
    assert np.allclose(fourier_closed(w_lg, eta), fourier_closed(w_m, eta),
                       rtol=1e-13, atol=1e-16)


def test_fourier_closed_emhw_values():
    w = emhw()
    assert fourier_closed(w, 0.0) == pytest.approx(0.0, abs=1e-15)
    # at |xi|^2 = 2 the closed form is exp(-1)
    assert fourier_closed(w, math.sqrt(2.0)) == pytest.approx(math.exp(-1), rel=1e-12)


def test_fourier_closed_radial():
    w = emhw()
    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
    vals = fourier_closed(w, 1.7 * phases)
    assert np.max(np.abs(vals - vals[0])) <= 1e-12


def test_fourier_closed_emhw_nonnegative():
    r = np.linspace(0.01, 10, 500)
    vals = fourier_closed(emhw(), r).real
    assert np.all(vals > 0)


@pytest.fixture(scope="module")
def emhw_samples():
    return sample(lambda e: eval_wavelet(emhw(), e),
                  ComplexPlaneGrid.centered(256, 8.0))


def test_symplectic_fourier_matches_closed(emhw_samples):
    xi_grid = ComplexPlaneGrid.centered(81, 4.0)
    numeric = symplectic_fourier(emhw_samples, xi_grid)
    closed = sample(lambda x: fourier_closed(emhw(), x), xi_grid)
    assert np.abs(numeric.values - closed.values).max() <= 1e-4


def test_symplectic_fourier_zero_field():
    g = ComplexPlaneGrid.centered(32, 6.0)
    zero = sample(lambda e: np.zeros_like(e), g)
    out = symplectic_fourier(zero, ComplexPlaneGrid.centered(9, 2.0))
    assert np.all(out.values == 0)


def test_symplectic_fourier_gaussian():
    # expected transform derived from the Gaussian integral identity:
    # psi(xi) = (1/2) * oracle(-1/2, conj(xi)/2, -xi/2) = exp(-|xi|^2/2)
    g = ComplexPlaneGrid.centered(256, 8.0)
    gauss = sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2), g)
    xi_grid = ComplexPlaneGrid.centered(41, 3.0)
    numeric = symplectic_fourier(gauss, xi_grid)
    for i, j in [(20, 20), (25, 22), (10, 30)]:
        xi_node = xi_grid.x[i] + 1j * xi_grid.y[j]
        expected = 0.5 * oracle_gaussian_integral(-0.5, np.conj(xi_node) / 2, -xi_node / 2)
        assert numeric.values[i, j] == pytest.approx(complex(expected), abs=1e-10)
        assert abs(expected - np.exp(-0.5 * abs(xi_node) ** 2)) <= 1e-14


def test_symplectic_fourier_boundary_guard():
    g = ComplexPlaneGrid.centered(32, 3.0)  # emhw is ~1e-4 at |eta|=3
    f = sample(lambda e: eval_wavelet(emhw(), e), g)
    with pytest.raises(BoundaryDecayError):
        symplectic_fourier(f, ComplexPlaneGrid.centered(9, 2.0))


def test_random_admissible_fourier_property():
    rng = np.random.default_rng(2024)
    grid = ComplexPlaneGrid.centered(256, 12.0)
    xi_grid = ComplexPlaneGrid.centered(41, 4.0)
    for order in (2, 3, 4):
        w = random_admissible(rng, order)
        f = sample(lambda e: eval_wavelet(w, e), grid)
        numeric = symplectic_fourier(f, xi_grid)
        closed = sample(lambda x: fourier_closed(w, x), xi_grid)
        assert np.abs(numeric.values - closed.values).max() <= 1e-4


def test_admissibility_defect_closed_forms():
    assert admissibility_defect(emhw()) == 0
    assert admissibility_defect(laguerre_gaussian([1.0])) == 1.0
    assert admissibility_defect(laguerre_gaussian([0.5, 0.5])) == 0
    assert is_admissible(emhw())
    assert not is_admissible(laguerre_gaussian([1.0]))


def test_admissibility_defect_quadrature_agreement():
    rng = np.random.default_rng(6)
    grid = ComplexPlaneGrid.centered(256, 12.0)
    for w in [emhw(), laguerre_gaussian([1.0]), random_admissible(rng, 3)]:
        f = sample(lambda e: eval_wavelet(w, e), grid)
        quad = admissibility_defect(f)
        assert abs(quad - admissibility_defect(w)) <= 1e-6


def test_c_psi_prime_emhw():
    # int_0^inf t^3 e^{-t^2} dt = 1/2 (Gamma oracle); the two-node rule hits it exactly
    assert c_psi_prime(emhw()) == 0.5


def test_c_psi_prime_quadratic_scaling():
    w = laguerre_gaussian([0.5, 0.5])
    a = 1.7
    assert c_psi_prime(w.scaled(a)) == pytest.approx(a * a * c_psi_prime(w), rel=1e-9)


def test_rescaled_admissible_wavelet_is_admissible_and_transforms():
    from entwave.ccwt import forward_fast
    from entwave.grid import ScaleGrid

    w = random_admissible(np.random.default_rng(4), 8)
    big = w.scaled(1e4)
    # the defect scales with K_n: an absolute 1e-12 would refuse this wavelet
    assert abs(admissibility_defect(big)) > 1e-12
    assert is_admissible(big)
    assert c_psi_prime(big) == pytest.approx(1e8 * c_psi_prime(w), rel=1e-12)
    grid = ComplexPlaneGrid.centered(32, 8.0)
    g = sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2), grid)
    scales = ScaleGrid.log_spaced(4, 0.5, 2.0)
    small, large = (forward_fast(g, v, scales).values for v in (w, big))
    assert np.abs(large - 1e4 * small).max() <= 1e-12 * np.abs(large).max()
    # a non-admissible wavelet stays refused at any scale
    for a in (1e-20, 1.0, 1e20):
        assert not is_admissible(laguerre_gaussian([1.0]).scaled(a))


def test_c_psi_prime_rejects_nonadmissible():
    with pytest.raises(NonAdmissibleError):
        c_psi_prime(laguerre_gaussian([1.0]))


def _c_psi_prime_mpmath(coeffs, dps=80):
    """2 sum_{i,j>=1} b_i b_j (i+j-1)!, where b_j is the u^j coefficient of
    p(u) = sum_n (-1)^n n! K_n L_n(u) and L_n(u) = sum_j (-1)^j C(n,j) u^j/j!.

    The u^0 coefficient is the admissibility defect (rounding-sized for
    admissible float K_n) and is dropped.
    """
    with mpmath.workdps(dps):
        a = [(-1) ** n * mpmath.factorial(n) * mpmath.mpf(c) for n, c in enumerate(coeffs)]
        b = [mpmath.fsum(a[n] * (-1) ** j * math.comb(n, j) for n in range(j, len(a)))
             / mpmath.factorial(j) for j in range(len(a))]
        return float(2 * mpmath.fsum(b[i] * b[j] * mpmath.factorial(i + j - 1)
                                     for i in range(1, len(b)) for j in range(1, len(b))))


def test_c_psi_prime_matches_mpmath_through_order_32():
    rng = np.random.default_rng(2024)
    for order in range(1, 33):
        for _ in range(2):
            w = random_admissible(rng, order)
            exact = _c_psi_prime_mpmath(w.coeffs)
            assert c_psi_prime(w) == pytest.approx(exact, rel=1e-13), order


def test_c_psi_prime_rejects_zero_wavelet():
    # a zero wavelet has C'_psi = 0 and an overflowing one no finite energy: both are refused
    for coeffs in ([0.0], [0.0, 0.0, 0.0], [1e-200, -1e-200], [1e200, 1e200], [0.0] * 32 + [1e300]):
        with pytest.raises(ValueError, match="must be positive and finite"):
            laguerre_gaussian(coeffs)


def test_nonfinite_coefficients_rejected():
    for coeffs in ([math.nan, 0.5], [0.5, math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="must be finite"):
            laguerre_gaussian(coeffs)
    with pytest.raises(ValueError, match="must be finite"):
        MotherWavelet.from_spec("lg", "nan,nan")


@pytest.mark.parametrize("order", [8, 16, 24, 32])
def test_fourier_closed_matches_mpmath_hermite_series(order):
    # psi(xi) = exp(-r^2/2) sum_n K_n H_{n,n}(r, r), r = |xi|, with the
    # monomial series H_{n,n}(r, r) = sum_k (-1)^k C(n,k)^2 k! r^(2(n-k)).
    w = random_admissible(np.random.default_rng(order), order)
    r = np.linspace(0.0, 9.0, 61)
    with mpmath.workdps(60):
        ref = []
        for rv in r:
            t = mpmath.mpf(rv) ** 2
            series = mpmath.fsum(
                mpmath.mpf(c) * (-1) ** k * math.comb(n, k) ** 2 * math.factorial(k)
                * t ** (n - k) for n, c in enumerate(w.coeffs) for k in range(n + 1))
            ref.append(float(mpmath.exp(-t / 2) * series))
    ref = np.array(ref)
    closed = fourier_closed(w, r * np.exp(0.3j))
    assert np.max(np.abs(closed - ref)) <= 1e-12 * np.max(np.abs(ref))


def _laguerre_recurrence(n, x):
    """L_n(x) by the three-term recurrence started from L_0 = 1, L_1 = 1 - x."""
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def _eval_wavelet_per_order(w, eta):
    """psi(eta) as one recurrence run and one array update per non-zero K_n."""
    t = np.abs(eta) ** 2
    series = np.zeros_like(t)
    for n, c in enumerate(w.coeffs):
        if c:
            series += math.factorial(n) * c * _laguerre_recurrence(n, t)
    return np.exp(-0.5 * t) * series


def test_eval_wavelet_single_pass_is_bit_identical_to_per_order_sum():
    rng = np.random.default_rng(5)
    eta = 3 * rng.normal(size=5000) + 3j * rng.normal(size=5000)
    cases = [laguerre_gaussian([0.5, 0.5]), laguerre_gaussian([0.0, 0.0, 0.25, 0.0, 0.0])]
    cases += [random_admissible(rng, order) for order in range(1, 33)]
    for w in cases:
        assert np.array_equal(eval_wavelet(w, eta), _eval_wavelet_per_order(w, eta))


def test_wavelet_text_round_trip():
    for w in [emhw(), laguerre_gaussian([0.25, -0.125, 1.0 / 3.0])]:
        back = wavelet_from_text(wavelet_to_text(w))
        assert back == w and hash(back) == hash(w)
    assert wavelet_to_text(emhw()) == "kind=lg\ncoeffs=0.5,0.5\n"
    # the emhw name is still read
    assert wavelet_from_text("kind=emhw\n") == emhw()


_COEFF = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(_COEFF, min_size=1, max_size=33).map(tuple))
def test_any_coefficient_tuple_constructs_or_raises_value_error(coeffs):
    # a zero or overflowing energy is refused up front, never by a later OverflowError
    try:
        w = laguerre_gaussian(coeffs)
    except ValueError:  # an OverflowError is not one, so it fails the test
        return
    back = wavelet_from_text(wavelet_to_text(w))
    assert back == w and hash(back) == hash(w)
    try:
        c = c_psi_prime(w)
    except NonAdmissibleError:
        return
    except ValueError as exc:  # raised only for a C'_psi out of the normal float range
        assert "is not a finite normal float" in str(exc)
        return
    assert sys.float_info.min <= c < math.inf


def test_c_psi_prime_refuses_an_overflowing_or_subnormal_value():
    # At 1e140 times unit energy, p(u)^2 overflows at the largest Gauss-Laguerre
    # node of an order-32 wavelet; K = (1e-160, 1e-160) gives C'_psi = 2e-320,
    # below the smallest normal float.  Both are admissible with a finite energy.
    unit = random_admissible(np.random.default_rng(0), 32)
    for w in (unit.scaled(1e140), laguerre_gaussian([1e-160, 1e-160])):
        assert is_admissible(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="is not a finite normal float"):
                c_psi_prime(w)
    # in range, C'_psi keeps its quadratic scaling
    for a in (1e120, 1e-150):
        assert c_psi_prime(unit.scaled(a)) == pytest.approx(a * a * c_psi_prime(unit), rel=1e-12)


def test_wavelet_text_errors():
    with pytest.raises(ValueError):
        wavelet_from_text("coeffs=1,2\n")
    with pytest.raises(ValueError):
        wavelet_from_text("kind=lg\ncoeffs=a,b\n")
    with pytest.raises(ValueError):
        wavelet_from_text("kind=lg\nstuff=1\n")
    with pytest.raises(FileFormatError, match="wavelet text:2: expected key=value"):
        wavelet_from_text("kind=lg\nlg\n")


def test_wavelet_text_skips_comments_and_blank_lines():
    text = "# a wavelet\n\n  kind = lg \ncoeffs=0.25,0.25\n"
    assert wavelet_from_text(text) == laguerre_gaussian([0.25, 0.25])


def test_normalized_unit_energy():
    w = laguerre_gaussian([0.3, 0.7, -0.2]).normalized()
    grid = ComplexPlaneGrid.centered(256, 12.0)
    f = sample(lambda e: eval_wavelet(w, e), grid)
    energy = integrate(
        type(f)(f.grid, np.abs(f.values) ** 2), "d2_over_pi"
    ).real
    assert energy == pytest.approx(1.0, abs=1e-8)


def test_emhw_coeffs_are_fixed():
    for coeffs in ((1.0, 2.0), "1,2", (0.5,)):
        with pytest.raises(ValueError, match="fixed coefficients"):
            MotherWavelet.from_spec("EMHW", coeffs)
    # only the radial plane family has a descriptor
    with pytest.raises(ValueError, match="unknown wavelet kind"):
        MotherWavelet.from_spec("mexican_hat_1d")
    with pytest.raises(ValueError):
        MotherWavelet("mexican_hat_1d")


def test_a_wavelet_is_its_coefficients():
    named = [MotherWavelet.from_spec("EMHW"), MotherWavelet.from_spec("lg", "0.5,0.5"),
             emhw(), laguerre_gaussian([0.5, 0.5]), MotherWavelet((0.5, 0.5))]
    assert all(w == named[0] and hash(w) == hash(named[0]) for w in named)
    assert [f.name for f in dataclasses.fields(MotherWavelet)] == ["coeffs"]


def test_normalized_keeps_the_squared_factorial_sum():
    # the energy is the sum of (n! K_n) ** 2 in increasing n; x * x or hypot move last bits
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = rng.uniform(-1, 1, size=rng.integers(1, 34)) * 10.0 ** rng.uniform(-50, 50)
        norm = math.sqrt(sum((math.factorial(n) * c) ** 2 for n, c in enumerate(k)))
        assert laguerre_gaussian(k).normalized().coeffs == tuple((1.0 / norm) * c for c in k)


def test_from_spec_kinds_and_coeffs():
    assert MotherWavelet.from_spec("EMHW") == emhw()
    assert MotherWavelet.from_spec("emhw", "0.5, 0.5") == emhw()
    lg = laguerre_gaussian([0.25, -0.125])
    assert MotherWavelet.from_spec("Lg", "0.25,-0.125") == lg
    assert MotherWavelet.from_spec("lg", [0.25, -0.125]) == lg
    with pytest.raises(ValueError, match="bad coefficient list"):
        MotherWavelet.from_spec("lg", "0.25,x")
    with pytest.raises(ValueError, match="needs coefficients"):
        MotherWavelet.from_spec("lg", "")


@pytest.mark.parametrize("fn, dtype", [
    (mexican_hat, float),
    (lambda z: eval_wavelet(laguerre_gaussian([0.25, 0.5, 0.125]), z), float),
    (lambda z: fourier_closed(laguerre_gaussian([0.25, 0.5, 0.125]), z), float),
    (lambda z: hermite2(3, 2, z, np.conj(z)), complex),
    (lambda z: laguerre_series([0.5, -1.0, 2.0], np.abs(z)), float),
    (lambda z: number_state_eta(2, 1, z), complex),
    (lambda z: xi_eta_overlap(0.3 - 0.2j, z), complex),
], ids=["mexican_hat", "eval_wavelet", "fourier_closed", "hermite2", "laguerre_series",
        "fock_series", "xi_eta_overlap"])
def test_scalar_in_scalar_out(fn, dtype):
    # one idiom: a 0-d result comes back as a numpy scalar, equal to the array element
    points = np.array([0.7, -1.2])
    if dtype is complex:
        points = points + 0.4j
    arr = fn(points)
    assert isinstance(arr, np.ndarray) and arr.dtype == dtype
    for z, expected in zip(points, arr):
        value = fn(z if dtype is complex else float(z))
        assert not isinstance(value, np.ndarray) and isinstance(value, dtype)
        assert value == expected


def test_mexican_hat_values():
    assert mexican_hat(0.0) == pytest.approx(1.0)
    assert mexican_hat(1.0) == pytest.approx(0.0, abs=1e-15)
    assert mexican_hat(np.array([0.0, 1.0]))[1] == pytest.approx(0.0, abs=1e-15)
