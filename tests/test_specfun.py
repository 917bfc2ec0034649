import math

import numpy as np
import pytest
import scipy.special
import sympy

from entwave.specfun import (
    HERMITE_ORDER_CAP,
    OrderOverflowError,
    gauss_laguerre,
    hermite2,
    hermite_functions,
    laguerre,
)


def hermite2_generating_oracle(m, n):
    """Symbolic H_{m,n} from the generating function, independent of the series."""
    t, tp, x, y = sympy.symbols("t tp x y")
    gen = sympy.exp(-t * tp + t * x + tp * y)
    poly = sympy.diff(gen, t, m, tp, n).subs({t: 0, tp: 0})
    return sympy.expand(poly), (x, y)


def test_hermite2_order_zero_is_one():
    assert hermite2(0, 0, 1.3 + 0.2j, -4.1j) == 1.0


def test_hermite2_1_1_frozen_value():
    # symbolic expansion of exp(-t t' + t x + t' y) gives H_{1,1} = x y - 1
    poly, (x, y) = hermite2_generating_oracle(1, 1)
    assert poly == x * y - 1
    assert hermite2(1, 1, 2, 3) == pytest.approx(5.0)


def test_hermite2_2_2_matches_generating_function():
    poly, (x, y) = hermite2_generating_oracle(2, 2)
    assert poly == x**2 * y**2 - 4 * x * y + 2
    rng = np.random.default_rng(3)
    for _ in range(5):
        xv = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        yv = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        expected = complex(poly.subs({x: xv, y: yv}))
        assert hermite2(2, 2, xv, yv) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m,n", [(3, 2), (4, 4), (5, 1)])
def test_hermite2_matches_generating_function(m, n):
    poly, (x, y) = hermite2_generating_oracle(m, n)
    rng = np.random.default_rng(m * 10 + n)
    xv = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    yv = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    expected = complex(poly.subs({x: xv, y: yv}))
    assert hermite2(m, n, xv, yv) == pytest.approx(expected, rel=1e-11)


def test_hermite2_swap_symmetry_exact():
    rng = np.random.default_rng(9)
    for m, n in [(2, 5), (3, 3), (0, 4), (6, 1)]:
        xv = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        yv = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert hermite2(m, n, xv, yv) == hermite2(n, m, yv, xv)


def test_hermite2_single_index_powers():
    xv = 0.7 - 1.1j
    yv = -0.4 + 2.0j
    for m in range(6):
        assert hermite2(m, 0, xv, yv) == pytest.approx(xv**m, rel=1e-13)
        assert hermite2(0, m, xv, yv) == pytest.approx(yv**m, rel=1e-13)


def test_hermite2_array_broadcast():
    xs = np.array([1.0, 2.0, 3.0], dtype=complex)
    out = hermite2(1, 1, xs, xs)
    assert np.allclose(out, xs * xs - 1)


def test_diagonal_laguerre_identity():
    # (-1)^n H_{n,n}(eta, eta*) = n! L_n(|eta|^2) to 1e-10 relative
    rng = np.random.default_rng(42)
    for n in range(11):
        for _ in range(20):
            eta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 3 / math.sqrt(2)
            lhs = (-1) ** n * hermite2(n, n, eta, np.conj(eta))
            rhs = math.factorial(n) * laguerre(n, abs(eta) ** 2)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)


def test_laguerre_low_orders():
    assert laguerre(0, 17.3) == 1.0
    assert laguerre(1, 2.0) == pytest.approx(-1.0)
    # L_2(x) = 1 - 2x + x^2/2 at x = 2
    assert laguerre(2, 2.0) == pytest.approx(-1.0)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(5)
    for n in (3, 7, 15, 30):
        x = rng.uniform(0, 10, size=8)
        assert np.allclose(laguerre(n, x), scipy.special.eval_laguerre(n, x),
                           rtol=1e-10, atol=1e-12)


def test_order_guards():
    with pytest.raises(ValueError):
        hermite2(-1, 0, 1, 1)
    with pytest.raises(OrderOverflowError):
        hermite2(HERMITE_ORDER_CAP, HERMITE_ORDER_CAP, 1.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(-2, 1.0)
    with pytest.raises(OrderOverflowError):
        laguerre(HERMITE_ORDER_CAP + 1, 1.0)


def test_hermite_functions_match_scipy():
    # h_k(x) = H_k(x) e^{-x^2/2} / sqrt(2^k k! sqrt(pi)), the orthonormal Hermite functions
    x = np.linspace(-9.0, 9.0, 181)
    h = hermite_functions(x, 41)
    for k in range(41):
        ref = (scipy.special.eval_hermite(k, x) * np.exp(-0.5 * x * x)
               / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi)))
        assert np.abs(h[k] - ref).max() <= 1e-12, k
    # and orthonormal: on a grid wide enough for h_40 the trapezoid sum is spectrally exact
    x = np.linspace(-14.0, 14.0, 561)
    h = hermite_functions(x, 41)
    assert np.abs((x[1] - x[0]) * h @ h.T - np.eye(41)).max() <= 1e-12


def test_gauss_laguerre_is_numpys_rule_cached_read_only():
    for n in (1, 4, 33):
        nodes, weights = gauss_laguerre(n)
        ref_nodes, ref_weights = np.polynomial.laguerre.laggauss(n)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        assert gauss_laguerre(n)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
