"""The gradient-check helpers against closed forms."""

import numpy as np

import sparsegt.numerics as nm
from attention_oracle import mean_all, mul
from gradcheck import finite_difference, max_relative_error


def test_max_relative_error_floor():
    assert max_relative_error(np.array([0.0]), np.array([1e-9])) < 1e-2
    assert max_relative_error(np.array([1.0]), np.array([2.0])) == 0.5


def test_finite_difference_of_a_cubic():
    # d/dx sum(x^3) = 3x^2; the central difference is off by h^2 = 1e-10
    x = nm.param(np.array([[-1.5, 0.5], [2.0, 3.0]]), dtype=np.float64)
    num = finite_difference(lambda: mean_all(mul(mul(x, x), x)), x)
    np.testing.assert_allclose(num, 3 * x.data ** 2 / 4, rtol=1e-8)
    # the probe puts every element back where it found it
    np.testing.assert_array_equal(x.data, [[-1.5, 0.5], [2.0, 3.0]])
