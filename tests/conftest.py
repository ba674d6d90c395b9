from fractions import Fraction
from functools import reduce
from operator import mul

from hypothesis import strategies as st

from rbseries.rings import Q, matrix_ring, scalar_ring
from rbseries.series import TruncatedSeries

SCALAR = scalar_ring()
MAT2 = matrix_ring(2)
MAT3 = matrix_ring(3)


def rationals(max_num: int = 20, max_den: int = 12):
    return st.fractions(
        min_value=Fraction(-max_num), max_value=Fraction(max_num),
        max_denominator=max_den,
    ).map(lambda f: Q(f.numerator, f.denominator))


def power(x, n):
    return reduce(mul, [x] * n, TruncatedSeries.one(x.ring, x.cap))


def constants(ring, max_num: int = 5, max_den: int = 5):
    """Cap-0 series over `ring`: one coefficient, its entries from rationals()."""
    d = ring.dim
    entries = st.lists(rationals(max_num, max_den), min_size=d * d, max_size=d * d)
    return entries.map(lambda v: TruncatedSeries.from_coeffs(
        ring, 0, [v[0] if d == 1 else [v[r * d : (r + 1) * d] for r in range(d)]]))
