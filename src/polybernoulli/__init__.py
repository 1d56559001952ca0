"""Exact poly-Bernoulli numbers, their parameterized polynomials, and
machine verification of the identities relating them.

Everything is computed over the rationals, with the parameters a, b, c
carried through their formal logarithms as polynomial indeterminates, so
every comparison in the package is an exact equality.
"""

from .exact import LA, LB, LC, MultiPoly, X, format_poly
from .generalized import gen_pb_numbers, gen_pb_poly, pb_definite_integral, pb_derivative
from .euler import euler_poly, gen_euler_poly
from .numbers import classical_bernoulli, poly_bernoulli, poly_bernoulli_negative, poly_bernoulli_poly
from .reports import IdentityReport, all_passed
from .series import PowerSeries, gf_iterated_integral, gf_poly_bernoulli
from .verification import run_suite

__version__ = "0.1.0"

__all__ = [
    "LA",
    "LB",
    "LC",
    "MultiPoly",
    "PowerSeries",
    "X",
    "IdentityReport",
    "all_passed",
    "classical_bernoulli",
    "euler_poly",
    "format_poly",
    "gen_euler_poly",
    "gen_pb_numbers",
    "gen_pb_poly",
    "gf_iterated_integral",
    "gf_poly_bernoulli",
    "pb_definite_integral",
    "pb_derivative",
    "poly_bernoulli",
    "poly_bernoulli_negative",
    "poly_bernoulli_poly",
    "run_suite",
    "__version__",
]
