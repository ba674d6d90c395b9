"""Exact computer-algebra kernel for Rota-Baxter operators on truncated
formal power series, with equation solvers and an identity verification suite.
"""

from .rings import (
    Q,
    RingDescriptor,
    RingElement,
    RingMismatchError,
    matrix_ring,
    random_element,
    rational,
    scalar_ring,
)
from .series import DomainError, TruncatedSeries, parse_series
from .operators import ANTIDER, QINT, QSCALE, OperatorSpec, apply, tilde_apply
from .solvers import (
    ConvergenceError,
    EquationSpec,
    SolverUsageError,
    bch,
    bernoulli,
    chi_lambda,
    chi_zero,
    closed_solve,
    inhom_closed_commutative,
    inhom_closed_noncommutative,
    inhom_closed_weight0,
    picard_solve,
    spitzer_closed,
)
from .checks import (
    CheckReport,
    SuiteManifest,
    default_manifest,
    q_product,
    run_check,
    run_suite,
    suite_ok,
)

__all__ = [
    "Q",
    "RingDescriptor",
    "RingElement",
    "RingMismatchError",
    "matrix_ring",
    "random_element",
    "rational",
    "scalar_ring",
    "DomainError",
    "TruncatedSeries",
    "parse_series",
    "ANTIDER",
    "QINT",
    "QSCALE",
    "OperatorSpec",
    "apply",
    "tilde_apply",
    "ConvergenceError",
    "EquationSpec",
    "SolverUsageError",
    "bch",
    "bernoulli",
    "chi_lambda",
    "chi_zero",
    "closed_solve",
    "inhom_closed_commutative",
    "inhom_closed_noncommutative",
    "inhom_closed_weight0",
    "picard_solve",
    "spitzer_closed",
    "CheckReport",
    "SuiteManifest",
    "default_manifest",
    "q_product",
    "run_check",
    "run_suite",
    "suite_ok",
]

__version__ = "0.1.0"
