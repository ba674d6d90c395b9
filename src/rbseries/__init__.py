"""Exact computer-algebra kernel for Rota-Baxter operators on truncated
formal power series, with equation solvers and an identity verification suite.

The API is the modules, and each name is imported from the module that
defines it:

    rbseries.rings      exact rationals, matrix rings, RingDescriptor
    rbseries.series     TruncatedSeries, settle, parse_series, DomainError
    rbseries.operators  OperatorSpec and the operators P and P~ (apply,
                        tilde_apply)
    rbseries.solvers    EquationSpec, picard_solve, closed_solve, chi_lambda,
                        chi_zero, bch
    rbseries.checks     the identity checks, run_check, run_suite
    rbseries.cli        the rbseries command

The package itself re-exports nothing and imports none of them, so write
`from rbseries.series import TruncatedSeries`, not `from rbseries import
TruncatedSeries`.
"""

__version__ = "0.1.0"
