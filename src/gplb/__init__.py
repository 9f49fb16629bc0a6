"""Numerical laboratory for risk floors of Gaussian-process posterior means.

The package computes exact conjugate posteriors in the Gaussian white
noise sequence model, builds adversarial families of generalized additive
functions, and verifies (exactly and by Monte Carlo) the lower bounds
those families force on every Gaussian-process prior: a coordinatewise
risk floor, a polynomial no-contraction rate with explicit constants, a
one-sparse linear-minimax reduction, and a sharper floor for wavelet
series priors.  The ``gplb.harness`` subpackage adds configuration,
deterministic seeded studies, machine-readable reports, and the ``gplb``
command-line tool.  Each name is imported from the module that defines
it (``from gplb.sequence_core import exact_risk``); this package
re-exports nothing.
"""

__version__ = "0.1.0"
