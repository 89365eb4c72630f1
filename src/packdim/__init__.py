"""Packing-type dimension estimates for fractional Gaussian images and graphs.

The package splits into small layers: exact numerics and discrete measures
at the bottom; nested-interval constructions and their covering counts;
Gaussian field sampling with a closed drift catalog; expectation kernels;
scaling-exponent estimators; closed-form predictions; brute-force checkers
for the inequalities that admit exact finite tests; and a reproducible
experiment runner with a CLI front end.

Each library module lists its public names in its own ``__all__``; the
package re-exports them all, so a public name is written once.  The CLI
module stays out: ``import packdim`` does not load argparse.
"""

from ._version import __version__
from .errors import *
from .numerics import *
from .measures import *
from .fractals import *
from .fields import *
from .kernels import *
from .estimators import *
from .theory import *
from .verify import *
from .experiment import *

# each star import above binds its module here as well
__all__ = ["__version__"]
for _module in (
    errors, numerics, measures, fractals, fields, kernels, estimators, theory, verify, experiment
):
    __all__ += _module.__all__
del _module
