"""estlab: ratio-type estimation of a finite-population mean from a binary
auxiliary attribute, with first-order MSE theory and empirical verification.

The package is organised as pure functions over immutable values:

* :mod:`estlab.population`   populations, moments, summary parameters
* :mod:`estlab.estimators`   per-sample statistics and the estimator family
* :mod:`estlab.theory`       closed-form MSE, efficiency predicates, PRE tables
* :mod:`estlab.simulation`   SRSWOR draws, exhaustive enumeration, Monte Carlo
* :mod:`estlab.cli`          the ``estlab`` command-line tool
"""

from . import errors, estimators, population, simulation, theory
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .population import *  # noqa: F403
from .simulation import *  # noqa: F403
from .theory import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *estimators.__all__,
    *population.__all__,
    *simulation.__all__,
    *theory.__all__,
]
