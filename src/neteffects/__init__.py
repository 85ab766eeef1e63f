"""Nonparametric tests for network effects in weighted directed networks.

The four effects are pairwise edge covariances: reciprocity
Cov(e[i,j], e[j,i]), same-sender Cov(e[i,j], e[i,k]), same-receiver
Cov(e[i,j], e[k,j]), and sender-receiver Cov(e[i,j], e[j,k]).  The
package estimates each one, diagnoses whether its estimator is
degenerate, and tests it against zero on the appropriate branch
(studentized complete estimator, or subsampled 4-tuple kernel).
"""

from . import api, errors, estimators, inference, kernels, network, simulation
from .api import *
from .errors import *
from .estimators import *
from .inference import *
from .kernels import *
from .network import *
from .simulation import *

__version__ = "0.1.0"

# each public name is written once, in its module's __all__
__all__ = ["__version__", *api.__all__, *errors.__all__, *estimators.__all__, *inference.__all__,
           *kernels.__all__, *network.__all__, *simulation.__all__]
