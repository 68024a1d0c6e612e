"""twoiso: rank-one perturbations of 2-isometries on weighted spaces."""

from . import analysis, function_spaces, operators, spaces
from .analysis import *
from .function_spaces import *
from .operators import *
from .spaces import *

__version__ = "0.1.0"

__all__ = [
    *spaces.__all__,
    *operators.__all__,
    *analysis.__all__,
    *function_spaces.__all__,
    "__version__",
]
