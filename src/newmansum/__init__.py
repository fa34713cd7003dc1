"""Exact evaluation of Newman digit sums S_{m,l}(x) with a brute-force
oracle, two O(log N)-step algorithms for S_{3,0}, sharp growth bounds,
and a verification CLI.  The package exports exactly the union of the
``__all__`` lists of its modules ``core``, ``oracle``, ``analysis`` and
``verify``."""

from .core import *
from .oracle import *
from .analysis import *
from .verify import *

__version__ = "0.1.0"
