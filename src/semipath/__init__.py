"""Combinatorics of semimodules over a two-generator numerical semigroup.

Gap arithmetic, lean sets, staircase lattice paths below a diagonal,
syzygies with their orbit structure, closed-form counts, and brute-force
verification of every formula.

The package exports exactly the union of its layers' __all__ lists.
"""

from . import counting, errors, leansets, paths, render, semigroup, semimodules, syzygies

# Composed before the star imports: `from .render import *` rebinds
# `render` from the submodule to the function of that name.
__all__ = [
    *counting.__all__,
    *errors.__all__,
    *leansets.__all__,
    *paths.__all__,
    *render.__all__,
    *semigroup.__all__,
    *semimodules.__all__,
    *syzygies.__all__,
]

from .counting import *
from .errors import *
from .leansets import *
from .paths import *
from .render import *
from .semigroup import *
from .semimodules import *
from .syzygies import *

__version__ = "0.1.0"
