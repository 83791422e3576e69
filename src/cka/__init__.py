"""Pomset model of Concurrent Kleene Algebra.

Partial strings (finite labelled partial orders) with sequential,
concurrent and weakly sequential composition; refinement decided by
exact monotone-bijection search; programs as downward-closed sets with
union, composition and bounded Kleene stars; linearization into word
languages; a term parser; and a brute-force-backed law suite.
"""

# Each module is bound under a private alias before the star imports:
# the function ``language`` then takes over its module's name here.
from . import partial_string as _partial_string
from . import program as _program
from . import language as _language
from . import expr as _expr
from . import testkit as _testkit
from .partial_string import *
from .program import *
from .language import *
from .expr import *
from .testkit import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += _partial_string.__all__
__all__ += _program.__all__
__all__ += _language.__all__
__all__ += _expr.__all__
__all__ += _testkit.__all__
