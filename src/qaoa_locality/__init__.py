"""Exact light-cone simulation of the alternating-operator algorithm on
random regular graphs: per-edge expectations reduce to canonical-tree
computations whenever the edge's depth-radius neighborhood is a tree, which
makes ensemble-level predictions and ratio ceilings computable at desk
scale.

The package re-exports each layer module's public API, its ``__all__``."""
from .errors import InputError, ResourceError
from .graphs import *
from .qaoa import *
from .trees import *
from .optimize import *
from .experiments import *
from .rng import *

__version__ = "0.1.0"
