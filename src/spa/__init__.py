"""Strand-space protocol models with symbolic operation costs.

Parse a protocol description, project it onto per-role knowledge strands,
compile each strand into typed cryptographic operation strands, and
compute, simplify, compare, or numerically evaluate the resulting
symbolic costs.

The package exports the pipeline's entry points; every other name lives in
its own module (`spa.costs`, `spa.sizes`, `spa.terms`, `spa.strands`,
`spa.parser`, `spa.extraction`, `spa.oracle`, `spa.config`, `spa.errors`).
"""

from .config import load_config
from .costs import compare, cost_of_space, eval_cost, render_cost, simplify
from .extraction import extract
from .parser import parse, project

__version__ = "0.1.0"
