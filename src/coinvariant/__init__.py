"""Exact graded S_n-representation data of the coinvariant ring and of
Springer fibers, with equivariant log-concavity and unimodality checks.

All arithmetic is exact integer arithmetic; there is no floating point
anywhere in the package.  Import names from the submodules: the package
re-exports nothing, so each command loads only its own route's modules.
"""

__version__ = "0.1.0"
