"""Superiorization and accelerated inexact forward-backward splitting
for TV-regularized tomographic reconstruction."""

from . import basic, fbs, metrics, opslin, regtv, superior, tomo

__version__ = "0.1.0"

# the library's submodules; `harness`, the experiment runner and CLI, is
# loaded where it is imported; names are imported from the submodules
