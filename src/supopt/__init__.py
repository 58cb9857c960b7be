"""Superiorization and accelerated inexact forward-backward splitting
for TV-regularized tomographic reconstruction."""

from . import basic, fbs, metrics, opslin, regtv, superior, tomo

__version__ = "0.1.0"

# every submodule but `harness`: `python -m supopt.harness` must find it
# unloaded; names are imported from the submodules
