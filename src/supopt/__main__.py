"""`python -m supopt` runs the command-line interface."""

from .harness import cli_main

cli_main()
