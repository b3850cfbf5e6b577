"""``python -m aaqpt``: the command-line interface."""

from .cli import console_main

console_main()
