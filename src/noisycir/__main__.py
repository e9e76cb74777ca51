"""`python -m noisycir`: the noisycir command line."""

from .cli import console_main

console_main()
