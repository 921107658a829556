"""``python -m brauergraph``: the command-line front end of ``cli``."""
from .cli import main

main()
