"""`python -m advssl`: the advssl command line (importing this module runs nothing)."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
