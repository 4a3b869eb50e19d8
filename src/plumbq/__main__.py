"""``python -m plumbq``: the plumbq command line."""

from plumbq.cli import main

if __name__ == "__main__":
    main(prog_name="plumbq")
