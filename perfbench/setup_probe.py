"""Set-up probe: import evofam.cli and load and validate the configs named
on the command line, as every CLI call does before its pipeline runs.
run.py times this script in fresh interpreters for the setup_s metric."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evofam import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.cfg.load_config(path)
