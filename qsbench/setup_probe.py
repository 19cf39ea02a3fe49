"""Set-up probe: a fresh interpreter imports qswitch.cli and runs one warm-up operation.

Usage: python3 setup_probe.py <repo root> '<argv as a JSON list>'
The caller times the whole process; the exit code is the operation's.
"""
import contextlib
import io
import json
import sys

root, argv = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, f"{root}/src")

import qswitch.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = qswitch.cli.main(argv)
sys.exit(code)
