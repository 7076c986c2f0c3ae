"""Run the proxpoint CLI with the public functions it calls wrapped in
spans, and write the spans when the run ends.

Usage: python3 perfbench/cli_traced.py SPANS_FILE CLI_ARGS...  (with src
on PYTHONPATH); exits with the CLI's own exit code.
"""

import os
import sys

import proxpoint
import proxpoint.cli

from tracer import Tracer

tracer = Tracer(prefix=f"p{os.getpid()}.",
                oracle_iters=getattr(proxpoint.cli, "ORACLE_ITERS", None))
tracer.install(proxpoint)
try:
    code = proxpoint.cli.main(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1])
sys.exit(code)
