"""Run one ``g2cy`` command in this fresh interpreter, with span tracing.

Usage: python3 perfbench/cli_child.py OUT.json <g2cy arguments...>

The traced counterpart of ``python3 -m g2cy.cli``: it times the import of
``g2cy.cli``, wraps the package's functions, runs ``main`` and writes the
import time, span totals and spans to OUT.json.  It exits with the code of
``main``.
"""

import json
import os
import sys
from time import perf_counter_ns

from spans import Tracer

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter_ns()
    import g2cy.cli
    import_ns = perf_counter_ns() - t0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(g2cy.cli.__file__).startswith(src + os.sep):
        sys.exit(f"g2cy imported from {g2cy.cli.__file__}, not from {src}")
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = g2cy.cli.main(argv)
    finally:
        tracer.active = False
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ns": import_ns, "totals": tracer.totals(),
                   "spans": tracer.spans()}, fh)
    sys.exit(code)
