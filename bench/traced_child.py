"""One revtone run with the layer boundaries traced.

    python3 bench/traced_child.py SPANS.json [revtone arguments...]

Installs the tracer's wrappers, runs `revtone.cli.main` with the given
arguments and writes the spans to SPANS.json; exits with revtone's code.
"""
from __future__ import annotations

import sys

import tracer
from setup_probe import child_view


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    t = tracer.Tracer()
    wrapped = tracer.install(t)
    import revtone.cli

    code = revtone.cli.main(cli_args)
    t.dump(spans_path, {"wrapped": wrapped, "child": child_view()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
