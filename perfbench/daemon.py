"""Start ``llm4vv`` with every layer entry point wrapped in a span.

Used for the traced ``serve_warm`` daemon: the wrappers are installed
before the CLI runs, forked pool workers inherit them, and
``serve --trace-log`` collects their spans.  Arguments pass through to
the CLI unchanged.
"""

import sys

import layers

if __name__ == "__main__":
    from repro.cli import main

    layers.install()
    sys.exit(main(sys.argv[1:]))
