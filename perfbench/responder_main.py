"""Start ``linerate.responder.main`` as the ``linerate-responder`` entry point would.

``python -m linerate.responder`` would import the module twice (the package
``__init__`` already imports it), so the benchmark starts the responder here.
"""

import signal
import sys

from linerate import responder

if __name__ == "__main__":
    # The benchmark stops the responder with SIGINT, which the responder turns
    # into a clean shutdown.  A parent started in the background may pass
    # SIGINT on as ignored, so restore Python's handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.exit(responder.main(sys.argv[1:]))
