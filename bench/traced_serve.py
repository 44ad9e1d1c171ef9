"""``serve`` with timing spans: ``python -m bench.traced_serve --spans-out F -- serve ...``.

Installs :mod:`bench.tracing` around the service's layer boundaries, runs the
ordinary ``repro.cli`` entry point with the given arguments and, once
``serve`` has returned from its clean ``KeyboardInterrupt`` shutdown, writes
every recorded span to ``F`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from typing import List, Optional

from bench.tracing import Recorder, install


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    arguments = parser.parse_args(argv)
    cli_args = arguments.cli_args
    if cli_args and cli_args[0] == "--":
        cli_args = cli_args[1:]

    recorder = Recorder()
    install(recorder)
    gc.callbacks.append(recorder.on_gc)
    from repro.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        gc.callbacks.remove(recorder.on_gc)
        recorder.dump(arguments.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
