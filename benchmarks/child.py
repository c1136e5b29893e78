"""One benchmark process: a set-up probe or a traced CLI run.

    python3 benchmarks/child.py setup SPANS CONFIG
    python3 benchmarks/child.py cli SPANS CLI-ARGUMENTS...

``setup`` imports storefleet, loads the scenario and builds its trace,
which is the work every CLI command does before its own.  ``cli`` runs
``storefleet.cli.main`` on the arguments.  SPANS is ``-`` for an
untraced process, or a file that receives the spans when it ends.
Untraced CLI runs do not come through here: the benchmark starts
``python3 -m storefleet.cli`` for them.
"""

import sys


def main(argv: list[str]) -> int:
    mode, spans_path, rest = argv[0], argv[1], argv[2:]
    from storefleet import cli

    tracer = None
    if spans_path != "-":
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        if mode == "setup":
            cli.build_trace(cli.load_scenario(rest[0]))
            return 0
        if mode == "cli":
            return cli.main(rest)
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
