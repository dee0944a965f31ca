"""Run one ``fbblat`` command through ``fbblat.cli.main`` in a fresh
interpreter, so that it starts from empty count tables.

    python perfbench/cli_op.py [--trace] table f --max-n 40

The last line of standard error is JSON: the process's peak resident set
and, with ``--trace``, the tracer's snapshot of the command.
"""

import json
import sys


def main(argv):
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    import fbblat.cli
    from tracer import Tracer, peak_rss_kb

    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        code = fbblat.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(json.dumps({"peak_rss_kb": peak_rss_kb(),
                      "trace": tracer.snapshot() if traced else None}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
