"""Traced run of one gebra command: python3 cliwrap.py OUT.json ARGV...

Times the import of gebra.cli, installs the tracer, calls
gebra.cli.main(ARGV) and exits with its code.  The per-layer summary and
the spans go to OUT.json; the command's own output is untouched.
"""

from __future__ import annotations

import json
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gebra.cli

    import_s = time.perf_counter() - t0
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code = gebra.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        tracer.end_op()
        tracer.uninstall()
        sys.stdout.flush()
        summary = tracer.summary()
        summary["cli.import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
