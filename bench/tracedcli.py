"""Run one traced CLI request: ``python bench/tracedcli.py OUT ARGV...``.

Behaves like ``python -m pfecalc.cli ARGV...`` (same stdout, stderr and exit
code) with spans around the traced functions.  On exit it writes its spans
to OUT.tsv and a summary to OUT.json: per-layer stats, lru cache counts, and
the clock reading when ``import pfecalc.cli`` finished, which the caller
subtracts from its own reading taken before it started the process.
"""

import json
import sys
import time

import pfecalc.cli

IMPORTED = time.perf_counter()

import spans  # noqa: E402  (imported after the timed import of the program)


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    cached = spans.cached_functions()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = pfecalc.cli.main(argv)
    except SystemExit as exc:  # argparse errors exit from inside main
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.write(out + ".tsv")
        summary = {
            "imported": IMPORTED,
            "layers": spans.layer_stats(tracer.spans),
            "cache": spans.cache_counts(cached),
        }
        with open(out + ".json", "w") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
