"""Record the CLI's stdout and exit code for a fixed set of requests.

    PYTHONPATH=<checkout>/src python tests/golden/capture.py

runs every request below through ``pfecalc.cli.main`` in this directory and
writes ``cli.json`` next to this file.  ``tests/test_golden.py`` replays the
requests against the current code and demands the same bytes and exit codes,
so a change that must keep the output unchanged is checked against the
recording of the code before it.  Record again only when an output is meant
to change, and say why in the change.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

README_EXAMPLES = [
    ["expand", "partition", "-n", "20"],
    ["expand", "eta_power", "--r", "-24", "-n", "10", "--format", "bfile"],
    ["to-product", "--input", "pvalues.txt", "--order", "60"],
    ["from-g", "--input", "g.txt", "--order", "50"],
    ["verify", "ramanujan_partition", "-n", "500"],
    ["congruence", "--p", "5", "--r", "1", "--family", "4", "--max-m", "100"],
    ["roots-check", "--input", "pvalues.txt", "--order", "40", "--p", "2", "--r", "2"],
]

# Rational inputs, where the integer values give way to fractions.
RATIONAL_REQUESTS = [
    ["from-g", "--input", "exp_g.txt", "--order", "11"],
    ["to-product", "--input", "exp_p.txt", "--order", "12", "--format", "csv"],
    ["expand", "colored", "--r", "1/2", "-n", "12", "--format", "csv"],
]


def requests():
    from pfecalc.identities import IDENTITY_KEYS

    out = list(README_EXAMPLES) + list(RATIONAL_REQUESTS)
    for key in IDENTITY_KEYS:
        out.append(["verify", key])
        out.append(["verify", key, "--format", "json"])
    return out


def run(argv):
    """Exit code and stdout of one in-process CLI request."""
    from pfecalc.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, stdout.getvalue()


def capture():
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        records = []
        for argv in requests():
            code, stdout = run(argv)
            records.append({"argv": argv, "exit": code, "stdout": stdout})
    finally:
        os.chdir(cwd)
    return records


if __name__ == "__main__":
    records = capture()
    with open(os.path.join(HERE, "cli.json"), "w") as handle:
        json.dump(records, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(records)} requests", file=sys.stderr)
