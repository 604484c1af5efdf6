"""Exact echo predictor for rotta's external line protocol: sigma = eps.

Reads one JSON request per stdin line and answers ``{"id", "sigma"}`` with
the request's own strain path, flushed.  Echoing is exactly equivariant, and
the child does no work beyond parsing, so the benchmark's external workload
times the adapter's round trips rather than a model.
"""

import json
import sys


def main():
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps({"id": request["id"], "sigma": request["eps"]}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
