"""Driving an external model process over the line protocol.

Any executable that reads one JSON request per line on stdin and writes
one JSON response per line on stdout can serve as the predictor.  Here a
small Python stub stands in for a real model server; it predicts
sigma = 2 * eps, which is an equivariant map, so the augmented aggregate
reproduces the direct prediction almost exactly.
"""

import os
import sys
import tempfile
import textwrap

import numpy as np

from rotta.dataset import generate_synthetic
from rotta.models import ExternalModel
from rotta.rotations import RotationStream, rotation_list
from rotta.tta import run_tta

STUB = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        sigma = [[2.0 * v for v in row] for row in req["eps"]]
        print(json.dumps({"id": req["id"], "sigma": sigma}))
        sys.stdout.flush()
    """
)

sample = generate_synthetic(1, 30, stream=RotationStream(17))[0]

with tempfile.TemporaryDirectory() as work:
    stub_path = os.path.join(work, "doubling_server.py")
    with open(stub_path, "w", encoding="utf-8") as fh:
        fh.write(STUB)

    # The adapter spawns the process on first use and pipelines the
    # rotated copies: it writes one request per rotation with a fresh id
    # while it reads the answers, matches each answer to its request by id,
    # and validates its shape and finiteness.  Closing terminates the child.
    command = [sys.executable, stub_path]
    print("external command:", " ".join(command))
    with ExternalModel(command, timeout=10.0) as model:
        result = run_tta(model, [sample], rotation_list(RotationStream(8), 16))

expected = 2.0 * sample.strain
print("\n16 rotations through the subprocess, all answers validated")
print("aggregate vs 2*eps: max |difference| = %.2e"
      % np.max(np.abs(result.aggregated[0] - expected)))
print("per-step SD is round-off sized: max %.2e" % result.sd.max())
print("\nthe same command string works everywhere a model is selected,")
print("as 'external:<command>' in configs and on the command line")
