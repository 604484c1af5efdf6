"""Line-protocol stub predictors for external-adapter tests.

Usage: python external_fixture.py MODE [K]

Reads one JSON request per stdin line ({"id", "a", "vf", "eps"}) and
answers one JSON line per request.  MODE selects the behavior; the faulty
modes answer requests 0..K-1 like echo and put their fault on request K
(0-based, default 0):

  echo     sigma = eps (a valid, exactly equivariant predictor)
  short    drop the last step of eps (shape violation)
  nan      corrupt the first component with NaN
  badjson  answer with a non-JSON line
  list     answer with the JSON array [1, 2], not an object
  badid    answer with a wrong request id
  exit     exit after answering K requests
  once     answer the first request like echo, then exit (exit 1)
  slow     answer like echo, each answer after a 0.05 s pause
  silent   read requests but never answer (forces a timeout)
  deaf     never read stdin, never answer (a large request fills the pipe)
  quit     exit immediately without reading anything
  split    answer like echo, but hold the responses and write them in
           reverse order, in pieces that cut lines, several to one write
  stubborn answer like echo, ignore SIGTERM, and outlive the end of stdin
"""

import json
import os
import select
import signal
import sys
import time


def answer(req, mode, k, count):
    """The response line (bytes) to the ``count``-th request; None to exit."""
    sigma = req["eps"]
    resp = {"id": req["id"], "sigma": sigma}
    if count != k or mode in ("echo", "split", "slow", "stubborn"):
        return (json.dumps(resp) + "\n").encode()
    if mode == "exit":
        return None
    if mode == "short":
        resp["sigma"] = sigma[:-1]
    elif mode == "nan":
        resp["sigma"] = [list(row) for row in sigma]
        resp["sigma"][0][0] = float("nan")
    elif mode == "badid":
        resp["id"] = req["id"] + 1000
    elif mode == "badjson":
        return b"this is not json\n"
    elif mode == "list":
        return b"[1, 2]\n"
    return (json.dumps(resp) + "\n").encode()


def write_in_pieces(lines):
    """Write ``lines`` to stdout in reverse order, in three pieces whose cuts fall inside lines."""
    data = b"".join(reversed(lines))
    cut = max(1, len(data) // 3)
    for piece in (data[:cut], data[cut:2 * cut], data[2 * cut:]):
        os.write(1, piece)
        time.sleep(0.002)


def split_writes(mode, k):
    pending, held, count = b"", [], 0
    while True:
        if held and (len(held) >= 3 or not select.select([0], [], [], 0.02)[0]):
            write_in_pieces(held)
            held = []
            continue
        chunk = os.read(0, 1 << 16)
        if not chunk:
            write_in_pieces(held)
            return
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            held.append(answer(json.loads(line), mode, k, count))
            count += 1


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "echo"
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    if mode == "once":
        mode, k = "exit", 1
    if mode == "quit":
        return
    if mode == "deaf":
        time.sleep(3600)
    if mode == "split":
        return split_writes(mode, k)
    if mode == "stubborn":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    for count, line in enumerate(sys.stdin):
        req = json.loads(line)
        if mode == "silent":
            time.sleep(3600)
        if mode == "slow":
            time.sleep(0.05)
        line = answer(req, mode, k, count)
        if line is None:
            return
        sys.stdout.buffer.write(line)
        sys.stdout.flush()
        if mode == "exit" and count + 1 == k:
            return
    if mode == "stubborn":
        time.sleep(3600)


if __name__ == "__main__":
    main()
