"""Line-protocol stub predictors for external-adapter tests.

Usage: python external_fixture.py MODE

Reads one JSON request per stdin line ({"id", "a", "vf", "eps"}) and
answers one JSON line per request.  MODE selects the behavior:

  echo     sigma = eps (a valid, exactly equivariant predictor)
  short    drop the last step of eps (shape violation)
  nan      corrupt the first component with NaN
  badjson  answer with a non-JSON line
  badid    answer with a wrong request id
  silent   read requests but never answer (forces a timeout)
  quit     exit immediately without reading anything
  once     answer the first request like echo, then exit
"""

import json
import sys
import time


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "echo"
    if mode == "quit":
        return
    for line in sys.stdin:
        req = json.loads(line)
        if mode == "silent":
            time.sleep(3600)
        sigma = req["eps"]
        if mode == "short":
            sigma = sigma[:-1]
        elif mode == "nan":
            sigma = [list(row) for row in sigma]
            sigma[0][0] = float("nan")
        resp = {"id": req["id"], "sigma": sigma}
        if mode == "badid":
            resp["id"] = req["id"] + 1000
        if mode == "badjson":
            sys.stdout.write("this is not json\n")
        else:
            sys.stdout.write(json.dumps(resp) + "\n")
        sys.stdout.flush()
        if mode == "once":
            return


if __name__ == "__main__":
    main()
