"""scipy.special in a helper process, for the benchmark's oracles.

The timed process reports its peak resident set, so it does not import
scipy (about 25 MB).  It starts this server once per run and calls it
between tasks, outside the timed intervals; the server blocks on stdin
while tasks run.

Protocol: one JSON object per line each way.  A request is
``{"f": name, "args": [...]}`` with arguments in the encoding of
``oracles.encode``; the reply holds the result in that encoding under
``"value"``, or ``{"error": message}``.
"""

import json
import sys

import scipy.special

from oracles import decode, encode

ALLOWED = {"jv", "yv", "jvp", "yvp", "jn_zeros"}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        if req["f"] not in ALLOWED:
            reply = {"error": f"unsupported function {req['f']!r}"}
        else:
            fn = getattr(scipy.special, req["f"])
            reply = {"value": encode(fn(*[decode(a) for a in req["args"]]))}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
