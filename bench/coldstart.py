"""One cold start: import meridian4.cli, build the given field specs, report.

Run as ``python -X importtime bench/coldstart.py SPEC...`` with the
package's ``src`` directory on PYTHONPATH.  Prints one line: the
``time.monotonic()`` reading at which the program is ready, the seconds
spent building the fields, and the path meridian4 was imported from.
"""

import sys
import time


def main():
    import meridian4.cli as cli
    t0 = time.perf_counter()
    for spec in sys.argv[1:]:
        cli.parse_field_spec(spec)
    build_s = time.perf_counter() - t0
    ready = time.monotonic()
    sys.stdout.write(f"{ready!r} {build_s!r} {cli.__file__}\n")


if __name__ == "__main__":
    main()
