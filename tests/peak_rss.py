"""Run `python -m fuzzonto ARGS...` and fail if its peak RSS passes a bound.

    python tests/peak_rss.py BOUND_MB -- ARGS...

The child's peak RSS is the ru_maxrss of the waited-for children of this
small process, which imports only what spawning and waiting need: Linux
folds the spawning process's own peak into a child spawned by vfork.  The
script prints the peak, then exits 1 if it is above BOUND_MB megabytes; a
child that fails ends it with a traceback and exit 1.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit(__doc__.split("\n\n")[1])
    subprocess.run([sys.executable, "-m", "fuzzonto", *argv[2:]], check=True)
    mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {mb:.1f} MB")
    return int(mb > float(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
