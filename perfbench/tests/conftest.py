import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# The benchmark's modules import each other as top-level modules, the way
# they do when run as scripts from perfbench/.
for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
