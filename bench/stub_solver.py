"""Stand-in SMT solver that reads its script and answers ``unknown`` at once.

The ``ring_encode`` workload passes it to ``casp2smt.solve`` so that a solve
call does the whole encoding and emission and nothing else.
"""

import sys

sys.stdin.read()
print("unknown")
