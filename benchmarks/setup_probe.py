"""Time one cold set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR DIM SEED

Imports hdscene from SRC_DIR and generates the paper-sized CodebookSet at DIM
and SEED, then prints one JSON object with the seconds each step took and the
file hdscene was imported from.
"""

import json
import sys
import time


def main() -> None:
    src, dim, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import hdscene
    imported = time.perf_counter()
    hdscene.CodebookSet.generate(dim, seed=seed)
    generated = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "codebooks_s": generated - imported,
                      "file": hdscene.__file__}))


if __name__ == "__main__":
    main()
