"""One cold start of the CLI: import ifsseq.cli in a fresh interpreter, then
read the given inputs through the public reader.

Usage: python3 coldstart.py {raster|sequence|ifs} PATH...

Prints {"import_s": ..., "read_s": ...} as JSON.  The caller times the whole
process from outside as well, which adds interpreter start and exit.
"""

import json
import sys
import time

started = time.perf_counter()
import ifsseq.cli  # noqa: E402,F401  (the import is what is timed)
from ifsseq import formats  # noqa: E402

imported = time.perf_counter()
reader = {
    "raster": formats.read_raster,
    "sequence": formats.read_sequence,
    "ifs": formats.read_ifs,
}[sys.argv[1]]
for path in sys.argv[2:]:
    reader(path)
print(json.dumps({"import_s": imported - started, "read_s": time.perf_counter() - imported}))
