"""Record sha256 digests of the stdout of every command the emit workload runs.

    python3 perfbench/record_digests.py

Run once on a commit whose output is known good; the emit workload then
requires byte-identical stdout from every later commit.
"""

from __future__ import annotations

import hashlib
import json

import worker
from dtorus import cli


def main() -> int:
    digests = {}
    for size in worker.SIZES:
        for argv in worker.emit_commands(size):
            code, text = worker.run_cli(cli.main, argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            digests[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
    worker.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
