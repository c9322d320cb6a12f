"""Record the SHA-256, line and byte counts of every digest-gated command.

    python3 perfbench/record_expected.py

Run it only at a commit whose CLI output is known to be right: the stream and
producer gates compare every later run against these digests, because
byte-identical CLI output is what "same behaviour" means for this project.
"""

from __future__ import annotations

import json
import sys

from run import import_semipath, repo_root
from workloads import EXPECTED_FILE, PRODUCERS, STREAM, CliOp, command_key, run_cli


def main() -> int:
    lib = import_semipath(repo_root())
    commands = {}
    argvs = STREAM + [["enumerate", str(a), str(b), "--gens", str(n), "--json"] for a, b, n in PRODUCERS]
    for argv in argvs:
        result, _ = run_cli(lib, CliOp(argv), {})
        if result.failures:
            print(f"{command_key(argv)}: {result.failures}", file=sys.stderr)
            return 1
        commands[command_key(argv)] = {
            "sha256": result.fingerprint[1],
            "lines": result.lines,
            "bytes": result.bytes_out,
        }
        print(command_key(argv), commands[command_key(argv)])
    EXPECTED_FILE.write_text(json.dumps({"commands": commands}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
