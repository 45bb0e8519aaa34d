"""Memory one `swipe predict` needs, measured in a fresh process.

    python3 perfbench/memprobe.py <checkpoint> <documents.jsonl> <out.jsonl>

Imports swipe from this checkout's src/, reads the resident set just before
the command and its high-water mark just after, and prints both in MB as one
JSON object on the last line. A fresh process holds no memory from earlier
work, so the difference is what the command itself needed: the model, the
documents, the records and any cache the program fills. run.py starts it
with BLAS/OpenMP already pinned to one thread in the environment.
"""

import json
import sys
from pathlib import Path


def status_mb(field: str) -> float | None:
    """A memory field of /proc/self/status (`VmRSS`, `VmHWM`) in MB; None off Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    checkpoint, documents, out = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import swipe.cli

    before = status_mb("VmRSS")
    code = swipe.cli.main(["predict", "--checkpoint", checkpoint, "--corpus", documents,
                           "--out", out])
    print(json.dumps({"exit": code, "rss_before_mb": before,
                      "rss_peak_mb": status_mb("VmHWM")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
