"""Work that has to run in a fresh interpreter.

    python3 perfbench/child.py setup WORKLOAD SEED WORKDIR
        import sisbox and do the workload's set-up; print {"import_s": ...}
    python3 perfbench/child.py cli SUMMARY_JSON ARGV...
        import sisbox, install the tracer, call sisbox.cli.main(ARGV) and
        write the span summary; exits with main's return code

sisbox is imported from the src/ directory of the checkout this file sits in.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _import_sisbox() -> float:
    start = time.perf_counter()
    import sisbox  # noqa: F401

    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    mode = argv[0]
    import_s = _import_sisbox()
    if mode == "setup":
        import workloads

        workloads.setup_in_child(argv[1], int(argv[2]), Path(argv[3]))
        print(json.dumps({"import_s": import_s}))
        return 0
    if mode == "cli":
        import sisbox.cli
        import tracing

        tracer = tracing.Tracer()
        tracer.install(include_cli=True)
        rc = sisbox.cli.main(argv[2:])
        tracer.end_op()
        summary = tracer.summary()
        summary["import_s"] = import_s
        Path(argv[1]).write_text(json.dumps(summary))
        return rc
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
