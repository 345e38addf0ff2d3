"""Run ``replicasim.cli.main`` in process under the tracer and dump its spans.

Usage: python3 bench/cli_child.py SPANS_JSON OP_ID CLI_ARGS...

The cli-study workload starts this instead of ``python -m replicasim.cli`` in
its traced pass, so the CLI's layers are timed inside the child process that
runs them; the parent merges the dumped spans and counters.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402
from replicasim import cli  # noqa: E402


def main() -> int:
    out, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.op_id = op_id
    with tracer.installed():
        code = cli.main(argv)
    Path(out).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
