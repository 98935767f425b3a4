"""One benchmark process: a set-up probe or one `cfrank pipeline` run.

    python -m perfbench.child probe|plain|traced RESULT.json -- CLI_ARGS...

Every mode goes through `cfrank.cli.main`, so the process pays the same
interpreter start, imports and config resolution as `cfrank pipeline`.
`probe` empties the stage list and stops where the first stage would begin;
`plain` records stage spans only; `traced` also wraps every layer listed in
perfbench.tracer, estimates what the wrappers cost, and writes all spans to
RESULT.json.spans.jsonl.gz. The result file holds monotonic-clock
timestamps, which the parent compares with its own.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    mode, result_path = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    from cfrank import cli

    if mode == "probe":
        cli.PIPELINE_STAGES = ()
        code = cli.main(cli_args)
        result = {"code": code, "first_stage_start": time.monotonic()}
    else:
        from perfbench.tracer import Tracer

        tracer = Tracer(layers=(mode == "traced"))
        tracer.install()
        try:
            code = cli.main(cli_args)
        finally:
            tracer.uninstall()
        result = {
            "code": code,
            "stages": tracer.stage_spans(),
            "failed_stages": tracer.failed_stages,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if mode == "traced":
            result["layers"] = tracer.layer_metrics()
            result["layers"]["trace.wrapper_overhead_s"] = tracer.wrapper_overhead_s()
            tracer.write_spans(result_path + ".spans.jsonl.gz")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
