"""Start the span recorder in a traced stormfields command.

This directory is put on ``PYTHONPATH`` only for traced runs; the recorder
starts when ``PERFBENCH_TRACE_DIR`` names the directory that receives the
spans.  Untraced runs never see this file.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
