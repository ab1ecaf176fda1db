"""Time one fresh interpreter's set-up for a workload: import gradecho (the
CLI's import, scipy included), then build and validate the workload's
generated inputs, stopping before the first integrate.  Prints one JSON
object.  run.py starts this script; by hand:

    PYTHONPATH=src python3 benchmarks/setup_probe.py run-fig3a 1 <workdir>
"""

if __name__ == "__main__":
    import time

    t_start = time.perf_counter()
    import gradecho.cli  # noqa: F401

    t_import = time.perf_counter()
    import json
    import sys
    from pathlib import Path

    from workloads import prepare

    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    t_end = time.perf_counter()
    print(json.dumps({"setup_s": t_end - t_start, "import_s": t_import - t_start}))
