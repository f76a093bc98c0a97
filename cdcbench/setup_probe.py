"""One benchmark set-up in a fresh interpreter; prints its seconds.

    python3 cdcbench/setup_probe.py WORKLOAD SEED

Set-up is what a pass needs before recording starts: the imports, the
workload's program build and a temporary directory. Its wall time is
scaled to the reference host speed, as the pipeline's phases are
(``hostspeed.py``). ``run.py`` runs this several times and reports the
median as ``setup_s``.
"""

import sys

import hostspeed

with hostspeed.Section() as section:
    import tempfile

    from run import pipeline  # (run imports all a benchmark run imports)

    pipeline.Bench(sys.argv[1], int(sys.argv[2]), workdir="")
    pipeline.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="setup-", dir=pipeline.WORK):
        pass
print(section.seconds)
