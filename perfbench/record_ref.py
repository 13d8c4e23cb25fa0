#!/usr/bin/env python3
"""Record the reference rows that run.py checks at the default seed.

  python3 perfbench/record_ref.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose outputs become the
reference. Writes perfbench/ref/<workload>_seed<DEFAULT_SEED>.csv: the
CSV rows of every invocation of the workload, in run order, under one
header.
"""

import contextlib
import io
import sys

import run  # pins BLAS threads before numpy loads, as in measured runs
import workloads as wl


def main(names):
    sys.path.insert(0, str(run.ROOT / "src"))
    from ehshare import cli_sweep

    wl.REF_DIR.mkdir(exist_ok=True)
    for name in names or wl.WORKLOADS:
        header, body = None, []
        for inv in wl.invocations(name, wl.DEFAULT_SEED):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli_sweep.main(list(inv.argv))
            first, *rows = buf.getvalue().splitlines(keepends=True)
            header = header or first
            body += rows
        wl.ref_path(name).write_text(header + "".join(body))
        print(f"{wl.ref_path(name)}: {len(body)} rows")


if __name__ == "__main__":
    main(sys.argv[1:])
