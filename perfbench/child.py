"""One run of glmn in a fresh process, started by run.py.

usage: child.py SRC CONFIG SIDECAR [--setup-only] [--trace]

Imports glmn from SRC and calls ``glmn.cli.main(["run", "--config",
CONFIG])``; the report goes to standard output. Set-up is ``import glmn``
plus the one call of ``glmn.cli.build_setting`` (field tables, algebra,
weight variety and any field extension), timed here. With --setup-only the
tasks are skipped. With --trace the public functions are wrapped in spans
first (spans.py). Timings, the exit code and any span totals are written as
JSON to SIDECAR.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    src, config, sidecar = argv[:3]
    flags = set(argv[3:])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import glmn.cli as cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"glmn imported from {cli.__file__}, not from {src}")

    tracer = None
    if "--trace" in flags:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    timing = {}
    build_setting = cli.build_setting

    def timed_build_setting(cfg):
        t0 = time.perf_counter()
        try:
            return build_setting(cfg)
        finally:
            timing["build_setting_s"] = time.perf_counter() - t0

    cli.build_setting = timed_build_setting
    out = {"import_s": import_s}
    if "--setup-only" in flags:
        cli.build_setting(cli.load_config(config))
        code = 0
        import numpy as np
        out["numpy"] = np.__version__
        out["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    else:
        code = cli.main(["run", "--config", config])
    out["build_setting_s"] = timing.get("build_setting_s")
    out["setup_s"] = import_s + timing.get("build_setting_s", float("nan"))
    out["exit_code"] = code
    if tracer is not None:
        out["trace"] = tracer.totals()
    with open(sidecar, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
