"""``python -m ellab`` with span wrappers installed, for the traced cli run.

Usage: python cli_child.py SRC_DIR OUT_JSON ARG...
Runs the ellab entry point on ARG... exactly as ``python -m ellab`` does,
then writes per-function calls and self time, and every lru_cache's
counters, to OUT_JSON.  Exits with the entry point's exit code.
"""

import json
import runpy
import sys


def main():
    src, out_path = sys.argv[1:3]
    sys.path.insert(0, src)
    import ops  # imports ellab and ellab.cli, so their functions can be wrapped
    from tracer import Tracer

    tracer = Tracer(span_cap=0)
    tracer.install()
    sys.argv = ["ellab", *sys.argv[3:]]
    code = 0
    tracer.active = True
    try:
        runpy.run_module("ellab", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.active = False
        caches = {name: list(cache.cache_info()[:2]) for name, cache in ops.lru_caches().items()}
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"functions": tracer.totals(), "caches": caches}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
