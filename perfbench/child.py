"""One ctqw CLI run in a fresh process, measured from the inside.

    python3 child.py ROOT COMMAND CONFIG OUT RESULT MODE

MODE is "setup" (import and config load only), "plain" (one untraced
`ctqw.cli.main` call) or "trace" (the same call with every layer wrapped).
ctqw is imported from ROOT/src. RESULT receives a JSON object with the
exit code, setup_s, wall_s, peak_rss_mb and, when traced, the layer split.
A crash leaves no RESULT file.
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    root, command, config, out, result_path, mode = sys.argv[1:7]
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import ctqw.cli

    if src not in Path(ctqw.__file__).resolve().parents:
        print(f"ctqw was imported from {ctqw.__file__}, not from {src}", file=sys.stderr)
        return 1
    json.loads(Path(config).read_text(encoding="utf-8"))
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    setup_s = time.perf_counter() - START
    result = {"exit": 0, "setup_s": setup_s}
    if mode != "setup":
        argv = [command, "--config", config, "--out", out, "--jobs", "1"]
        t0 = time.perf_counter()
        if tracer is None:
            code = ctqw.cli.main(argv)
        else:
            code = tracer.root(ctqw.cli.main, argv)
        result["wall_s"] = time.perf_counter() - t0
        result["exit"] = code
        if tracer is not None:
            result["trace"] = tracer.report()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
