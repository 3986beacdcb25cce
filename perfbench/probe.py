"""Child-process probes, started by ``run.py`` in a fresh interpreter.

``probe.py setup`` imports the CLI, builds its parser and prints the
monotonic clock, which the parent compares with its own reading taken
just before it started the child. ``probe.py rss ARG...`` runs one CLI
command with its output discarded and prints the process's peak
resident set size in KiB. ``PYTHONPATH`` points at the checkout's
``src``; the parent sets it.
"""

import sys
import time


def _peak_rss_kib() -> int:
    """High-water resident set size of this address space, in KiB.

    ``VmHWM`` starts afresh at exec. ``ru_maxrss``, the fallback, can
    carry the parent's size over on Linux, which would make the result
    depend on how much memory the benchmark itself holds.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        from panelspec import cli

        cli.build_parser()
        print(repr(time.perf_counter()))
        return 0
    if argv[:1] == ["rss"]:
        import contextlib
        import io

        from panelspec import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv[1:])
        print(_peak_rss_kib())
        return code
    print(f"usage: probe.py setup | rss ARG...; got {argv}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
