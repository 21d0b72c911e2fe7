"""Run one relaydde CLI invocation the way the console script runs it.

    python3 perfbench/cli_child.py [--trace] <relaydde arguments>

Needs the package on PYTHONPATH. Exits with the CLI's exit code. After the
CLI's own output it writes its peak resident memory to standard error on a
line that starts with ``HWM_MARKER``. With ``--trace`` it first installs
the tracing wrappers and also writes its spans and counts, as one line
that starts with ``tracing.TRACE_MARKER``. Only the standard library's
``sys`` is imported before the CLI, so an untraced run measures the CLI's
own start-up.
"""

import sys

HWM_MARKER = "#perfbench-hwm "


def vm_hwm_kb() -> int:
    """Peak resident memory of this process's own address space, in kB.

    getrusage's ru_maxrss is not used: a child spawned through vfork starts
    from its parent's peak, so it would report the harness's memory.
    """
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def main(argv: list[str]) -> int:
    rec = None
    if argv[:1] == ["--trace"]:
        from tracing import Recorder

        argv = argv[1:]
        rec = Recorder()
        rec.install()
    from relaydde.cli import main as cli_main

    code = cli_main(argv)
    sys.stdout.flush()
    if rec is not None:
        import json

        from tracing import TRACE_MARKER

        sys.stderr.write("\n" + TRACE_MARKER + json.dumps(rec.dump()) + "\n")
    sys.stderr.write(f"\n{HWM_MARKER}{vm_hwm_kb()}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
