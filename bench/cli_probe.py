"""One CLI invocation with the CPU speed probe running in it, for the
untraced cli_session workload.

    python bench/cli_probe.py OUT.json <posetmetrics command line>

Does what `python -m posetmetrics.cli <command line>` does, and exits with
its code, while speed.SpeedProbe samples this process's vCPU.  Writes to
OUT.json the mean speed and the seconds this wrapper added to the command:
importing and warming up the probe, and the probe's samples.  The parent
takes those seconds off the command's latency and scales the rest by the
speed.  json and fractions are imported before the clock starts: the CLI
imports both anyway, so their cost stays part of the command.
"""

import fractions  # noqa: F401
import json
import sys
import time


def main() -> int:
    entered = time.perf_counter()
    import speed

    probe = speed.SpeedProbe()
    probe.start()
    ready = time.perf_counter()
    try:
        import posetmetrics.cli as cli

        return cli.main(sys.argv[2:])
    finally:
        probe.stop()
        probe.burst(1)  # a command shorter than the sampling interval still gets a sample
        record = {
            "added_s": ready - entered + probe.spent_s,
            "speed": sum(probe.speeds) / len(probe.speeds),
            "samples": len(probe.speeds),
        }
        with open(sys.argv[1], "w", encoding="utf-8") as out:
            json.dump(record, out)


if __name__ == "__main__":
    sys.exit(main())
