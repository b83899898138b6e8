"""One instrumented `tegraph train` process.

Usage: python3 child.py JOB.json

JOB.json holds `src` (directory holding the tegraph package), `argv` (the
`tegraph` command line), `address_space_bytes`, `result` (where to write
the measurements) and the Recorder settings `trace`, `deadline_s`,
`stop_after_epochs` and `probe`.  The address-space ceiling is applied
before numpy is imported, so a run that outgrows its budget fails here
instead of pushing the machine out of memory.
"""
from __future__ import annotations

import json
import resource
import sys


def vm_peak_kb() -> int | None:
    """Peak address-space size, to show the headroom under the ceiling."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(job_path: str) -> int:
    with open(job_path) as stream:
        job = json.load(stream)
    limit = int(job["address_space_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, job["src"])

    import tegraph.cli
    from hooks import Recorder, Stop

    recorder = Recorder(trace=job["trace"], deadline_s=job["deadline_s"],
                        stop_after_epochs=job["stop_after_epochs"], probe=job["probe"])
    stopped = None
    with recorder.installed():
        try:
            code = tegraph.cli.main(job["argv"])
        except Stop as exc:
            code, stopped = 0, str(exc)
    result = recorder.result()
    result["exit_code"] = code
    result["stopped"] = stopped
    result["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["vm_peak_kb"] = vm_peak_kb()
    with open(job["result"], "w") as stream:
        json.dump(result, stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
