"""One fresh benchmark process: import tentlab.cli, then do one job.

Run by bench/run.py as `python3 bench/child.py '<json spec>'`.  The spec
names the checkout's `src` directory, a result file, and a mode:

* ``setup``  import tentlab.cli and stop (a set-up sample);
* ``run``    call tentlab.cli.run_command(argv), traced when asked;
* ``micro``  run the layer micro-suite (bench/micro.py).

With ``gauge`` set, the host-speed gauge (bench/hostspeed.py) samples from
the moment tentlab.cli is ready until the job ends.  The result file
receives the monotonic time at which tentlab.cli was ready, the exit
status, the peak RSS, the gauge samples, and the spans or micro metrics.
On Linux time.monotonic() reads one clock for every process, so the
parent subtracts its own start time to get the set-up time.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak resident set.

    ru_maxrss is not enough on Linux: exec keeps the high-water mark of the
    memory it replaces, which after vfork is the parent's.  VmHWM belongs
    to the new image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import tentlab.cli

    ready = time.monotonic()
    result = {"ready": ready, "code": 0, "gauge": []}
    if spec.get("gauge"):
        import hostspeed

        hostspeed.start(result["gauge"])
    try:
        if spec["mode"] == "run":
            if spec["trace"]:
                import tracer

                rec = tracer.Recorder()
                tracer.install(rec)
                idx = rec.open("cli.run_command")
                try:
                    result["code"] = tentlab.cli.run_command(spec["argv"])
                finally:
                    rec.close(idx)
                result.update(spans=rec.spans, counts=rec.counts, absent=rec.absent)
            else:
                result["code"] = tentlab.cli.run_command(spec["argv"])
        elif spec["mode"] == "micro":
            import micro

            result["micro"] = micro.run()
    finally:
        if spec.get("gauge"):
            hostspeed.stop()
    result["maxrss_kb"] = peak_rss_kb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["code"]


if __name__ == "__main__":
    sys.exit(main())
