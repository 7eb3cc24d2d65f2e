"""Entry point of the benchmark's child interpreters.

    child.py setup SPECS_JSON
        Fresh-interpreter set-up probe: import jensengap and jensengap.cli,
        build the given function models, print the times as JSON (CPU time
        of the process so far, and wall time since this script started).
    child.py pass WORKLOAD SEED TRACED OUT_JSON
        Run the workload's fixed traced-run requests after a warm-up, with
        or without tracing, and write a summary to OUT_JSON.
    child.py cli TRACE_JSON ARGS...
        Run `jensengap.cli ARGS` with tracing and write its trace to TRACE_JSON.
"""

from time import perf_counter, process_time

_T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from common import RUN_DIR, bootstrap  # noqa: E402


def setup(specs_json: str) -> int:
    bootstrap()
    import jensengap  # noqa: F401
    import jensengap.cli  # noqa: F401
    from jensengap.scenario import model_from_spec

    t_import = perf_counter()
    for spec in json.loads(specs_json):
        model_from_spec(spec)
    # CPU time of the whole process, interpreter start-up included; unlike
    # wall time it leaves out time the virtual CPU was taken by the host
    cpu_s = process_time()
    t_end = perf_counter()
    print(json.dumps({"cpu_s": cpu_s, "wall_s": t_end - _T0, "import_s": t_import - _T0}))
    return 0


def run_pass(workload: str, seed: str, traced: str, out: str) -> int:
    bootstrap()
    import tracer
    import workloads

    wl = workloads.WORKLOADS[workload](int(seed))
    for i in range(wl.warmup):
        wl.execute(wl.request(i))
    requests = [wl.request(wl.warmup + k) for k in range(wl.trace_requests)]
    summary: dict = {}
    if traced == "1":
        trace_dir = None
        if wl.child_processes:
            trace_dir = RUN_DIR / "cli-traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
        tr = tracer.Tracer()
        tr.install()
        scenarios = 0
        t0 = perf_counter()
        try:
            for req in requests:
                with tr.root("bench.request", req.index):
                    scenarios += wl.execute(req, trace_dir)[0]
        finally:
            elapsed = perf_counter() - t0
            tr.uninstall()
        parts = [tr.summary()]
        spans = tr.spans()
        if trace_dir is not None:
            for req in requests:
                for part in ("gen", "check"):
                    child = json.loads((trace_dir / f"{req.index}-{part}.json").read_text())
                    parts.append(child["summary"])
                    offset = len(spans)
                    spans += [
                        [n, t0_, t1_, p + offset if p >= 0 else p, req.index]
                        for n, t0_, t1_, p, _ in child["spans"]
                    ]
        summary["trace"] = tracer.merge(parts)
        tracer.write_spans(RUN_DIR / f"spans-{workload}.csv", spans)
    else:
        observed = []
        scenarios = 0
        t0 = perf_counter()
        for req in requests:
            n, obs = wl.execute(req)
            scenarios += n
            observed.append((req, obs))
        elapsed = perf_counter() - t0
        tally = workloads.Tally()
        for req, obs in observed:
            wl.check(req, obs, tally)
        summary["tally"] = tally.__dict__
    summary["scenarios"] = scenarios
    summary["elapsed_s"] = elapsed
    with open(out, "w") as fh:
        json.dump(summary, fh)
    return 0


def cli(trace_json: str, *args: str) -> int:
    bootstrap()
    import tracer
    from jensengap import cli as jcli

    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.root("cli.main", -1):
            rc = jcli.main(list(args))
    finally:
        tr.uninstall()
    sys.stdout.flush()
    with open(trace_json, "w") as fh:
        json.dump({"summary": tr.summary(), "spans": tr.spans()}, fh)
    return rc


if __name__ == "__main__":
    commands = {"setup": setup, "pass": run_pass, "cli": cli}
    sys.exit(commands[sys.argv[1]](*sys.argv[2:]))
