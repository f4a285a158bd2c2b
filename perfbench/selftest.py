#!/usr/bin/env python3
"""Self-test of the silc benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Builds like run.py, then checks, in about three minutes:

  * contract: every workload's untraced run prints exactly BENCHMARK.json's
    end-to-end metrics and its traced run exactly the per-layer rows, with
    the declared units, and both are correct;
  * determinism: two traced runs of each workload with one seed report the
    same value for every count that must repeat (windows, cells reproved,
    cache hits at one thread, ...);
  * delay attribution: a fault::Kind::Delay armed at drc.hier.cell
    (cold_ladder) and at incr.drc (edit_verify) shows up in that layer's
    drc row, about as large as the delays served, and in no other row
    beyond that row's noise.

Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build lives there)

WORKLOADS = ["cold_ladder", "batch_mixed", "edit_verify"]
SEED = 7

# Rows that must repeat exactly between two runs with one seed.
DETERMINISTIC = {
    "cold_ladder": ["assemble.rects", "extract.transistors", "drc.windows",
                    "drc.window_area", "extract.windows",
                    "drc.cache.hit_ratio", "extract.cache.hit_ratio",
                    "error_rate"],
    "batch_mixed": ["drc.cache.hit_ratio", "extract.cache.hit_ratio",
                    "error_rate"],
    "edit_verify": ["incr.cells_reproved", "incr.cells_reused",
                    "drc.window_reuse_ratio", "incr.fallback_flat",
                    "error_rate"],
}

# Delay attribution: site, delay per hit, the row that must absorb the
# delay, the rows that are the operation wall itself (they absorb it too,
# by design). The cold_ladder delay is large enough that the injected total
# dwarfs the run-to-run noise of its counter12-dominated rows.
DELAYS = {
    "cold_ladder": ("drc.hier.cell", 60, "drc.hier_ms", "injected_ms_per_pass",
                    []),
    "edit_verify": ("incr.drc", 20, "drc.incr_ms", "injected_ms_per_step",
                    ["core.verify_ms"]),
}

SCRATCH = os.path.join(run.BUILD, "selftest-%d" % os.getpid())
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, seconds, inject=""):
    """One silc_perf run: (result JSON, report fields by name)."""
    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [run.BINARY, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", SCRATCH]
    if inject:
        cmd += ["--inject-delay", inject]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("silc_perf %s exited %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines:
        if line.startswith("report "):
            for field in line.split(":", 1)[1].split(";"):
                if "=" in field:
                    name, value = field.strip().split("=", 1)
                    report[name] = float(value.split()[0])
    return json.loads(lines[-1]), report


def main():
    if not run.build():
        raise SystemExit("build failed")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names the benchmark's workloads")

    clean_pairs = {}
    for w in WORKLOADS:
        result, _ = bench(w, False, 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == declared[False], w + ": untraced metrics match end_to_end")
        check(result["correct"] and result["failed"] == 0,
              w + ": untraced run correct")
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              w + ": every end-to-end metric is nonzero")
        first, _ = bench(w, True, 2)
        second, _ = bench(w, True, 2)
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        check(got == declared[True], w + ": traced rows match per_layer")
        check(first["correct"] and second["correct"], w + ": traced runs correct")
        for row in DETERMINISTIC[w]:
            a = first["metrics"][row]["value"]
            b = second["metrics"][row]["value"]
            check(a == b, "%s: %s repeats (%g, %g)" % (w, row, a, b))
        clean_pairs[w] = (first, second)

    for w, (site, delay_ms, row, injected_key, wall_rows) in DELAYS.items():
        clean, repeat = clean_pairs[w]
        delayed, report = bench(w, True, 2, "%s:%d" % (site, delay_ms))
        injected = report.get(injected_key, 0.0)
        check(injected > 0, "%s: delays fired at %s (%.1f ms)" % (w, site, injected))
        grew = delayed["metrics"][row]["value"] - clean["metrics"][row]["value"]
        check(abs(grew - injected) <= 0.25 * injected + 0.5 *
              clean["metrics"][row]["value"],
              "%s: %s grew by %.1f ms for %.1f ms injected" %
              (w, row, grew, injected))
        for name, unit in declared[True].items():
            if unit != "ms" or name == row or name in wall_rows:
                continue
            base = clean["metrics"][name]["value"]
            moved = delayed["metrics"][name]["value"] - base
            if base == 0 and moved == 0:
                continue  # a row this workload does not exercise
            # A row that absorbed the delay would grow by about the injected
            # total; allow half of it, or the row's noise: three times how
            # far two clean runs of it differ, at least a third of the row.
            noise = abs(repeat["metrics"][name]["value"] - base)
            allowed = max(0.5 * injected, 3 * noise, 0.35 * base)
            check(abs(moved) <= allowed,
                  "%s: %s unmoved by the delay (%+.2f ms of %.2f, noise %.2f)"
                  % (w, name, moved, base, noise))

    print("\n%d check(s) failed" % len(failures) if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
