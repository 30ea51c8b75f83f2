#!/usr/bin/env python3
"""Exit-code test of scripts/bench_compare.py on a checked-in coding report.

coding_guard only ever reaches the comparer's pass path, so a comparer that
always exits 0 would still pass it. This runs the comparer three ways and
fails unless each verdict is the expected one:

  * the baseline against itself                        -> 0  (no regression)
  * one record's bpp_cm raised by 3% (limit is 2%)     -> 1  (regression)
  * eval_size changed                                  -> 77 (not comparable)

Usage: bench_compare_test.py PATH/TO/bench_compare.py BASELINE.json
"""

import json
import os
import subprocess
import sys
import tempfile


def run(script, baseline, candidate):
    proc = subprocess.run([sys.executable, script, baseline, candidate],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    return proc.returncode, proc.stdout


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    script, baseline = sys.argv[1], sys.argv[2]
    with open(baseline, "r", encoding="utf-8") as f:
        report = json.load(f)

    with tempfile.TemporaryDirectory(prefix="bench_compare_test_") as tmp:
        def write(name, edited):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(edited, f)
            return path

        raised_report = json.loads(json.dumps(report))
        raised_report["records"][0]["bpp_cm"] *= 1.03
        raised = write("raised.json", raised_report)

        resized_report = json.loads(json.dumps(report))
        resized_report["eval_size"] *= 2
        resized = write("resized.json", resized_report)

        cases = [("self", baseline, 0),
                 ("bpp_cm +3%", raised, 1),
                 ("eval_size changed", resized, 77)]
        failed = 0
        for name, candidate, want in cases:
            got, out = run(script, baseline, candidate)
            verdict = "ok" if got == want else "WRONG"
            print(f"{name}: exit {got}, want {want} ... {verdict}")
            if got != want:
                print(out)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
