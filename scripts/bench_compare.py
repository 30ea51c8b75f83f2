#!/usr/bin/env python3
"""Compare two bench_ablation_coding reports and fail on a bpp_cm regression.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json
    bench_compare.py --bench PATH/TO/bench_ablation_coding BASELINE.json

With --bench, the candidate report is produced by running the bench binary
into a temporary file first (this is how the `coding_guard` CTest uses it).

Records are matched by (dataset, image). A record regresses when the
candidate's bpp_cm rises by more than MAX_REGRESSION_PCT relative to the
baseline — the context-mixing coder must not quietly lose compression
ground. bpp_huffman comes from fixed Annex-K tables, so any change there
means the transform/eval inputs moved and the comparison is skipped as not
comparable. Coding bpp is deterministic, so it compares fine across
machines; comparability only needs the same eval_size.

Exit codes: 0 = no regression, 1 = regression (or malformed input),
77 = skipped because the reports are not comparable (different eval_size
or Huffman baseline; CTest maps 77 to SKIP via SKIP_RETURN_CODE).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_SKIP = 77

MAX_REGRESSION_PCT = 2.0


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(EXIT_REGRESSION)
    if report.get("bench") != "ablation_coding" or "records" not in report:
        print(f"bench_compare: {path} is not an ablation_coding report",
              file=sys.stderr)
        sys.exit(EXIT_REGRESSION)
    return report


def provenance_line(name, report):
    prov = report.get("provenance") or {}
    env = prov.get("env") or {}
    env_note = f", {len(env)} DCDIFF_* env override(s)" if env else ""
    return (f"  {name}: eval_size={report.get('eval_size')} "
            f"git_sha={prov.get('git_sha')} build_type={prov.get('build_type')}"
            f"{env_note}")


def pct_change(base, cand):
    if base == 0:
        return 0.0
    return (cand - base) / base * 100.0


def compare(baseline, candidate):
    if baseline.get("eval_size") != candidate.get("eval_size"):
        print(f"bench_compare: SKIP — eval_size differs "
              f"({baseline.get('eval_size')} vs "
              f"{candidate.get('eval_size')}); bpp not comparable",
              file=sys.stderr)
        return EXIT_SKIP

    base_recs = {(r["dataset"], r["image"]): r for r in baseline["records"]}
    cand_recs = {(r["dataset"], r["image"]): r for r in candidate["records"]}
    shared = sorted(set(base_recs) & set(cand_recs))
    if not shared:
        print("bench_compare: no common (dataset, image) records",
              file=sys.stderr)
        return EXIT_REGRESSION

    # bpp_huffman is fixed Annex-K tables on the same deterministic inputs:
    # a mismatch means the eval substrate itself changed, and cm-vs-cm deltas
    # would be measuring the wrong thing.
    for key in shared:
        b, c = base_recs[key], cand_recs[key]
        if abs(b["bpp_huffman"] - c["bpp_huffman"]) > 1e-9:
            print(f"bench_compare: SKIP — bpp_huffman differs on "
                  f"{key[0]} image {key[1]} ({b['bpp_huffman']:.6f} vs "
                  f"{c['bpp_huffman']:.6f}); eval inputs changed, cm deltas "
                  f"not comparable", file=sys.stderr)
            return EXIT_SKIP

    failures = []
    print(f"{'dataset':>10} {'img':>4} {'bpp_huffman':>12} {'cm_base':>9} "
          f"{'cm_cand':>9} {'change':>8}")
    for key in shared:
        b, c = base_recs[key], cand_recs[key]
        change = pct_change(b["bpp_cm"], c["bpp_cm"])
        flag = ""
        if change > MAX_REGRESSION_PCT:
            flag = "  REGRESSION"
            failures.append(
                f"{key[0]} image {key[1]}: bpp_cm {b['bpp_cm']:.4f} -> "
                f"{c['bpp_cm']:.4f} ({change:+.1f}%, "
                f"limit +{MAX_REGRESSION_PCT:.1f}%)")
        print(f"{key[0]:>10} {key[1]:>4} {b['bpp_huffman']:>12.4f} "
              f"{b['bpp_cm']:>9.4f} {c['bpp_cm']:>9.4f} "
              f"{change:>+7.1f}%{flag}")

    mb = baseline.get("mean_cm_reduction_pct")
    mc = candidate.get("mean_cm_reduction_pct")
    if mb is not None and mc is not None:
        print(f"\nmean cm reduction vs huffman: baseline {mb:.2f}%, "
              f"candidate {mc:.2f}%")

    if failures:
        print("\nbench_compare: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return EXIT_REGRESSION
    print(f"\nbench_compare: OK ({len(shared)} record(s) within "
          f"{MAX_REGRESSION_PCT:.1f}%)")
    return EXIT_OK


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", help="baseline ablation_coding report")
    ap.add_argument("candidate", nargs="?",
                    help="candidate ablation_coding report (omit with --bench)")
    ap.add_argument("--bench", metavar="BIN",
                    help="run this bench_ablation_coding binary to produce "
                         "the candidate")
    args = ap.parse_args()
    if bool(args.candidate) == bool(args.bench):
        ap.error("pass exactly one of CANDIDATE or --bench")

    baseline = load_report(args.baseline)

    tmp = None
    try:
        if args.bench:
            fd, tmp = tempfile.mkstemp(prefix="bench_compare_", suffix=".json")
            os.close(fd)
            cmd = [args.bench, "--out", tmp]
            print(f"bench_compare: running {' '.join(cmd)}")
            proc = subprocess.run(cmd)
            # The bench exits non-zero when its own win-condition gate
            # fails; the comparison below is this script's verdict, so only
            # a missing report is fatal here.
            if not os.path.getsize(tmp):
                print(f"bench_compare: {args.bench} wrote no report "
                      f"(exit {proc.returncode})", file=sys.stderr)
                return EXIT_REGRESSION
            candidate = load_report(tmp)
        else:
            candidate = load_report(args.candidate)

        print(provenance_line("baseline ", baseline))
        print(provenance_line("candidate", candidate))
        return compare(baseline, candidate)
    finally:
        if tmp:
            os.unlink(tmp)


if __name__ == "__main__":
    sys.exit(main())
