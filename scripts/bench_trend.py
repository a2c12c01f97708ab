#!/usr/bin/env python3
"""Host-speed trend over a series of eip-bench/v1 artifacts (stdlib only).

Aggregates two metric families from BENCH_*.json files given in
chronological order (oldest first):

  host-MIPS — per-config means of every host-speed table (tables whose
              title mentions "MIPS", e.g. BENCH_simspeed.json);
  sampled host-MIPS — the same, restricted to sampled-mode rows
              (configs containing "sampled"): the SMARTS-schedule win
              is gated as its own family so a sampling-path slowdown
              cannot hide inside the full-mode mean;
  warm QPS  — mean served-QPS of the warm rounds of the eipd request
              storm (tables with a "served_qps" column and "warm-*"
              rows, e.g. BENCH_servestorm.json).

Prints one trend row per artifact and family (value plus the delta
against the previous artifact of the same family) and exits non-zero
when any family's newest artifact regressed more than the threshold
against its predecessor. This is a CI gate, not an advisory report;
set EIP_BENCH_REGRESS_OK=1 to acknowledge an expected regression (the
trend still prints, the exit code is forced to 0).

Artifacts carrying neither family are listed but excluded from the
trend — never silently dropped.

Usage: scripts/bench_trend.py [--threshold PCT] BENCH.json [BENCH.json...]

Exit codes: 0 no regression (or fewer than two comparable artifacts,
or EIP_BENCH_REGRESS_OK=1), 1 regression beyond the threshold,
2 usage/unreadable input.

History mode keeps the repository benchmark's perf trajectory. Each
line of bench/history/<fingerprint>.jsonl is one eipbench run:
{"rev", "fingerprint", "meta", "result"}, where meta is the run's
`meta` line and result its final JSON line. The fingerprint digests
the host fields of meta (cpu_model, nproc, parallelism, compiler,
build_type), so a file holds runs of one host only.

  --record DIR [--rev LABEL] < eipbench-stdout
      append one run to DIR/<fingerprint>.jsonl (LABEL defaults to
      meta.git_describe);
  --history FILE.jsonl [FILE.jsonl...]
      check every line's format and fingerprint, then print, per
      fingerprint and (workload, traced), the median of each metric
      BENCHMARK.json names (end-to-end for untraced runs, per-layer for
      traced ones) per rev in file order, with the delta against the
      previous rev. Medians are never compared across fingerprints.
      Exit 0, or 2 on a malformed line; a report, not a gate.
"""

import hashlib
import json
import os
import statistics
import sys

HOST_FIELDS = ("cpu_model", "nproc", "parallelism", "compiler",
               "build_type")
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def mips_values(doc, sampled=False):
    """Per-config mean host-MIPS from every host-speed table of one
    eip-bench/v1 document, or None when the document has none. With
    @p sampled, only sampled-mode rows (config contains "sampled")
    contribute; without it, only full-mode rows do — the two families
    trend independently."""
    configs = {}
    for table in doc.get("tables", []):
        if "MIPS" not in table.get("title", ""):
            continue
        for row in table.get("rows", []):
            if ("sampled" in str(row.get("config", ""))) != sampled:
                continue
            values = [v for v in row.get("values", [])
                      if isinstance(v, (int, float))]
            if values:
                configs.setdefault(row.get("config", "?"), []).append(
                    sum(values) / len(values))
    if not configs:
        return None
    return {config: sum(means) / len(means)
            for config, means in configs.items()}


def sampled_mips_values(doc):
    return mips_values(doc, sampled=True)


def qps_values(doc):
    """Per-round warm served-QPS from the request-storm tables of one
    eip-bench/v1 document (rows named warm-*, column served_qps), or
    None when the document has none."""
    rounds = {}
    for table in doc.get("tables", []):
        columns = table.get("columns", [])
        if "served_qps" not in columns:
            continue
        qps_col = columns.index("served_qps")
        for row in table.get("rows", []):
            if not str(row.get("config", "")).startswith("warm"):
                continue
            values = row.get("values", [])
            if qps_col < len(values) and isinstance(values[qps_col],
                                                    (int, float)):
                rounds.setdefault(row["config"], []).append(
                    values[qps_col])
    if not rounds:
        return None
    return {name: sum(vals) / len(vals) for name, vals in rounds.items()}


def print_family(name, unit, trend):
    """One trend table; returns the newest artifact's delta-pct (0.0
    with fewer than two artifacts)."""
    print(f"\n{name} trend")
    print(f"{'artifact':<40} {'git':<18} {'mean ' + unit:>10} {'delta':>8}")
    previous = None
    delta_pct = 0.0
    for path, git, members, overall in trend:
        if previous is None or previous == 0.0:
            delta = "-"
        else:
            delta_pct = 100.0 * (overall - previous) / previous
            delta = f"{delta_pct:+.1f}%"
        print(f"{path:<40} {git:<18} {overall:>10.3f} {delta:>8}")
        for member in sorted(members):
            print(f"  {member:<38} {'':<18} {members[member]:>10.3f}")
        previous = overall
    return delta_pct if len(trend) >= 2 else 0.0


def fingerprint(meta):
    """16 hex digits of SHA-256 over the host fields of a meta line."""
    host = {field: meta.get(field) for field in HOST_FIELDS}
    canon = json.dumps(host, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def record(argv):
    """Append the run on stdin (eipbench stdout) to DIR/<fp>.jsonl."""
    if not argv or (len(argv) != 1 and (len(argv) != 3 or
                                        argv[1] != "--rev")):
        print("bench-trend: --record DIR [--rev LABEL]", file=sys.stderr)
        return 2
    meta = result = None
    for line in sys.stdin:
        line = line.strip()
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if meta is None or result is None:
        print("bench-trend: stdin holds no meta line and result JSON",
              file=sys.stderr)
        return 2
    fp = fingerprint(meta)
    rev = argv[2] if len(argv) == 3 else meta.get("git_describe", "?")
    path = os.path.join(argv[0], fp + ".jsonl")
    os.makedirs(argv[0], exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps({"rev": rev, "fingerprint": fp, "meta": meta,
                            "result": result}, separators=(",", ":")))
        f.write("\n")
    print(path)
    return 0


def history(paths):
    """Format check plus per-rev medians; see the module docstring."""
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    # Untraced runs report the gated end-to-end metrics, traced runs
    # the per-layer ones.
    wanted = {False: [m["name"] for m in bench["end_to_end"]],
              True: [m["name"] for m in bench["per_layer"]]}
    # fingerprint -> (workload, traced) -> rev -> metric -> [values].
    hosts = {}
    for path in paths:
        stem = os.path.basename(path)[:-len(".jsonl")]
        try:
            with open(path) as f:
                lines = f.readlines()
        except OSError as err:
            print(f"bench-trend: {path}: unreadable: {err}",
                  file=sys.stderr)
            return 2
        for number, line in enumerate(lines, 1):
            where = f"{path}:{number}"
            try:
                run = json.loads(line)
                meta, result = run["meta"], run["result"]
                traced = bool(meta["traced"])
                values = {m: float(result["metrics"][m]["value"])
                          for m in wanted[traced]}
                key = (meta["workload"], traced)
                rev = str(run["rev"])
            except (ValueError, KeyError, TypeError) as err:
                print(f"bench-trend: {where}: malformed run: {err!r}",
                      file=sys.stderr)
                return 2
            fp = fingerprint(meta)
            if run.get("fingerprint") != fp or stem != fp:
                print(f"bench-trend: {where}: fingerprint {fp} of its "
                      f"meta does not match the line or the file name",
                      file=sys.stderr)
                return 2
            if result.get("correct") is not True:
                print(f"{where}: run reports correct != true")
            revs = hosts.setdefault(fp, {}).setdefault(key, {})
            for m, value in values.items():
                revs.setdefault(rev, {}).setdefault(m, []).append(value)
    for fp, groups in hosts.items():
        print(f"\nhost {fp}")
        for (workload, traced), revs in groups.items():
            counts = ", ".join(f"{rev} n={len(next(iter(v.values())))}"
                               for rev, v in revs.items())
            print(f"{workload}{' (traced)' if traced else ''}: {counts}")
            for m in wanted[traced]:
                cells = []
                previous = None
                for by_metric in revs.values():
                    median = statistics.median(by_metric[m])
                    cell = f"{median:.4g}"
                    if previous:
                        delta = 100.0 * (median - previous) / abs(previous)
                        cell += f" ({delta:+.0f}%)"
                    cells.append(f"{cell:>16}")
                    previous = median
                print(f"  {m:<32}" + " ".join(cells))
    print(f"\nbench-trend: history OK ({len(paths)} file(s))")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--history":
        if len(argv) < 3 or not all(p.endswith(".jsonl") for p in argv[2:]):
            print("bench-trend: --history FILE.jsonl [FILE.jsonl...]",
                  file=sys.stderr)
            return 2
        return history(argv[2:])
    if len(argv) > 1 and argv[1] == "--record":
        return record(argv[2:])
    threshold = 10.0
    paths = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--threshold":
            try:
                threshold = float(next(args))
            except (StopIteration, ValueError):
                print("bench-trend: --threshold needs a number",
                      file=sys.stderr)
                return 2
        elif arg in ("--help", "-h"):
            print(__doc__.strip())
            return 0
        else:
            paths.append(arg)
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    # family -> [(path, git_describe, per-member means, overall mean)].
    families = {"host-MIPS": [], "sampled host-MIPS": [], "warm QPS": []}
    units = {"host-MIPS": "MIPS", "sampled host-MIPS": "MIPS",
             "warm QPS": "QPS"}
    for path in paths:
        try:
            with open(path, "rb") as f:
                doc = json.load(f)
        except (OSError, ValueError) as err:
            print(f"bench-trend: {path}: unreadable: {err}",
                  file=sys.stderr)
            return 2
        if doc.get("schema") != "eip-bench/v1":
            print(f"bench-trend: {path}: schema is "
                  f"{doc.get('schema')!r}, expected eip-bench/v1",
                  file=sys.stderr)
            return 2
        git = doc.get("git_describe", "?")
        matched = False
        for family, extract in (("host-MIPS", mips_values),
                                ("sampled host-MIPS", sampled_mips_values),
                                ("warm QPS", qps_values)):
            members = extract(doc)
            if members is None:
                continue
            overall = sum(members.values()) / len(members)
            families[family].append((path, git, members, overall))
            matched = True
        if not matched:
            print(f"{path}: no host-speed or request-storm table "
                  f"(bench {doc.get('bench')!r}) — excluded from trend")

    if not any(families.values()):
        print("bench-trend: no comparable artifacts")
        return 0

    regressions = []
    for family, trend in families.items():
        if not trend:
            continue
        delta_pct = print_family(family, units[family], trend)
        if delta_pct < -threshold:
            regressions.append((family, delta_pct))

    counted = sum(len(t) for t in families.values())
    if regressions:
        for family, delta_pct in regressions:
            print(f"bench-trend: REGRESSION: newest {family} is "
                  f"{-delta_pct:.1f}% below its predecessor "
                  f"(threshold {threshold:.1f}%)", file=sys.stderr)
        if os.environ.get("EIP_BENCH_REGRESS_OK") == "1":
            print("bench-trend: EIP_BENCH_REGRESS_OK=1 — regression "
                  "acknowledged, exiting 0", file=sys.stderr)
            return 0
        return 1
    print(f"\nbench-trend: OK ({counted} family entries, "
          f"threshold {threshold:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
