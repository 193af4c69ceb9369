#!/usr/bin/env python3
"""Judges the paper benches' GATE lines against bench/gates.txt.

  python3 bench/check_gates.py BENCH OUTPUT
      Checks one bench's saved output against its bounds.
  python3 bench/check_gates.py --run BUILD_DIR [--scale SCALE]
      Runs every bench the bounds file names from BUILD_DIR at SCALE
      (tiny, default or large; tiny when omitted) and checks each.
      X100IR_BENCH_DIR defaults to BUILD_DIR/bench_data at tiny scale and
      BUILD_DIR/bench_data_SCALE otherwise, so each scale keeps its indexes.
      Some gates arm only at default scale and above (Table 1's MaxScore
      parity, Table 3's modeled speedup).

Prints PASS, FAIL or DISABLED for every gate. Exits 1 when a gate fails,
when a gate it needs is missing from the output, when a bench exits
non-zero, or when a bench binary is missing from BUILD_DIR.
"""
import operator
import os
import subprocess
import sys

BOUNDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gates.txt")
SCALES = ("tiny", "default", "large")
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}


def load_bounds(text):
    """Parses bounds into (bench, gate, op, bound, armed_by) tuples."""
    bounds = []
    for n, line in enumerate(text.splitlines(), 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) not in (4, 5) or fields[2] not in OPS:
            raise ValueError("bounds line %d is malformed: %s" % (n, line))
        bounds.append(tuple(fields) + (None,) * (5 - len(fields)))
    return bounds


def parse_gates(output):
    """Maps each `GATE <name> <value>` line's name to its value; a
    non-finite value, printed as null, reads as NaN and fails any bound."""
    gates = {}
    for line in output.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] == "GATE":
            gates[fields[1]] = float("nan" if fields[2] == "null" else fields[2])
    return gates


def fmt(value):
    return "%d" % value if value.is_integer() else "%g" % value


def check(bench, output, bounds):
    """Returns a (verdict, description) pair per bound of `bench`."""
    gates = parse_gates(output)
    results = []
    for name, gate, op, bound, armed_by in bounds:
        if name != bench:
            continue
        value = gates.get(gate)
        try:
            limit = float(bound)
        except ValueError:
            limit = gates.get(bound)
        rule = "%s: %s %s %s" % (bench, gate, op, bound)
        armed = True
        if armed_by is not None:
            rule += " if " + armed_by
            flag = gates.get(armed_by.lstrip("!"))
            armed = None if flag is None else (
                (flag != 0) != armed_by.startswith("!"))
        if value is None or limit is None or armed is None:
            results.append(("FAIL", rule + " (missing)"))
            continue
        verdict = ("DISABLED" if not armed else
                   "PASS" if OPS[op](value, limit) else "FAIL")
        results.append((verdict, "%s (read %s)" % (rule, fmt(value))))
    if not results:
        raise ValueError("no bounds for bench " + bench)
    return results


def report(results):
    for verdict, description in results:
        print("%-8s %s" % (verdict, description))
    return all(verdict != "FAIL" for verdict, _ in results)


def run_all(build_dir, bounds, scale="tiny"):
    env = dict(os.environ, X100IR_BENCH_SCALE=scale)
    data = "bench_data" if scale == "tiny" else "bench_data_" + scale
    env.setdefault("X100IR_BENCH_DIR", os.path.join(build_dir, data))
    env.pop("X100IR_BENCH_JSON", None)  # a gate check is never a baseline
    summary = []
    for bench in dict.fromkeys(b[0] for b in bounds):
        print("=== bench_%s ===" % bench, flush=True)
        binary = os.path.join(build_dir, "bench_" + bench)
        if not os.path.isfile(binary):
            summary.append(("FAIL", "%s: not built" % bench))
            continue
        run = subprocess.run([binary], env=env, stdout=subprocess.PIPE,
                             text=True)
        sys.stdout.write(run.stdout)
        if run.returncode != 0:
            summary.append(("FAIL", "%s: exited with status %d" %
                            (bench, run.returncode)))
        summary += check(bench, run.stdout, bounds)
    print("=== gates ===")
    return report(summary)


def main(argv):
    with open(BOUNDS) as f:
        bounds = load_bounds(f.read())
    scale = "tiny"
    if len(argv) == 5 and argv[3] == "--scale" and argv[4] in SCALES:
        scale = argv[4]
        argv = argv[:3]
    if len(argv) == 3 and argv[1] == "--run":
        ok = run_all(argv[2], bounds, scale)
    elif len(argv) == 3 and not argv[1].startswith("-"):
        with open(argv[2]) as f:
            ok = report(check(argv[1], f.read(), bounds))
    else:
        sys.exit(__doc__)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
