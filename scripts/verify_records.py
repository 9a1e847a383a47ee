"""Write a verify suite's check records as JSON, or compare two such files.

    python3 scripts/verify_records.py write <suite> <out.json>
    python3 scripts/verify_records.py diff <old.json> <new.json>

`write` runs `skyrmelab verify <suite>` in process and stores one record per
check: report, check name, verdict, repr(value), the value as a float, and
the tolerance text.  `diff` prints each record whose repr moved, with its
relative change, and each record whose verdict or tolerance changed or that
only one file holds.  It exits 0 when every record is unchanged, 1 otherwise.
"""
import json
import math
import sys

USAGE = __doc__.split("\n\n")[1]


def records(suite):
    from skyrmelab.verify import run_suite  # here, so that `diff` runs without the package

    return [{"report": rep.scenario, "check": c.name, "passed": bool(c.passed),
             "repr": repr(c.value), "value": float(c.value), "tolerance": c.tolerance}
            for rep in run_suite(suite) for c in rep.checks]


def _rel(old, new):
    if old == new:
        return 0.0
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def diff(old, new):
    """One printable line per record that moved; empty when none did."""
    old = {(r["report"], r["check"]): r for r in old}
    new = {(r["report"], r["check"]): r for r in new}
    lines = []
    for key in list(old) + [k for k in new if k not in old]:
        name = "/".join(key)
        if key not in new or key not in old:
            lines.append(f"{name}: only in the {'old' if key in old else 'new'} file")
            continue
        a, b = old[key], new[key]
        if a["repr"] != b["repr"]:
            lines.append(f"{name}: {a['repr']} -> {b['repr']} "
                         f"(relative change {_rel(a['value'], b['value']):.3g})")
        for field in ("passed", "tolerance"):
            if a[field] != b[field]:
                lines.append(f"{name}: {field} {a[field]!r} -> {b[field]!r}")
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "write":
        with open(argv[2], "w") as fh:
            json.dump(records(argv[1]), fh, indent=1)
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        loaded = []
        for path in argv[1:]:
            with open(path) as fh:
                loaded.append(json.load(fh))
        lines = diff(*loaded)
        print("\n".join(lines) if lines else f"{len(loaded[1])} records unchanged")
        return 1 if lines else 0
    print(USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
