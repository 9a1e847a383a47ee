"""Command-line front end.

    skyrmelab run <config|shipped-name>
    skyrmelab sweep <config> --axis section.key=v1,v2,...
    skyrmelab norms <snapshot> --s 1.5 [--p 2 --q 1 --dim 5] [--out file.csv]
    skyrmelab verify <suite>

Exit codes: 0 success, 1 a criterion/check failed, 2 bad configuration,
3 I/O failure.  SKYRMELAB_OUT overrides where artifacts land (default: cwd).
"""
import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

from .config import _PARSERS, parse_config
from .errors import ConfigError, DomainError
from .runio import ScenarioReport, output_root, read_snapshot, run_scenario
from .scenarios import scenario_names, scenario_path
from .spectral import RadialProfile, besov_norm
from .verify import SUITES, format_reports, run_suite

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# sweep.csv columns in order; each that names a ScenarioReport field is read
# from the row's report, which keeps the field's default when the row errs
SWEEP_COLUMNS = ("axis", "value", "status", "blew_up", "final_sup_u", "final_energy",
                 "energy_drift", "final_deficit", "deficit_ratio", "error_vs_exact",
                 "observed_order", "checks_failed")


def _load_config_text(target):
    """Config text for a path or a shipped scenario name; OSError if neither."""
    path = Path(target)
    if path.is_file():
        return path.read_text(), path.stem
    if target in scenario_names():
        return scenario_path(target).read_text(), target
    raise FileNotFoundError(f"no config file or shipped scenario named {target!r} "
                            f"(shipped: {', '.join(scenario_names())})")


def _cmd_run(args):
    text, name = _load_config_text(args.config)
    cfg = parse_config(text, name=name)
    report = run_scenario(cfg)
    print(cfg.echo(), end="")
    print(f"# artifacts: {report.outdir}")
    print(report.table())
    return EXIT_OK if report.passed else EXIT_CRITERION


def _axis_values(spec):
    if "=" not in spec:
        raise ConfigError("--axis wants section.key=v1,v2,...")
    key, _, raw = spec.partition("=")
    key = key.strip()
    if "." not in key:
        key = "run." + key
    section, _, field = key.partition(".")
    if section not in ("run", "data"):
        raise ConfigError(f"axis section must be run or data, got {section!r}")
    if field not in _PARSERS[section]:
        raise ConfigError(f"unknown key {field!r} in section [{section}]")
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if len(values) < 2:
        raise ConfigError("a sweep needs at least two axis values")
    return section, field, values


def _fmt_cell(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _cmd_sweep(args):
    text, name = _load_config_text(args.config)
    parse_config(text, name=name)  # fail fast on the template itself
    section, field, values = _axis_values(args.axis)
    axis = f"{section}.{field}"
    root = output_root() / f"{name}-sweep"
    report_columns = [f.name for f in fields(ScenarioReport) if f.name in SWEEP_COLUMNS]
    rows = []
    for idx, value in enumerate(values):
        rep = ScenarioReport(scenario=name, checks=[], runtime_s=0.0)
        status = "ok"
        override = f"\n[{section}]\n{field} = {value}\n"
        try:
            cfg = parse_config(text + override, name=f"{name}-{idx}")
            rep = run_scenario(cfg, outdir=root / f"row-{idx}-{field}={value}")
            if not rep.passed:
                status = "check-failed"
        except (ConfigError, DomainError) as e:
            # keep the CSV one-cell-per-field
            status = "error: " + str(e).replace(",", ";").replace("\n", " ")
        row = {c: getattr(rep, c) for c in report_columns}
        row.update(axis=axis, value=value, status=status,
                   checks_failed=sum(1 for c in rep.checks if not c.passed))
        rows.append(row)

    # derived columns; nan wherever a neighbour is missing or failed
    for idx, row in enumerate(rows):
        prev = rows[idx - 1] if idx else None
        ratio = math.nan
        if prev and prev["final_deficit"] > 0 and row["final_deficit"] > 0:
            ratio = prev["final_deficit"] / row["final_deficit"]
        row["deficit_ratio"] = ratio
        order = math.nan
        if (axis == "run.N" and prev
                and prev["error_vs_exact"] > 0 and row["error_vs_exact"] > 0):
            order = (math.log(prev["error_vs_exact"] / row["error_vs_exact"])
                     / math.log(float(row["value"]) / float(prev["value"])))
        row["observed_order"] = order

    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in SWEEP_COLUMNS))
    root.mkdir(parents=True, exist_ok=True)
    out = root / "sweep.csv"
    out.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"# wrote {out}")
    ok = all(r["status"] == "ok" for r in rows)
    return EXIT_OK if ok else EXIT_CRITERION


def _parse_q(raw):
    if raw.lower() in ("inf", "infinity", "oo"):
        return math.inf
    return float(raw)


def _cmd_norms(args):
    state = read_snapshot(args.snapshot)
    profile = RadialProfile(state.v, state.grid, dim=args.dim)
    stem = Path(args.snapshot).stem
    lines = ["profile_id,n,s,p,q,value,truncation_bound"]
    q = _parse_q(args.q)
    q_txt = "inf" if math.isinf(q) else "%g" % q
    for s in args.s:
        result = besov_norm(profile, s, args.p, q)
        lines.append(f"{stem},{args.dim},{s:g},{args.p:g},{q_txt},"
                     f"{result.value:.17g},{result.truncation_bound:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    print(text, end="")
    return EXIT_OK


def _cmd_verify(args):
    reports = run_suite(args.suite)
    print(format_reports(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CRITERION


def build_parser():
    top = argparse.ArgumentParser(
        prog="skyrmelab",
        description="Radial wave-map / Skyrme / Adkins-Nappi numerical laboratory")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate one configured scenario")
    p.add_argument("config", help="config file path or shipped scenario name")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="rerun a config over an axis of values")
    p.add_argument("config")
    p.add_argument("--axis", required=True, metavar="section.key=v1,v2,...")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("norms", help="Besov/Sobolev norms of a snapshot's field")
    p.add_argument("snapshot")
    p.add_argument("--s", type=float, nargs="+", required=True,
                   help="one or more regularity exponents")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", default="2")
    p.add_argument("--dim", type=int, default=5, choices=(3, 5))
    p.add_argument("--out", help="also write the CSV here")
    p.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.set_defaults(fn=_cmd_verify)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
