"""Print each executable line of src/skyrmelab/ that the Tier-1 tests never run.

    python3 scripts/line_coverage.py [extra pytest arguments]

Runs pytest on tests/ in this process under a sys.settrace tracer, so it
needs only the standard library.  A line is executable when the compiler
gives it an instruction (code.co_lines).  Each entry of ALLOWED excuses one
unreached line, named by file, function and text; a second unreached line with
the same name is reported, and an allowance whose line runs or no longer exists
is reported as stale.  Exits 0 when nothing else is unreached and the tests pass, 1
otherwise.  The tracer slows the suite down, which is why Tier-1 does not
run this.
"""
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "skyrmelab"

# (module file name, qualified name of the enclosing function, stripped source
# line) -> why no Tier-1 test runs it; keyed by text rather than line number, so
# that edits elsewhere in a file keep it
ALLOWED = {
    ("solver.py", "_rk4_stepper.<locals>.rates", 'raise DomainError("non-finite field samples")'):
        "the stepper's stage guard; huge data reach it, and the benchmark's self-test expects "
        "that DomainError until blow-up becomes a flag there too (ROADMAP item 3)",
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only when the module is executed as a script",
}


def executable_lines(path):
    """{line number: qualified name of the innermost code that owns it} over the
    lines that carry an instruction in the module or any code nested in it."""
    owners = {}
    stack = [compile(Path(path).read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        owners.update((line, code.co_qualname) for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return owners


def lines_run(paths, fn):
    """fn's result and {path: line numbers run} over the given source files while fn runs."""
    names = {os.path.realpath(p): str(p) for p in paths}
    resolved = {}
    seen = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in resolved:
            resolved[filename] = names.get(os.path.realpath(filename))
        if resolved[filename] is None:
            return None
        seen[resolved[filename]].add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return result, seen


def unreached(paths, fn):
    """fn's result and {path: sorted executable lines that never ran}, leaving out
    the files whose every line ran."""
    result, seen = lines_run(paths, fn)
    missed = {str(p): sorted(executable_lines(p).keys() - seen[str(p)]) for p in paths}
    return result, {p: lines for p, lines in missed.items() if lines}


def main(argv):
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    rc, missed = unreached(paths, lambda: pytest.main(
        ["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *argv]))
    allowed_hits = set()
    count = 0
    for path in paths:
        source = path.read_text().splitlines()
        owners = executable_lines(path)
        for line in missed.get(str(path), ()):
            text = source[line - 1].strip()
            key = (path.name, owners[line], text)
            if key in ALLOWED and key not in allowed_hits:
                allowed_hits.add(key)
                continue
            count += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    stale = sorted(set(ALLOWED) - allowed_hits)
    for name, owner, text in stale:
        print(f"stale allowance: {name}: {owner}: {text}")
    total = sum(len(executable_lines(p)) for p in paths)
    print(f"{count} unreached of {total} executable lines "
          f"({len(allowed_hits)} allowed, {len(stale)} stale allowances)")
    return 1 if count or stale or rc else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
