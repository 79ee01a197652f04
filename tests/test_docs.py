"""The documents name commands and modules that exist.

Every ``python -m repro ...`` command in the repository's Markdown files
(code blocks and backtick spans, joined across line breaks) and in the
usage lines of ``repro.cli``'s docstring must parse with the real parser.
A usage form (``[--only NAMES]``, ``a | b``, ``<placeholder>``) cannot be
parsed as written, so only its verb and its ``--flags`` are checked.  Every
backticked dotted ``repro.…`` name must import or resolve as an attribute,
and every ``tests/…::name`` or ``benchmarks/…::name`` must name an existing
file and a top-level ``def``, ``class`` or assignment in it.

At the root only the reference documents (README, DESIGN, EXPERIMENTS) are
checked: the other root documents are plans and history that quote the
commands of their day.  Documents in subdirectories are all checked.
"""

import argparse
import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
ROOT_REFERENCE = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
SKIPPED_DIRS = {".git", ".pytest_cache", ".hypothesis", ".benchmarks", "bench_out"}

FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
SPAN = re.compile(r"`([^`]+)`")
COMMAND = re.compile(r"python -m repro\b(.*)")
DOTTED = re.compile(r"(?<![\w/.])repro(?:\.\w+)+")
REFERENCE = re.compile(r"(?<![\w/.])((?:tests|benchmarks)/[\w/.-]+?\.py)::(\w+)")


def documents():
    for path in sorted(ROOT.rglob("*.md")):
        parts = path.relative_to(ROOT).parts
        if SKIPPED_DIRS.intersection(parts):
            continue
        if len(parts) == 1 and path.name not in ROOT_REFERENCE:
            continue
        yield path


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def commands_and_names(path):
    """(line, command tail) and (line, dotted name) for one document."""
    text = path.read_text()
    commands, names = [], []
    for block in FENCE.finditer(text):
        for index, line in enumerate(block.group().splitlines()):
            match = COMMAND.search(line.split(" #", 1)[0])
            if match:
                at = line_of(text, block.start()) + index
                commands.append((at, match.group(1).rstrip()))
    # Blank out the code blocks (keeping line numbers) before reading spans.
    prose = FENCE.sub(lambda m: "\n" * m.group().count("\n"), text)
    for span in SPAN.finditer(prose):
        line, body = line_of(prose, span.start()), " ".join(span.group(1).split())
        match = COMMAND.search(body)
        if match:
            commands.append((line, match.group(1)))
        names.extend((line, name) for name in DOTTED.findall(body))
    return commands, names


def top_level_names(source):
    names = set()
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def stale_references(path, where):
    """How many ``tests/…::name`` references one document makes, and a
    ``where:line: reference`` line for each that names no file or no
    top-level name in it."""
    text = path.read_text()
    references = list(REFERENCE.finditer(text))
    stale = [
        f"{where}:{line_of(text, match.start())}: {match.group()}"
        for match in references
        for source in [ROOT / match.group(1)]
        if not source.is_file() or match.group(2) not in top_level_names(source)
    ]
    return len(references), stale


def cli_usage_lines():
    """(line, command tail) for the usage lines of the CLI docstring."""
    return [
        (index + 1, match.group(1))
        for index, line in enumerate(repro.cli.__doc__.splitlines())
        for match in [COMMAND.search(line)]
        if match
    ]


def verbs(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def problem(parser, tail):
    """Why ``python -m repro <tail>`` does not parse, or None."""
    argv = tail.split()
    if re.search(r"[\[\]|<>]", tail):
        if not argv or argv[0].startswith("<"):
            return None
        verb = verbs(parser).get(argv[0])
        if verb is None:
            return f"unknown verb {argv[0]!r}"
        known = set(verb._option_string_actions)
        unknown = [t for t in re.findall(r"--[\w-]+", tail) if t not in known]
        return f"unknown options {unknown}" if unknown else None
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            parser.parse_args(argv)
    except SystemExit:
        return err.getvalue().strip().splitlines()[-1]
    return None


def resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_documented_commands_parse():
    parser = build_parser()
    checked, failures = 0, []
    sources = [
        (path.relative_to(ROOT), commands_and_names(path)[0]) for path in documents()
    ]
    sources.append((Path("src/repro/cli.py (docstring)"), cli_usage_lines()))
    for where, commands in sources:
        for line, tail in commands:
            checked += 1
            why = problem(parser, tail)
            if why:
                failures.append(f"{where}:{line}: python -m repro{tail}: {why}")
    assert checked >= 30, checked
    assert not failures, "\n".join(failures)


def test_documented_dotted_names_resolve():
    checked, failures = 0, []
    for path in documents():
        for line, name in commands_and_names(path)[1]:
            checked += 1
            if not resolves(name):
                failures.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert checked >= 30, checked
    assert not failures, "\n".join(failures)


def test_documented_test_references_exist():
    checked, failures = 0, []
    for path in documents():
        count, stale = stale_references(path, path.relative_to(ROOT))
        checked += count
        failures.extend(stale)
    assert checked >= 7, checked
    assert not failures, "\n".join(failures)


def test_a_stale_test_reference_fails_with_its_file_and_line(tmp_path):
    planted = tmp_path / "PLANTED.md"
    module = "tests/trace/test_passivity.py"
    gone = f"{module}::test_tracing_off_leaves_sink_output_byte_identical"
    kept = f"{module}::test_profiler_leaves_sink_output_byte_identical"
    planted.write_text(f"Passivity:\n\n- `{kept}`;\n- `{gone}`.\n")
    assert stale_references(planted, "PLANTED.md") == (2, [f"PLANTED.md:4: {gone}"])
