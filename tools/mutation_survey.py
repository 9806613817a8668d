"""Statement-deletion mutation survey of src/pmlog: what no test would notice.

Usage:
    python3 tools/mutation_survey.py

Each mutant replaces one statement inside a function body of a src/pmlog
module (docstrings and `pass` excepted, nested statements included) with
`pass`.  The mutants are made one at a time in a temporary copy of the
working tree, and each runs that module's tests plus tests/test_values.py,
tests/test_golden.py and tests/test_acceptance.py under `pytest -x`, as many
at once as the machine has CPUs.  A failing run kills the mutant, a run past
TIMEOUT counts as detected (hung), and a passing run is a survivor.  Each
run may use 1 GiB of address space; a mutant that needs more fails.  The
unmutated copy must pass the same tests first.

Prints each survivor as `module.py:line  statement`, then one row per module:
mutants, killed, hung, survived.  Progress goes to standard error.  A SIGTERM
stops the survey: the test runs in progress are killed and the temporary
copies removed.  Uses the standard library and the pytest the tests already
need; it is not a test module, and the tier-1 run (tests/) does not collect
it.
"""

from __future__ import annotations

import ast
import concurrent.futures
import contextlib
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "pmlog"
# test_values.py holds the contract of the value classes of every module.
ALWAYS = ["tests/test_values.py", "tests/test_golden.py", "tests/test_acceptance.py"]
# A module's own tests are tests/test_<module>.py, but for these.
TESTS = {"cli": ["tests/test_cli.py", "tests/test_cli_fuzz.py"]}
TIMEOUT = 60.0  # seconds per mutant


def tests_for(module: str) -> list[str]:
    own = f"tests/test_{module}.py"
    return TESTS.get(module, [own] if (ROOT / own).exists() else []) + ALWAYS


def _is_docstring(parent: ast.AST, field: str, index: int, node: ast.stmt) -> bool:
    return (
        index == 0
        and field == "body"
        and isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def targets(source: str) -> list[ast.stmt]:
    """Every statement inside a function body, outermost first, but for
    docstrings and `pass`, whose mutants would be the program itself."""
    found: list[ast.stmt] = []

    def walk(node: ast.AST, inside: bool) -> None:
        for field, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for index, child in enumerate(children):
                if isinstance(child, ast.stmt):
                    skip = isinstance(child, ast.Pass) or _is_docstring(node, field, index, child)
                    if inside and not skip:
                        found.append(child)
                    function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    walk(child, inside or function)
                elif isinstance(child, ast.AST):
                    walk(child, inside)

    walk(ast.parse(source), False)
    return found


def mutate(source: str, node: ast.stmt) -> str:
    # Splice `pass` over the statement's own text, from its first decorator
    # if it has one, so every other line keeps its text and comments.
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    decorators = getattr(node, "decorator_list", [])
    first = decorators[0] if decorators else node
    start = starts[first.lineno - 1] + first.col_offset - (1 if decorators else 0)  # the "@"
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return source[:start] + "pass" + source[end:]


# pytest under an address-space limit, so that a mutant which drops a cap
# fails with MemoryError instead of filling the machine's memory.
LAUNCH = (
    "import resource, sys; limit = int(sys.argv.pop(1));"
    " resource.setrlimit(resource.RLIMIT_AS, (limit, limit));"
    " import pytest; sys.exit(pytest.main(sys.argv[1:]))"
)
MEMORY_LIMIT = 2**30


def _end(proc: subprocess.Popen) -> None:
    # Kill a run's whole session, the programs its tests started too, unless
    # it has exited.
    if proc.poll() is None:
        with contextlib.suppress(ProcessLookupError):  # it exited meanwhile
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _stop(signum, frame) -> None:
    # A SIGTERM unwinds the survey like an exception, so its cleanup runs.
    raise SystemExit(128 + signum)


def run_tests(tree: Path, tests: list[str], timeout: float, running: set) -> str:
    """'passed', 'failed' or 'hung' for pytest -x over tests in the copy at
    tree; the run is in `running` while it runs, so that a stop can end it."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    pytest = ["-x", "-q", "-p", "no:cacheprovider", *tests]
    command = [sys.executable, "-c", LAUNCH, str(MEMORY_LIMIT), *pytest]
    proc = subprocess.Popen(
        command,
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # so a timeout ends the programs the tests start too
    )
    running.add(proc)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "hung"
    finally:
        running.discard(proc)
        _end(proc)


def make_copy(parent: Path, index: int) -> Path:
    # The whole working tree, since some tests read perfbench/ too.
    tree = parent / f"tree{index}"
    skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT, tree, ignore=skip)
    return tree


def survey() -> int:
    signal.signal(signal.SIGTERM, _stop)
    modules = sorted(path.stem for path in (ROOT / PACKAGE).glob("*.py"))
    jobs = os.cpu_count() or 1
    mutants = []
    for module in modules:
        source = (ROOT / PACKAGE / f"{module}.py").read_text()
        for node in targets(source):
            mutants.append((module, source, node))
    running: set[subprocess.Popen] = set()
    # A SIGTERM between making the directory and the `with` owning it would
    # leave the directory behind, so it waits, blocked, until the `with` owns
    # it; it is unblocked before any child, which inherits the mask, starts.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    with tempfile.TemporaryDirectory(prefix="mutation-survey-") as temp:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        copies: queue.Queue[Path] = queue.Queue()
        for index in range(jobs):
            copies.put(make_copy(Path(temp), index))
        every_test = sorted({test for module in modules for test in tests_for(module)})
        tree = copies.get()
        baseline = run_tests(tree, every_test, TIMEOUT * len(modules), running)
        copies.put(tree)
        if baseline != "passed":
            print(f"the unmutated tree {baseline} its tests; no survey", file=sys.stderr)
            return 2

        def outcome_of(mutant) -> str:
            module, source, node = mutant
            mutated = mutate(source, node)
            try:
                compile(mutated, f"{module}.py", "exec")
            except SyntaxError:
                return "invalid"
            tree = copies.get()
            path = tree / PACKAGE / f"{module}.py"
            try:
                path.write_text(mutated)
                outcome = run_tests(tree, tests_for(module), TIMEOUT, running)
            finally:
                path.write_text(source)
                copies.put(tree)
            print(f"{outcome:7} {module}.py:{node.lineno}", file=sys.stderr)
            return outcome

        pool = concurrent.futures.ThreadPoolExecutor(max_workers=jobs)
        try:
            outcomes = list(pool.map(outcome_of, mutants))
        finally:
            # On a stop, start no more mutants and end the running ones, so
            # the workers return before the copies are removed.
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in running.copy():
                _end(proc)
            pool.shutdown()

    columns = ("mutants", "killed", "hung", "survived", "invalid")
    table = {module: dict.fromkeys(columns, 0) for module in [*modules, "total"]}
    for (module, _, node), outcome in zip(mutants, outcomes):
        column = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
        for row in (table[module], table["total"]):
            row["mutants"] += 1
            row[column] += 1
        if outcome == "passed":
            print(f"{module}.py:{node.lineno}  {ast.unparse(node).splitlines()[0]}")
    print()
    print(f"{'module':14}" + "".join(f"{column:>9}" for column in columns))
    for module, row in table.items():
        print(f"{module:14}" + "".join(f"{row[column]:9}" for column in columns))
    return 0


if __name__ == "__main__":
    sys.exit(survey())
