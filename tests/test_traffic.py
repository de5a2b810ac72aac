"""Every statement of the package is reached by what the program runs, or is
named here with the reason it stays.

The test line-traces (``sys.settrace``) in-process runs of the six commands
at small sizes and of the library calls that ``bench/workloads.py`` makes
itself, and fails on any function-body statement in ``src/artdiff/*.py``
that none of them reaches. Three kinds are exempt:

- error handling: a ``raise``, a block that ends in one, and an ``except``
  clause;
- the ``...`` body of a Protocol method;
- the statements ``ALLOWED`` names, each under the reason it stays.

An ``ALLOWED`` entry is ``"module.function"`` for a whole function body, or
``"module.function: text"`` for the statements of that function whose
first line, stripped, starts with ``text``. Every entry must name at least
one statement, and each one it names must be unreached: once a command
reaches it, the entry goes.

The same runs record which keyword defaults of the package's functions and
dataclasses some call overrides. A parameter that only ever takes one value
may be a constant, so the test also fails on each default that no call
overrides unless ``KEPT_DEFAULTS`` names it, as ``"module.function(name)"``,
under the reason it stays; an entry that a call overrides, or that names no
default, fails too.

``PYTHONPATH=src python tests/test_traffic.py`` prints, for each module, how
many statements the runs reached out of the total, and lists every
unreached statement and every default that no call overrides, grouped by
its reason.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import artdiff
from artdiff import cli, promptx
from artdiff.denoisers import ToyDenoiser, load_denoiser

PACKAGE = Path(artdiff.__file__).parent   # the code that runs: co_filename is __file__
DATA = Path(__file__).resolve().parent / "data"

ERROR_HANDLING = "error handling"
PROTOCOL_BODY = "a Protocol method's ... body"
NO_REASON = "no reason: reached by no command, no bench call and no ALLOWED entry"

ALLOWED = {
    "named in bench/tracer.py's tables, which a program change may not edit; "
    "ROADMAP item 1 step B deletes them or moves them to the tests": (
        "samplers.ddim_step",
        "samplers.ddpm_step",
        "samplers.cfg_combine",
        "samplers.plms_sample",
        "denoisers.GaussianOracle.predict",
        "promptx.HashEmbedder.embed",
        "promptx.score_candidate",
        "checkpoint.save_arrays",
    ),
    "attention over two or more condition tokens: criterion 06's gradient check "
    "runs it on per-row two-token memory; no command has such a condition until "
    "ROADMAP items 9 and 15 give it one": (
        'denoisers._project.project: return np.einsum("bnd,wd->bnw"',
        "denoisers._attend: q = h @ params.wq.T",
        "denoisers._attend: weights = softmax(",
        "denoisers._attend: z = (weights[:, None, :] @ v)",
        "denoisers._attend_backward: d_weights = ",
        "denoisers._attend_backward: dv = ",
        "denoisers._attend_backward: ds = ",
        "denoisers._attend_backward: dq = ",
        "denoisers._attend_backward: dkk = ",
        "denoisers._attend_backward: grads.wq[...] = ",
        "denoisers._attend_backward: grads.wk[...] = ",
        "denoisers._attend_backward: grads.wv[...] = ",
        "denoisers._attend_backward: return dq @ params.wq",
        "numerics.softmax",
        "denoisers.PreparedToyDenoiser._attention: return _attend(",
    ),
    "the conditioning caption of an artwork: tests only until ROADMAP item 9's "
    "captions use it": (
        "promptx.compose_caption",
    ),
    "builds the error that load_denoiser raises on a bad checkpoint: error "
    "handling the block rule cannot see, since it is a function of its own": (
        "denoisers.load_denoiser.bad",
    ),
    "a shape check whose call raises on a mismatch: error handling the block "
    "rule cannot see, since the block ends in a call": (
        "samplers.plms_combine: require_same_shape(",
        "samplers._run_row.floats: require_same_shape(",
    ),
}

KEPT_DEFAULTS = {
    "named in bench/tracer.py's tables, which a program change may not edit; "
    "ROADMAP item 1 step B deletes them or moves them to the tests": (
        "denoisers.GaussianOracle.predict(condition)",
        "samplers.ddim_step(rng)",
        "samplers.ddpm_step(condition)",
        "samplers.plms_sample(condition)",
    ),
    "the prompt embedding's width: ROADMAP item 9 embeds prompts as condition "
    "tokens COND_WIDTH wide": (
        "promptx.HashEmbedder.__init__(width)",
    ),
    "the EpsilonPredictor contract's guidance scale: the oracle takes no condition, "
    "so no run passes it a scale, and no run calls the Protocol's own method": (
        "denoisers.EpsilonPredictor.prepare(scale)",
        "denoisers.GaussianOracle.prepare(scale)",
    ),
}


# ---------------------------------------------------------------------------
# the statements of the package
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Statement:
    module: str
    function: str       # dotted, as __qualname__ without "<locals>"
    first: int          # first and last source line
    last: int
    text: str           # the first line, stripped
    exempt: str | None  # ERROR_HANDLING, PROTOCOL_BODY or None

    def where(self) -> str:
        return f"src/artdiff/{self.module}.py:{self.first} in {self.function}: {self.text}"


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _blocks(stmt: ast.stmt):
    """The statement blocks of a compound statement, each with whether it
    is an ``except`` clause."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if block:
            yield block, False
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body, True


def _block(module: str, lines: list[str], body: list[ast.stmt], function: str,
           protocol: bool, error: bool, out: list[Statement]) -> None:
    """The statements of one block of ``function``'s body, nested blocks
    and functions included; ``error`` marks a block of error handling."""
    for stmt in body:
        if isinstance(stmt, ast.FunctionDef):
            _function(module, lines, stmt, f"{function}.{stmt.name}", False, out)
        elif isinstance(stmt, ast.ClassDef):
            _class(module, lines, stmt, function, out)
        elif hasattr(stmt, "body"):
            for block, handler in _blocks(stmt):
                _block(module, lines, block, function, protocol,
                       error or handler or isinstance(block[-1], ast.Raise), out)
        else:
            exempt = None
            if error or isinstance(stmt, ast.Raise):
                exempt = ERROR_HANDLING
            elif (protocol and isinstance(stmt, ast.Expr)
                  and isinstance(stmt.value, ast.Constant) and stmt.value.value is Ellipsis):
                exempt = PROTOCOL_BODY
            out.append(Statement(module, function, stmt.lineno, stmt.end_lineno,
                                 lines[stmt.lineno - 1].strip(), exempt))


def _function(module: str, lines: list[str], node, name: str, protocol: bool,
              out: list[Statement]) -> None:
    # a function's own body that ends in raise is not an error block
    body = node.body[1:] if _is_docstring(node.body[0]) else node.body
    _block(module, lines, body, name, protocol, False, out)


def _class(module: str, lines: list[str], node: ast.ClassDef, scope: str | None,
           out: list[Statement]) -> None:
    name = node.name if scope is None else f"{scope}.{node.name}"
    protocol = any(getattr(base, "id", None) == "Protocol" for base in node.bases)
    for member in node.body:
        if isinstance(member, ast.FunctionDef):
            _function(module, lines, member, f"{name}.{member.name}", protocol, out)
        elif isinstance(member, ast.ClassDef):
            _class(module, lines, member, name, out)


def module_statements(module: str, text: str) -> list[Statement]:
    """Every function-body statement of one module's source, in file
    order. Module and class level statements run at import, before any
    trace, and are left out."""
    out: list[Statement] = []
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef):
            _function(module, lines, node, node.name, False, out)
        elif isinstance(node, ast.ClassDef):
            _class(module, lines, node, None, out)
    return out


def package_statements() -> list[Statement]:
    return [stmt for path in sorted(PACKAGE.glob("*.py"))
            for stmt in module_statements(path.stem, path.read_text(encoding="utf-8"))]


def allowed_reasons(statements: list[Statement]) -> tuple[dict[Statement, str],
                                                          dict[str, list[Statement]]]:
    """The ALLOWED reason of each statement an entry names, and the
    statements each entry names."""
    reasons: dict[Statement, str] = {}
    named: dict[str, list[Statement]] = {}
    for reason, entries in ALLOWED.items():
        for entry in entries:
            target, _, text = entry.partition(": ")
            module, _, function = target.partition(".")
            named[entry] = [s for s in statements
                            if s.module == module and s.function == function
                            and s.text.startswith(text) and s.exempt is None]
            for stmt in named[entry]:
                reasons[stmt] = reason
    return reasons, named


# ---------------------------------------------------------------------------
# the traffic
# ---------------------------------------------------------------------------

def keyword_defaults() -> dict:
    """The code object of each function and method of the package that has
    keyword defaults, a dataclass's ``__init__`` included, mapped to its
    name and its {parameter: default}."""
    out = {}

    def add(module: str, func) -> None:
        defaults = {name: p.default for name, p in inspect.signature(func).parameters.items()
                    if p.default is not p.empty}
        if defaults:
            out[func.__code__] = (f"{module}.{func.__qualname__}", defaults)

    def members(module: str, cls) -> None:
        for member in vars(cls).values():
            member = getattr(member, "__func__", member)   # classmethod, staticmethod
            if inspect.isfunction(member):
                add(module, member)
            elif inspect.isclass(member) and member.__module__ == cls.__module__:
                members(module, member)

    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"artdiff.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                add(path.stem, obj)
            elif inspect.isclass(obj):
                members(path.stem, obj)
    return out


def _is_default(value, default) -> bool:
    return value is default or (type(value) is type(default) and value == default)


def trace_lines(run) -> tuple[dict[str, set[int]], set[tuple]]:
    """The source lines of the package that ``run()`` executes, per module,
    and the (code, parameter) of each keyword default (``keyword_defaults``)
    that some call passed another value for. Only the package's frames are
    traced line by line; the tracer that was set before (a coverage tool's,
    say) is set again afterwards."""
    files = {str(path): path.stem for path in PACKAGE.glob("*.py")}
    defaults = keyword_defaults()
    hits: dict[str, set[int]] = defaultdict(set)
    overridden: set[tuple] = set()

    def local(frame, event, arg):
        if event == "line":
            hits[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code in defaults:    # a dataclass __init__ is code of no package file
            args = frame.f_locals
            overridden.update((code, name) for name, default in defaults[code][1].items()
                              if not _is_default(args[name], default))
        return local if code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits, overridden


def _cli(*argv) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, f"exit {code}: artdiff {' '.join(argv)}"


def run_traffic(work: Path) -> None:
    """The six commands at small sizes, then the library calls that
    bench/workloads.py makes itself, at the same small sizes."""
    cli.build_parser.cache_clear()   # built once per process, maybe before the trace

    # schedule-dump: flags, a config file (with a comment and a blank line)
    # rewriting a longer file, and ARTDIFF_OUT in place of --out
    config = work / "schedule.cfg"
    config.write_text("# five steps\n\ntimesteps = 5\nbeta_end=0.03\n")
    _cli("schedule-dump", "--timesteps", 8, "--out", work / "sched")
    _cli("schedule-dump", "--config", config, "--out", work / "sched")
    with mock.patch.dict(os.environ, {cli.ENV_OUT: str(work / "env-out")}):
        _cli("schedule-dump", "--timesteps", 3)

    # toy-train: conditional Adam on the ring, SGD on two-moons at another
    # beta_start, learning rate and seed, and the unlabeled line
    ckpt = work / "cond" / "checkpoint.bin"
    _cli("toy-train", "--dataset", "8-gaussian-ring", "--conditional", "--timesteps", 20,
         "--steps", 3, "--batch", 8, "--out", ckpt.parent)
    _cli("toy-train", "--dataset", "two-moons", "--optimizer", "sgd", "--timesteps", 20,
         "--steps", 2, "--batch", 4, "--beta_start", 2e-4, "--lr", 0.01, "--seed", 3,
         "--out", work / "moons")
    _cli("toy-train", "--dataset", "line-subspace", "--timesteps", 20, "--steps", 1,
         "--batch", 2, "--hidden", 4, "--out", work / "line")

    # sample: B=1 and B>=2, guided and unguided, every sampler kind, a
    # guided batch of 1025 rows (2050 head rows, so the head runs in
    # tiles), the density plot, and the oracle with --mu0 -1,2 and one step
    model = ("sample", "--checkpoint", ckpt)
    for args in (("--label", 3, "--batch", 1, "--ddim_steps", 4),
                 ("--label", 3, "--batch", 1, "--ddim_steps", 4, "--sampler", "plms"),
                 ("--label", 0, "--batch", 1025, "--ddim_steps", 2, "--plot"),
                 ("--batch", 3, "--ddim_steps", 4, "--sampler", "plms"),
                 ("--batch", 1, "--ddim_steps", 20, "--sampler", "ddpm")):
        _cli(*model, *args, "--out", work / "samples")
    _cli("sample", "--oracle", "--mu0", "-1,2", "--timesteps", 20, "--ddim_steps", 1,
         "--sampler", "plms", "--batch", 2, "--out", work / "oracle")
    _cli("sample", "--oracle", "--timesteps", 10, "--ddim_steps", 10, "--sampler", "ddpm",
         "--out", work / "oracle")

    _cli("compare-samplers", "--batch", 2, "--out", work / "compare")

    # prompt-extend: a query that touches more documents than --topk, with
    # generator responses; and one with an unknown term that touches fewer,
    # whose fixture holds a text without tokens
    fixtures = work / "fixtures.jsonl"
    fixtures.write_text(json.dumps({"prompt": "zebra cats", "continuations": [
        "-- !", "a cat sleeps in Lhasa on the 3rd of August"]}) + "\n")
    extend = ("prompt-extend", "--corpus", DATA / "micro_corpus.jsonl",
              "--gazetteer", DATA / "gazetteer.txt")
    _cli(*extend, "urbanization of China", "--fixtures", DATA / "fixtures.jsonl",
         "--topk", 2, "--out", work / "px")
    _cli(*extend, "zebra cats", "--fixtures", fixtures, "--out", work / "px")

    # corpus-stats: a clean table, a table with blank and malformed rows
    # under another delimiter, and an empty table
    messy, empty = work / "messy.csv", work / "empty.csv"
    messy.write_text("\n;;\nA;B;s;g;1901\nC;D;s;g;\nshort;row\nE; ;s;g;1\nF;G;s;g;late\n")
    empty.write_text("")
    _cli("corpus-stats", "--metadata", DATA / "artworks.csv", "--out", work / "stats")
    _cli("corpus-stats", "--metadata", messy, "--delimiter", ";", "--out", work / "stats")
    _cli("corpus-stats", "--metadata", empty, "--out", work / "stats")

    # the bench's own calls: TrainCond._check and Prompt20k
    params, _, embedding = load_denoiser(ckpt)
    x = np.random.default_rng(0).normal(size=(16, 2))
    ToyDenoiser(params).predict(x, 7)
    ToyDenoiser(params).predict(x, 7, embedding.condition(5))
    docs = promptx.load_corpus_jsonl(DATA / "micro_corpus.jsonl")
    index = promptx.build_index(docs)
    promptx.extend_prompt("urbanization of China", index, promptx.tfidf_fit(docs),
                          promptx.HashEmbedder(),
                          promptx.FixtureGenerator.from_file(DATA / "fixtures.jsonl"),
                          1.0, 0.1, 3, promptx.Gazetteer.from_file(DATA / "gazetteer.txt"))
    promptx.bm25_search(index, "cats", 3)


def classify(statements: list[Statement], hits: dict[str, set[int]]) -> dict[str, list]:
    """The unreached statements grouped by reason: their exemption, their
    ALLOWED reason, or NO_REASON."""
    reasons, _ = allowed_reasons(statements)
    groups: dict[str, list[Statement]] = defaultdict(list)
    for stmt in statements:
        lines = hits.get(stmt.module, set())
        if any(line in lines for line in range(stmt.first, stmt.last + 1)):
            continue
        groups[stmt.exempt or reasons.get(stmt, NO_REASON)].append(stmt)
    return groups


def unvaried_defaults(overridden: set[tuple]) -> list[str]:
    """Each keyword default that no call overrode, as ``"module.function(name)"``."""
    return [f"{name}({param})" for code, (name, params) in keyword_defaults().items()
            for param in params if (code, param) not in overridden]


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    statements = package_statements()
    hits, overridden = trace_lines(lambda: run_traffic(tmp_path_factory.mktemp("traffic")))
    return statements, hits, overridden


def test_every_statement_is_reached_or_has_a_reason(traffic):
    statements, hits, _ = traffic
    unexplained = classify(statements, hits).get(NO_REASON, [])
    assert not unexplained, ("reached by no command and no bench call; give each a caller, "
                             "or an ALLOWED entry with its reason:\n"
                             + "\n".join(s.where() for s in unexplained))


def test_every_allowed_entry_names_unreached_statements(traffic):
    statements, hits, _ = traffic
    _, named = allowed_reasons(statements)
    unreached = {s for group in classify(statements, hits).values() for s in group}
    for entry, covered in named.items():
        assert covered, f"ALLOWED entry {entry!r} names no statement"
        reached = [s.where() for s in covered if s not in unreached]
        assert not reached, f"ALLOWED entry {entry!r} names reached statements: {reached}"


def test_every_unvaried_keyword_default_has_a_reason(traffic):
    _, _, overridden = traffic
    unvaried = unvaried_defaults(overridden)
    kept = {entry for entries in KEPT_DEFAULTS.values() for entry in entries}
    missing = [entry for entry in unvaried if entry not in kept]
    assert not missing, ("a keyword default that no command and no bench call overrides; "
                         "make it a constant, or give it a KEPT_DEFAULTS entry with its "
                         "reason:\n" + "\n".join(missing))
    stale = sorted(kept - set(unvaried))
    assert not stale, f"KEPT_DEFAULTS entries that name no unvaried default: {stale}"


READER_CASES = '''"""A module docstring."""
LIMIT = len("module level")


def plain(x):
    """A docstring is no statement."""
    y = x + 1
    if y > LIMIT:
        message = f"{y} is too large"
        raise ValueError(message)
    try:
        return 1 / y
    except ZeroDivisionError:
        print("y is 0")
        return None


def outer():
    def inner():
        return 1
    raise NotImplementedError(inner())


class Reader(Protocol):
    def read(self) -> str:
        ...

    class Nested:
        def method(self):
            return ...
'''


def test_the_statement_reader_sees_each_kind():
    got = [(s.function, s.text, s.exempt) for s in module_statements("m", READER_CASES)]
    assert got == [
        ("plain", "y = x + 1", None),
        ("plain", 'message = f"{y} is too large"', ERROR_HANDLING),   # a block ending in raise
        ("plain", "raise ValueError(message)", ERROR_HANDLING),
        ("plain", "return 1 / y", None),
        ("plain", 'print("y is 0")', ERROR_HANDLING),                # an except clause
        ("plain", "return None", ERROR_HANDLING),
        ("outer.inner", "return 1", None),
        ("outer", "raise NotImplementedError(inner())", ERROR_HANDLING),
        ("Reader.read", "...", PROTOCOL_BODY),
        ("Reader.Nested.method", "return ...", None),
    ]


def report() -> None:
    statements = package_statements()
    with tempfile.TemporaryDirectory() as work:
        hits, overridden = trace_lines(lambda: run_traffic(Path(work)))
    groups = classify(statements, hits)
    unreached = {s for group in groups.values() for s in group}
    for module in [*sorted({s.module for s in statements}), None]:
        mine = [s for s in statements if module in (None, s.module)]
        reached = sum(s not in unreached for s in mine)
        print(f"{module or 'total':12s} {reached:4d} of {len(mine):4d} statements reached")
    order = [NO_REASON, *ALLOWED, ERROR_HANDLING, PROTOCOL_BODY]
    for reason in sorted(groups, key=order.index):
        print(f"\n{len(groups[reason])} unreached, {reason}:")
        for stmt in groups[reason]:
            print("  " + stmt.where())
    unvaried = unvaried_defaults(overridden)
    reasons = {entry: reason for reason, entries in KEPT_DEFAULTS.items() for entry in entries}
    print(f"\n{len(unvaried)} keyword defaults that no call overrides:")
    for reason in [*KEPT_DEFAULTS, NO_REASON]:
        entries = [entry for entry in unvaried if reasons.get(entry, NO_REASON) == reason]
        if entries:
            print(f"  {reason}:\n" + "".join(f"    {entry}\n" for entry in entries), end="")


if __name__ == "__main__":
    report()
