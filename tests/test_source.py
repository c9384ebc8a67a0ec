"""Size limits and import structure of the package's source files."""

import ast
import graphlib
import pathlib
import tokenize

SRC = pathlib.Path(__file__).parent.parent / "src" / "qrr"

# CPython's parser doubles its token array past 8192 tokens, which raises the
# peak memory of compiling a module by about 0.45 MB when a run compiles from
# source; every module stays below that step.
PARSER_TOKEN_STEP = 8192


def parser_tokens(path) -> int:
    """Tokens the parser reads: comments, blank-line NL tokens and the
    encoding marker are not counted."""
    with open(path, "rb") as f:
        return sum(1 for tok in tokenize.tokenize(f.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))


def test_every_module_stays_below_the_parser_token_step():
    sizes = {str(p.relative_to(SRC)): parser_tokens(p) for p in sorted(SRC.rglob("*.py"))}
    assert "slices.py" in sizes and "qfunctions.py" in sizes
    over = {name: n for name, n in sizes.items() if n >= PARSER_TOKEN_STEP}
    assert not over, over


def _module(path) -> str:
    """The dotted name of a source file, relative to the package: "" for
    the package itself, "harness" for a subpackage."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path, modules) -> set:
    """The package modules that a source file imports, at any level."""
    name = _module(path)
    package = name.split(".") if path.name == "__init__.py" else name.split(".")[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        base = package[:len(package) - (node.level - 1)]
        if node.module:
            found.add(".".join(base + node.module.split(".")))
        else:
            for alias in node.names:
                target = ".".join(base + [alias.name])
                found.add(target if target in modules else ".".join(base))
    return found


def test_intra_package_imports_form_no_cycle():
    paths = sorted(SRC.rglob("*.py"))
    modules = {_module(p) for p in paths}
    graph = {_module(p): _imports(p, modules) - {_module(p)} for p in paths}
    assert graph["slices"] >= {"pochhammer", "summation"} and "qfunctions" not in graph["slices"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_no_module_level_import_follows_a_definition():
    late = []
    for path in sorted(SRC.rglob("*.py")):
        defined = False
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = True
            elif defined and isinstance(node, (ast.Import, ast.ImportFrom)):
                late.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not late, late
