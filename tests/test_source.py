"""Size limits on the package's source files."""

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
