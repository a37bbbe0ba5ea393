"""The README's Python quick start runs and gives the results its comments
state."""

import ast
import io
import tokenize
from pathlib import Path

from leavitt import normalize

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _comments(source: str) -> dict:
    """Line number -> text of the comment on that line."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def test_quick_start_results_match_its_comments():
    source = _quick_start()
    comments = _comments(source)
    namespace: dict = {}
    stated = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        # the comment opens with the value as a Python literal: "True: ...", "'u + v' ..."
        comment = comments[node.end_lineno]
        literal = next(tokenize.generate_tokens(io.StringIO(comment).readline)).string
        assert value == ast.literal_eval(literal), (ast.unparse(node), comment)
        stated += 1
    assert stated == 3
    # "a = 1 + 2f*, b = 1 + 2f"
    g, cert = namespace["g"], namespace["cert"]
    assert (cert.a, cert.b) == (normalize(g, "1 + 2*f^*"), normalize(g, "1 + 2*f"))
