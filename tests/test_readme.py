"""The README's Library example runs as written, and each expression
in it gives the value its comment shows, so a renamed or deleted public
name fails here."""
import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    scope, got, want = {}, [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            got.append(eval(code, scope))
            want.append(ast.literal_eval(comment.strip()))
        else:
            exec(code, scope)
    assert got == want == [294, "witness", "witness"]
