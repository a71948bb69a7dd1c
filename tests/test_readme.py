import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_print_what_they_say():
    # each fenced python block runs as written, and prints, line for line,
    # the "# ..." comments of its print(...) calls
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                    if line.lstrip().startswith("print(") and "#" in line]
        assert expected, block
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
