"""The README's code runs as written."""

import math
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_the_library_example_runs(capsys):
    with open(README) as fh:
        library = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", library, re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # three closed forms, g* and mu_s, one estimate, then three g* and three estimates
    assert [len(line.split()) for line in printed] == [3, 2, 1] + [1] * 6
    assert all(math.isfinite(float(x)) for line in printed for x in line.split())
