"""The README's interactive examples run and print what the README shows."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    # Only the ```python blocks, without their fence lines, which doctest
    # would otherwise read as expected output.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.S | re.M)
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, README.name, str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.tries >= 7
    assert runner.failures == 0
