import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    # the README's "Library use" example is the first code a reader runs:
    # it must stay in step with the API
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert len(namespace["results"]) == 20
    assert namespace["result"].converged and namespace["summary"].conditions
