"""README's *Library use* block runs as written and gives the values its comments state."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_use_block_gives_the_values_it_states():
    block = library_use_block()
    names = {}
    exec(block, names)
    params, code, result = names["params"], names["code"], names["result"]
    assert "[[42, 4, d_z=3 / d_x=6]]" in block
    assert (params.n, params.k, params.d_z, params.d_x) == (42, 4, 3, 6)
    assert "[[27, 2]]" in block and (code.n, code.k) == (27, 2)
    assert "(6, 3), search == oracle" in block
    assert (result.d_x, result.d_z, result.method) == (6, 3, "both-agree")

