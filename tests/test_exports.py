import ast
import inspect

import certunlearn


def test_all_lists_exactly_the_imported_names():
    """Every name in __all__ resolves, and __all__ lists every name the
    package's __init__ imports, so a deleted name leaves no dangling export."""
    tree = ast.parse(inspect.getsource(certunlearn))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    imported.discard("annotations")  # from __future__
    assert [name for name in certunlearn.__all__ if not hasattr(certunlearn, name)] == []
    assert sorted(certunlearn.__all__) == sorted(imported)
    assert len(set(certunlearn.__all__)) == len(certunlearn.__all__)
