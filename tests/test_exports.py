import ast
import inspect

import certunlearn
from certunlearn import calibrate


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


def test_calibrate_holds_searches_only():
    """The searches compare what the accountant certifies: calibrate imports
    three accountant names and no numpy, so no curve arithmetic drifts back."""
    tree = ast.parse(inspect.getsource(calibrate))
    from_accountant = {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.module == "accountant"
                       for alias in node.names}
    assert from_accountant <= {"_Stream", "_converted", "_at_orders"}
    bound = ("np", "ALPHA_GRID", "_optimize_order", "_order_term", "_learned", "_decay_sum",
             "_check_start", "_scalar_curve", "_GRID_WEIGHT")
    assert [name for name in bound if hasattr(calibrate, name)] == []
