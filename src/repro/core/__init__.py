"""Core: the analytical query model, engines facade, and reference oracle."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__, {"repro.core.query_model": ("from_select_query",)}
)
