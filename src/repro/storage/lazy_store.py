"""The name ``bench/tracing.py`` wraps the store's ``get`` under.

The tracer patches ``vars(LazyDocumentStore)["get"]``, so this alias of
:class:`~repro.storage.document_store.DocumentStore` stays until the tracer
reads spans recorded in ``src/`` instead (ROADMAP item 1).
"""

from repro.storage.document_store import DocumentStore as LazyDocumentStore

__all__ = ["LazyDocumentStore"]
