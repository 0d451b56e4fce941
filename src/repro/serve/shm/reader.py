"""Compatibility module: the blob reader is
:class:`repro.serve.index.MappingIndex`."""

# Compatibility name: perfbench/layers.py imports BlobIndex from here.
from ..index import MappingIndex as BlobIndex

__all__ = ["BlobIndex"]
