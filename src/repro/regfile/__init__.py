"""Register storage hierarchies: caches, files, and policies."""
